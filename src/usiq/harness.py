"""Evaluation harness over the metric, synthesis, and tracking layers.

Produces the data behind the usual plots: per-frame similarity traces,
Pearson correlation of those traces against landmark motion, speckle-level
sweeps, and paired bare-versus-reset tracking comparisons. Every result type
has a CSV or JSON emitter; numbers are written with a fixed nine significant
digit rule so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import (
    ConstantSeriesError,
    CountMismatchError,
    InvalidParamsError,
)
from .image import FrameSequence, Roi, crop
from .metrics import METRICS, normalize_series, prepare
from .synth import PhantomSpec, SpeckleSpec, apply_speckle, make_phantom
from .tracking import (
    TRACKERS,
    ErrorStats,
    ResetConfig,
    TrackResult,
    _reset_gate,
    _track,
    mean_shift_track,
    ncc_track,
    tracking_error,
)

__all__ = [
    "CorrelationEntry",
    "CorrelationReport",
    "SweepResult",
    "SweepRow",
    "TraceReport",
    "TrackingArm",
    "TrackingComparison",
    "format_number",
    "pearson",
    "run_correlation_study",
    "run_noise_sweep",
    "run_trace",
    "run_tracking_study",
    "write_correlation_json",
    "write_sweep_csv",
    "write_trace_csv",
    "write_track_csv",
    "write_tracking_frames_csv",
    "write_tracking_summary_csv",
]


def pearson(x, y) -> float:
    """Sample Pearson correlation between two equal-length series.

    Two-pass formula with compensated (``math.fsum``) accumulation; the
    result is clamped into [-1, 1] to absorb last-bit rounding.
    """
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if len(xs) != len(ys):
        raise CountMismatchError(
            f"series lengths differ: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 3:
        raise InvalidParamsError("correlation needs at least three samples")
    if not all(math.isfinite(v) for v in xs + ys):
        raise InvalidParamsError("correlation inputs must be finite")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    cov = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(xs, ys))
    var_x = math.fsum((a - mean_x) ** 2 for a in xs)
    var_y = math.fsum((b - mean_y) ** 2 for b in ys)
    if var_x == 0.0 or var_y == 0.0:
        raise ConstantSeriesError(
            "correlation against a constant series is undefined")
    return max(-1.0, min(1.0, cov / math.sqrt(var_x * var_y)))


def _checked_names(names, known, kind: str) -> tuple[str, ...]:
    """``names`` as a tuple: at least one, none twice, each in ``known``."""
    names = tuple(names)
    if not names:
        raise InvalidParamsError(f"at least one {kind} required")
    if len(set(names)) != len(names):
        raise InvalidParamsError(f"{kind} list contains duplicates")
    for name in names:
        if name not in known:
            raise InvalidParamsError(
                f"unknown {kind} {name!r}; choose from {sorted(known)}")
    return names


def _checked_params(metric_params, names) -> dict:
    params = dict(metric_params or {})
    stray = set(params) - set(names)
    if stray:
        raise InvalidParamsError(
            f"params given for metrics not in the run: {sorted(stray)}")
    return params


def _normalized_or_noted(columns: dict) -> tuple[dict, dict]:
    """Min-max normalize each named column; a column with fewer than two
    values or no spread gets a note naming the error kind instead."""
    normalized, notes = {}, {}
    for name, values in columns.items():
        if len(values) < 2:
            notes[name] = ConstantSeriesError.kind
            continue
        try:
            normalized[name] = tuple(normalize_series(values))
        except ConstantSeriesError as exc:
            notes[name] = exc.kind
    return normalized, notes


# ---------------------------------------------------------------------------
# Similarity traces


@dataclass(frozen=True)
class TraceReport:
    """Per-frame metric values against a fixed reference frame.

    Each requested metric contributes a ``raw`` column and either a
    ``normalized`` column (min-max rescaled onto [0, 1]) or an entry in
    ``notes`` naming the error kind that made normalization undefined.
    """

    metrics: tuple[str, ...]
    raw: dict[str, tuple[float, ...]]
    normalized: dict[str, tuple[float, ...]]
    notes: dict[str, str]
    reference_frame: int

    def __post_init__(self):
        for name in self.metrics:
            if name not in self.raw:
                raise InvalidParamsError(f"metric {name!r} has no raw column")
            if (name in self.normalized) == (name in self.notes):
                raise InvalidParamsError(
                    f"metric {name!r} needs exactly one of a normalized "
                    "column or a note")
        for name, col in self.normalized.items():
            if len(col) != len(self.raw[name]):
                raise InvalidParamsError(
                    f"normalized {name} column length mismatch")
            if min(col) != 0.0 or max(col) != 1.0:
                raise InvalidParamsError(
                    f"normalized {name} column must span [0, 1] exactly")

    @property
    def n_frames(self) -> int:
        return len(self.raw[self.metrics[0]])


def run_trace(seq: FrameSequence, metrics, roi: Roi | None = None,
              metric_params=None) -> TraceReport:
    """Evaluate each metric between the reference frame and every frame.

    ``roi`` restricts the comparison to a window (cropped identically from
    reference and frame); ``metric_params`` maps metric id to its params
    object. Constant columns (including the single-frame case) are reported
    raw with a constant-series note instead of raising.
    """
    names = _checked_names(metrics, METRICS, "metric")
    params = _checked_params(metric_params, names)
    view = (lambda img: crop(img, roi)) if roi is not None else (lambda img: img)
    ref = view(seq.frames[seq.reference_frame])
    raw = {}
    for name in names:
        scorer = prepare(name, ref, params.get(name))
        raw[name] = scorer.values(view(frame) for frame in seq.frames)
    normalized, notes = _normalized_or_noted(raw)
    return TraceReport(metrics=names, raw=raw, normalized=normalized,
                       notes=notes, reference_frame=seq.reference_frame)


# ---------------------------------------------------------------------------
# Correlation studies


@dataclass(frozen=True)
class CorrelationEntry:
    """One metric's correlation against landmark displacement.

    Exactly one of ``abs_pearson`` (with its ``sign``) or ``error`` is set.
    """

    metric: str
    abs_pearson: float | None
    sign: int = 0
    error: str | None = None

    def __post_init__(self):
        if (self.abs_pearson is None) == (self.error is None):
            raise InvalidParamsError(
                "entry needs exactly one of |r| or an error kind")
        if self.abs_pearson is not None:
            if not 0.0 <= self.abs_pearson <= 1.0:
                raise InvalidParamsError("|r| must lie in [0, 1]")
            if self.sign not in (-1, 1):
                raise InvalidParamsError("sign must be -1 or +1")


@dataclass(frozen=True)
class CorrelationReport:
    """Metrics ranked by |Pearson r|, scored entries before errored ones.

    ``trace`` is the similarity trace the ranking was computed from.
    """

    entries: tuple[CorrelationEntry, ...]
    trace: TraceReport | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        seen_error = False
        previous = math.inf
        for entry in self.entries:
            if entry.error is not None:
                seen_error = True
                continue
            if seen_error:
                raise InvalidParamsError(
                    "scored entries must precede errored ones")
            if entry.abs_pearson > previous:
                raise InvalidParamsError(
                    "entries must be ranked by descending |r|")
            previous = entry.abs_pearson


def run_correlation_study(seq: FrameSequence, metrics, roi: Roi | None = None,
                          metric_params=None) -> CorrelationReport:
    """Correlate each metric's normalized trace with landmark motion.

    The displacement series is the lateral (x) coordinate of the first
    ground-truth landmark. Metrics whose trace cannot be normalized, or
    whose correlation is undefined (constant displacement), are reported
    with the error kind instead of a score.
    """
    if seq.landmarks is None or not seq.landmarks[0]:
        raise InvalidParamsError(
            "correlation study needs ground-truth landmarks")
    trace = run_trace(seq, metrics, roi=roi, metric_params=metric_params)
    displacement = [marks[0].x for marks in seq.landmarks]
    scored, errored = [], []
    for name in trace.metrics:
        if name in trace.notes:
            errored.append(CorrelationEntry(name, None, error=trace.notes[name]))
            continue
        try:
            r = pearson(displacement, trace.normalized[name])
        except ConstantSeriesError as exc:
            errored.append(CorrelationEntry(name, None, error=exc.kind))
            continue
        scored.append(CorrelationEntry(name, abs(r),
                                       sign=1 if r >= 0.0 else -1))
    scored.sort(key=lambda entry: -entry.abs_pearson)
    return CorrelationReport(entries=tuple(scored + errored), trace=trace)


# ---------------------------------------------------------------------------
# Noise sweeps


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    metric: str
    mean_value: float
    normalized_value: float | None


@dataclass(frozen=True)
class SweepResult:
    """Speckle-level sweep: one row per (alpha, metric) in declared order."""

    rows: tuple[SweepRow, ...]
    notes: dict[str, str]
    alphas: tuple[float, ...]
    metrics: tuple[str, ...]
    seeds: int


def run_noise_sweep(phantom: PhantomSpec, alphas, metrics, seeds: int,
                    seed: int = 0, metric_params=None) -> SweepResult:
    """Score a clean phantom against speckled copies of itself.

    For each alpha, each metric is averaged over ``seeds`` independently
    seeded speckle draws (draw i uses seed + i, independent of alpha, so
    per-draw comparisons across alphas share the same noise field). Each
    metric's mean column is then min-max normalized across the alpha axis;
    columns without spread are noted instead.
    """
    names = _checked_names(metrics, METRICS, "metric")
    params = _checked_params(metric_params, names)
    alpha_list = tuple(float(a) for a in alphas)
    if not alpha_list:
        raise InvalidParamsError("at least one alpha required")
    if len(set(alpha_list)) != len(alpha_list):
        raise InvalidParamsError("alpha list contains duplicates")
    if seeds < 1:
        raise InvalidParamsError("seeds must be >= 1")
    base = make_phantom(phantom, seed=seed)
    scorers = {name: prepare(name, base, params.get(name)) for name in names}
    means = {name: [] for name in names}
    for alpha in alpha_list:
        speckled = [apply_speckle(base, SpeckleSpec(alpha=alpha, seed=seed + i))
                    for i in range(seeds)]
        for name in names:
            values = [scorers[name](img).value for img in speckled]
            means[name].append(math.fsum(values) / len(values))
    normalized, notes = _normalized_or_noted(means)
    rows = tuple(
        SweepRow(alpha=alpha, metric=name, mean_value=means[name][i],
                 normalized_value=(normalized[name][i]
                                   if name in normalized else None))
        for i, alpha in enumerate(alpha_list) for name in names)
    return SweepResult(rows=rows, notes=notes, alphas=alpha_list,
                       metrics=names, seeds=seeds)


# ---------------------------------------------------------------------------
# Tracking experiments


@dataclass(frozen=True)
class TrackingArm:
    result: TrackResult
    stats: ErrorStats


@dataclass(frozen=True)
class TrackingComparison:
    """Paired bare and reset-wrapped runs of one tracker on one sequence."""

    tracker: str
    bare: TrackingArm
    reset: TrackingArm


def run_tracking_study(seq: FrameSequence, trackers, reset: ResetConfig,
                       init=None, truth=None, cfg=None, disturbances=None
                       ) -> tuple[TrackingComparison, ...]:
    """Run each named tracker with and without the reset wrapper, in order,
    and score both arms against ground truth.

    ``trackers`` must list known tracker names, at least one and none twice.
    ``truth`` defaults to the sequence's ground-truth landmarks; pass an
    explicit per-frame subset when ``init`` tracks fewer landmarks than the
    sequence annotates. ``disturbances`` perturbs every arm identically. The
    reset gate (the similarity trace and its threshold) is computed once,
    before any arm runs, and drives every reset arm: the reset metric scores
    each frame once per study. Each reset arm equals ``track_with_reset``
    with the same arguments.
    """
    trackers = _checked_names(trackers, TRACKERS, "tracker")
    if truth is None:
        if seq.landmarks is None:
            raise InvalidParamsError(
                "tracking experiment needs ground-truth landmarks")
        truth = seq.landmarks
    gate = _reset_gate(seq, reset)
    spacing = seq.pixel_spacing_mm
    comparisons = []
    for tracker in trackers:
        # the bare arm goes through the module-level public name, not
        # TRACKERS[tracker].track, so wrappers bound to that name (profilers,
        # tracers) see it
        bare_track = ncc_track if tracker == "ncc" else mean_shift_track
        bare = bare_track(seq, init=init, cfg=cfg, disturbances=disturbances)
        wrapped = _track(tracker, seq, init, cfg, disturbances, gate)
        comparisons.append(TrackingComparison(
            tracker=tracker,
            bare=TrackingArm(bare, tracking_error(bare, truth, spacing)),
            reset=TrackingArm(wrapped, tracking_error(wrapped, truth, spacing))))
    return tuple(comparisons)


# ---------------------------------------------------------------------------
# Report emission


def format_number(value) -> str:
    """Render a float with nine significant digits; infinities spell out."""
    v = float(value)
    if math.isnan(v):
        raise InvalidParamsError("refusing to format NaN")
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".9g")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_trace_csv(report: TraceReport, path) -> None:
    """One row per frame: raw and normalized columns per metric.

    Metrics whose normalization was noted leave the cell empty.
    """
    header = ["frame"]
    for name in report.metrics:
        header += [f"{name}_raw", f"{name}_normalized"]
    rows = []
    for t in range(report.n_frames):
        cells = [str(t)]
        for name in report.metrics:
            cells.append(format_number(report.raw[name][t]))
            cells.append(format_number(report.normalized[name][t])
                         if name in report.normalized else "")
        rows.append(cells)
    _write_csv(path, header, rows)


def write_correlation_json(report: CorrelationReport, path) -> None:
    """Ranked list of {"metric", "abs_pearson", "sign"} (or "error") objects."""
    payload = []
    for entry in report.entries:
        if entry.error is not None:
            payload.append({"metric": entry.metric, "error": entry.error})
        else:
            payload.append({"metric": entry.metric,
                            "abs_pearson": float(format_number(entry.abs_pearson)),
                            "sign": entry.sign})
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_sweep_csv(sweep: SweepResult, path) -> None:
    rows = []
    for row in sweep.rows:
        rows.append([format_number(row.alpha), row.metric,
                     format_number(row.mean_value),
                     format_number(row.normalized_value)
                     if row.normalized_value is not None else ""])
    _write_csv(path, ["alpha", "metric", "mean_value", "normalized_value"],
               rows)


def write_track_csv(result: TrackResult, path) -> None:
    """Flat per-frame, per-landmark table of a single tracking run."""
    events = set(result.reset_events)
    rows = []
    for t, marks in enumerate(result.estimates):
        fired = "1" if t in events else "0"
        similarity = (format_number(result.similarity_trace[t])
                      if result.similarity_trace is not None else "")
        for k, mark in enumerate(marks):
            rows.append([str(t), str(k), format_number(mark.x),
                         format_number(mark.y), fired, similarity])
    _write_csv(path, ["frame", "landmark_id", "x_px", "y_px", "reset_fired",
                      "similarity_value"], rows)


def write_tracking_summary_csv(comparisons, path) -> None:
    """Two rows per tracker: the bare arm (reset 0) and the wrapped arm."""
    rows = []
    for cmp in comparisons:
        rows.append([cmp.tracker, "0", format_number(cmp.bare.stats.mean_mm),
                     format_number(cmp.bare.stats.std_mm), "0"])
        rows.append([cmp.tracker, "1", format_number(cmp.reset.stats.mean_mm),
                     format_number(cmp.reset.stats.std_mm),
                     str(len(cmp.reset.result.reset_events))])
    _write_csv(path, ["tracker", "reset", "mean_error_mm", "std_error_mm",
                      "reset_events"], rows)


def write_tracking_frames_csv(comparison: TrackingComparison, path) -> None:
    """Paired per-frame error series for one tracker's two arms."""
    bare = comparison.bare.stats.per_frame_mm
    wrapped = comparison.reset.stats.per_frame_mm
    rows = [[str(t), format_number(a), format_number(b)]
            for t, (a, b) in enumerate(zip(bare, wrapped))]
    _write_csv(path, ["frame", "bare_error_mm", "reset_error_mm"], rows)
