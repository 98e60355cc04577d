"""Landmark tracking over frame sequences.

Two trackers share one driving loop: normalized cross-correlation against a
fixed first-frame template, and mean-shift over Epanechnikov-weighted
intensity histograms. A similarity-gated wrapper re-anchors either tracker to
its first-frame annotations whenever a reference-frame comparison metric
exceeds a threshold, which bounds drift on periodic motion. Its reset gate is
one value, computed before tracking starts: the metric's trace over every
frame and the threshold, either fixed or calibrated from the frames after the
reference.

Coordinates follow the image-core convention (x = column, y = row); estimates
are real-valued landmarks. All routines are deterministic: identical inputs
produce bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CountMismatchError,
    EmptyHistogramError,
    InvalidParamsError,
    OutOfFrameError,
    ZeroVarianceTemplateError,
)
from .image import FrameSequence, GrayImage, Landmark, Roi, crop, round_half_away
from .metrics import METRICS, prepare

__all__ = [
    "NccConfig",
    "MeanShiftConfig",
    "ResetConfig",
    "TrackResult",
    "ErrorStats",
    "ncc_track",
    "mean_shift_track",
    "track_with_reset",
    "tracking_error",
]

# Peaks at least this close to a perfect match skip subpixel refinement, so
# exact translations are recovered exactly instead of picking up vertex noise.
_EXACT_PEAK = 1.0 - 1e-9

# Cumulative mean-shift scale state is kept inside this band.
_SCALE_MIN = 0.25
_SCALE_MAX = 4.0


@dataclass(frozen=True)
class NccConfig:
    """Template-correlation tracker settings.

    ``roi_half`` sets the template half extent (window side 2*roi_half+1);
    ``search_half`` bounds the per-frame displacement search around the
    previous estimate and must exceed the template half extent.
    """

    roi_half: int = 12
    search_half: int = 24
    subpixel: bool = True

    def __post_init__(self):
        if self.roi_half < 1:
            raise InvalidParamsError("roi_half must be >= 1")
        if self.search_half <= self.roi_half:
            raise InvalidParamsError("search_half must exceed roi_half")


@dataclass(frozen=True)
class MeanShiftConfig:
    """Histogram tracker settings.

    The kernel bandwidth starts at ``roi_half`` pixels and is re-estimated
    each frame by trying the multiplicative ``scale_steps`` candidates and
    keeping the one with the best Bhattacharyya match. Orientation is not
    estimated.
    """

    roi_half: int = 12
    bins: int = 32
    max_iters: int = 20
    epsilon: float = 0.1
    scale_steps: tuple[float, ...] = (0.9, 1.0, 1.1)

    def __post_init__(self):
        if self.roi_half < 1:
            raise InvalidParamsError("roi_half must be >= 1")
        if self.bins < 2:
            raise InvalidParamsError("bins must be >= 2")
        if self.max_iters < 1:
            raise InvalidParamsError("max_iters must be >= 1")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidParamsError("epsilon must be positive")
        if not self.scale_steps:
            raise InvalidParamsError("scale_steps must not be empty")
        for s in self.scale_steps:
            if not (math.isfinite(s) and s > 0):
                raise InvalidParamsError("scale steps must be positive")


@dataclass(frozen=True)
class ResetConfig:
    """Similarity-gated reset policy.

    Each frame is compared to the reference frame on ``similarity_roi`` crops
    with the named metric; a value strictly above the threshold snaps every
    estimate back to its first-frame annotation. Leave ``threshold`` unset to
    derive it from the first ``calibration_frames`` frames after the
    reference: the maximum observed similarity minus one population standard
    deviation.
    """

    similarity_roi: Roi
    metric: str = "cwssim"
    metric_params: object = None
    threshold: float | None = None
    calibration_frames: int = 0
    reference_frame: int = 0

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidParamsError(f"unknown metric '{self.metric}'")
        if self.threshold is None:
            if self.calibration_frames < 1:
                raise InvalidParamsError(
                    "either threshold or calibration_frames is required")
        elif not (0.0 < self.threshold <= 1.0):
            raise InvalidParamsError("threshold must lie in (0, 1]")
        if self.calibration_frames < 0:
            raise InvalidParamsError("calibration_frames must be >= 0")
        if self.reference_frame < 0:
            raise InvalidParamsError("reference_frame must be >= 0")


@dataclass(frozen=True)
class TrackResult:
    """Per-frame tracker output.

    ``estimates[t]`` holds one landmark per tracked target at frame ``t``.
    ``match_scores`` mirrors that layout with the tracker's own confidence
    (correlation peak, or Bhattacharyya coefficient). ``similarity_trace``,
    ``reset_threshold`` (the threshold the run gated on, fixed or
    calibrated) and ``reset_events`` are populated by the reset wrapper;
    ``scales`` records the cumulative mean-shift bandwidth factor and is None
    for NCC. ``clamped_frames`` lists frames whose search window hit the
    image border.
    """

    estimates: tuple[tuple[Landmark, ...], ...]
    match_scores: tuple[tuple[float, ...], ...] | None = None
    reset_events: tuple[int, ...] = ()
    similarity_trace: tuple[float, ...] | None = None
    clamped_frames: tuple[int, ...] = ()
    scales: tuple[tuple[float, ...], ...] | None = None
    reset_threshold: float | None = None

    def __post_init__(self):
        if not self.estimates:
            raise InvalidParamsError("estimates must cover at least one frame")
        counts = {len(marks) for marks in self.estimates}
        if len(counts) != 1:
            raise InvalidParamsError("every frame must list the same targets")
        for parallel in (self.match_scores, self.scales):
            if parallel is not None and len(parallel) != len(self.estimates):
                raise InvalidParamsError("per-frame fields must align")
        n = len(self.estimates)
        if any(t < 0 or t >= n for t in self.reset_events):
            raise InvalidParamsError("reset event outside the frame range")


class ErrorStats(NamedTuple):
    """Tracking error in millimetres: mean, population std, per-frame means."""

    mean_mm: float
    std_mm: float
    per_frame_mm: tuple[float, ...]


# ---------------------------------------------------------------------------
# NCC stepper


def _parabolic_offset(a: float, b: float, c: float) -> float:
    """Vertex of the parabola through (-1,a), (0,b), (1,c), clamped to ±0.5.

    Returns 0 when the three points do not bend downward (no interior max).
    """
    denom = a - 2.0 * b + c
    if denom >= 0.0:
        return 0.0
    return min(0.5, max(-0.5, 0.5 * (a - c) / denom))


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a size the FFT splits into small
    factors instead of a slow prime-length transform."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _correlate_valid(values: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Cross-correlation of ``values`` with ``template`` at every position
    where the template fits, by FFT.

    The transforms span ``values`` (padded to a fast length), so the circular
    correlation they give wraps only at positions outside the valid ones.
    """
    shape = tuple(_fast_len(n) for n in values.shape)
    spectrum = (np.fft.rfft2(values, shape)
                * np.conj(np.fft.rfft2(template, shape)))
    rows, cols = (n - t + 1 for n, t in zip(values.shape, template.shape))
    return np.fft.irfft2(spectrum, shape)[:rows, :cols]


def _box_sums(values: np.ndarray, side: int) -> np.ndarray:
    """Sum over every ``side`` x ``side`` window of ``values``, from its 2-D
    cumulative sums (one entry per valid window position)."""
    sums = np.zeros((values.shape[0] + 1, values.shape[1] + 1))
    np.cumsum(np.cumsum(values, axis=0), axis=1, out=sums[1:, 1:])
    return (sums[side:, side:] - sums[:-side, side:]
            - sums[side:, :-side] + sums[:-side, :-side])


class _NccStepper:
    """Correlation search with templates fixed at the first frame."""

    def __init__(self, frames: Sequence[GrayImage], init: tuple[Landmark, ...],
                 cfg: NccConfig):
        self.frames = frames
        self.cfg = cfg
        first = frames[0].pixels
        height, width = first.shape
        r = cfg.roi_half
        self.templates = []
        for mark in init:
            cx, cy = round_half_away(mark.x), round_half_away(mark.y)
            if cx - r < 0 or cx + r > width - 1 or cy - r < 0 or cy + r > height - 1:
                raise OutOfFrameError(
                    f"template window at ({mark.x}, {mark.y}) with half extent "
                    f"{r} leaves the {width}x{height} frame")
            window = first[cy - r:cy + r + 1, cx - r:cx + r + 1]
            centered = window - window.mean()
            norm = float(np.sqrt(np.einsum("ij,ij->", centered, centered)))
            if norm == 0.0:
                raise ZeroVarianceTemplateError(
                    f"template at ({mark.x}, {mark.y}) has zero variance")
            self.templates.append((centered, norm))

    has_scales = False

    def initial_state(self):
        return None

    def scales_from(self, state):
        return None

    def _corr_grid(self, pixels, centered, norm, ylo, yhi, xlo, xhi):
        """Correlation for every window center in [ylo,yhi] x [xlo,xhi].

        The cross term is an FFT correlation of the search region with the
        template; window sums and sums of squares are box sums over the
        region (Lewis 1995, fast normalized cross-correlation).
        """
        r = self.cfg.roi_half
        side = 2 * r + 1
        region = pixels[ylo - r:yhi + r + 1, xlo - r:xhi + r + 1]
        # the template sums to ~zero, so the plain correlation is already the
        # centered cross term
        cross = _correlate_valid(region, centered)
        squares = region * region
        wsum = _box_sums(region, side)
        var = _box_sums(squares, side) - wsum * wsum / (side * side)
        # the box sums round by up to about (height + width) ulps of the
        # region's total square sum, so a variance within that of zero is a
        # flat window's
        flat = var <= sum(region.shape) * np.finfo(float).eps * squares.sum()
        corr = cross / (norm * np.sqrt(np.where(flat, 1.0, var)))
        corr[flat] = -1.0
        return corr

    def _clamped_center(self, mark, width, height):
        r = self.cfg.roi_half
        cx = min(max(round_half_away(mark.x), r), width - 1 - r)
        cy = min(max(round_half_away(mark.y), r), height - 1 - r)
        moved = cx != round_half_away(mark.x) or cy != round_half_away(mark.y)
        return cx, cy, moved

    def score_at(self, t, marks, state):
        pixels = self.frames[t].pixels
        height, width = pixels.shape
        out = []
        for (centered, norm), mark in zip(self.templates, marks):
            cx, cy, _ = self._clamped_center(mark, width, height)
            corr = self._corr_grid(pixels, centered, norm, cy, cy, cx, cx)
            out.append(float(corr[0, 0]))
        return tuple(out)

    def step(self, t, prev, state):
        pixels = self.frames[t].pixels
        height, width = pixels.shape
        r, s = self.cfg.roi_half, self.cfg.search_half
        marks, scores = [], []
        clamped = False
        for (centered, norm), mark in zip(self.templates, prev):
            cx, cy, moved = self._clamped_center(mark, width, height)
            clamped |= moved
            xlo, xhi = max(r, cx - s), min(width - 1 - r, cx + s)
            ylo, yhi = max(r, cy - s), min(height - 1 - r, cy + s)
            if (xlo, xhi, ylo, yhi) != (cx - s, cx + s, cy - s, cy + s):
                clamped = True
            corr = self._corr_grid(pixels, centered, norm, ylo, yhi, xlo, xhi)
            top = float(corr.max())
            ties_y, ties_x = np.nonzero(corr == top)
            # prefer the smallest displacement, then row-major order
            iy, ix = min(
                zip(ties_y.tolist(), ties_x.tolist()),
                key=lambda p: ((ylo + p[0] - cy) ** 2 + (xlo + p[1] - cx) ** 2,
                               p[0], p[1]))
            px, py = float(xlo + ix), float(ylo + iy)
            if self.cfg.subpixel and top < _EXACT_PEAK:
                if 0 < ix < corr.shape[1] - 1:
                    px += _parabolic_offset(
                        float(corr[iy, ix - 1]), top, float(corr[iy, ix + 1]))
                if 0 < iy < corr.shape[0] - 1:
                    py += _parabolic_offset(
                        float(corr[iy - 1, ix]), top, float(corr[iy + 1, ix]))
            marks.append(Landmark(px, py))
            scores.append(top)
        return tuple(marks), tuple(scores), state, clamped


# ---------------------------------------------------------------------------
# Mean-shift stepper


def _bin_indices(values: np.ndarray, bins: int) -> np.ndarray:
    idx = np.floor(values * (bins / 256.0)).astype(np.int64)
    return np.clip(idx, 0, bins - 1)


def _kernel_window(plane: np.ndarray, cx: float, cy: float, radius: float):
    """Integer pixel grid under an Epanechnikov kernel at (cx, cy).

    Returns (xs row, ys column, kernel weights, ``plane`` values) restricted
    to the frame, or None when the support misses the frame entirely.
    """
    height, width = plane.shape
    xlo, xhi = max(0, math.ceil(cx - radius)), min(width - 1, math.floor(cx + radius))
    ylo, yhi = max(0, math.ceil(cy - radius)), min(height - 1, math.floor(cy + radius))
    if xlo > xhi or ylo > yhi:
        return None
    gx = np.arange(xlo, xhi + 1, dtype=np.float64)[None, :]
    gy = np.arange(ylo, yhi + 1, dtype=np.float64)[:, None]
    r2 = ((gx - cx) ** 2 + (gy - cy) ** 2) / (radius * radius)
    kernel = np.maximum(1.0 - r2, 0.0)
    return gx, gy, kernel, plane[ylo:yhi + 1, xlo:xhi + 1]


def _kernel_histogram(idx, kernel, bins):
    hist = np.bincount(idx.ravel(), weights=kernel.ravel(), minlength=bins)
    total = float(hist.sum())
    return hist, total


class _MeanShiftStepper:
    """Bhattacharyya mean-shift over kernel-weighted intensity histograms;
    each frame is binned once and every window reads its slice of the bins."""

    def __init__(self, frames: Sequence[GrayImage], init: tuple[Landmark, ...],
                 cfg: MeanShiftConfig):
        self.frames = frames
        self.cfg = cfg
        # candidates ordered nearest-to-unit first; a later candidate must win
        # strictly, so a static target keeps scale 1 when 1.0 is offered
        self.scale_order = tuple(sorted(cfg.scale_steps,
                                        key=lambda s: (abs(s - 1.0), s)))
        first = self._binned(0)
        self.models = []
        for mark in init:
            window = _kernel_window(first, mark.x, mark.y, float(cfg.roi_half))
            if window is None:
                raise OutOfFrameError(
                    f"model window at ({mark.x}, {mark.y}) misses the frame")
            _, _, kernel, idx = window
            hist, total = _kernel_histogram(idx, kernel, cfg.bins)
            if total <= 0.0:
                raise EmptyHistogramError("model window has no kernel mass")
            self.models.append(hist / total)

    has_scales = True

    def initial_state(self):
        return tuple(1.0 for _ in self.models)

    def scales_from(self, state):
        return state

    def _binned(self, t):
        return _bin_indices(self.frames[t].pixels, self.cfg.bins)

    def _candidate(self, binned, cx, cy, radius):
        """Kernel window at (cx, cy) and its normalized histogram."""
        window = _kernel_window(binned, cx, cy, radius)
        if window is None:
            raise EmptyHistogramError("candidate window missed the frame")
        _, _, kernel, idx = window
        hist, total = _kernel_histogram(idx, kernel, self.cfg.bins)
        if total <= 0.0:
            raise EmptyHistogramError("candidate window has no kernel mass")
        return window, hist / total

    def _similarity(self, binned, cx, cy, model, radius):
        _, target = self._candidate(binned, cx, cy, radius)
        return float(np.sqrt(model * target).sum())

    def _converge(self, binned, cx, cy, model, radius):
        """Iterate the weighted centroid until the shift drops below epsilon."""
        for _ in range(self.cfg.max_iters):
            (gx, gy, kernel, idx), target = self._candidate(
                binned, cx, cy, radius)
            weights = np.zeros_like(kernel)
            inside = kernel > 0.0
            weights[inside] = np.sqrt(model[idx[inside]] / target[idx[inside]])
            wsum = float(weights.sum())
            if wsum <= 0.0:
                raise EmptyHistogramError(
                    "model and candidate histograms do not overlap")
            nx = float((weights * gx).sum() / wsum)
            ny = float((weights * gy).sum() / wsum)
            shift = math.hypot(nx - cx, ny - cy)
            cx, cy = nx, ny
            if shift < self.cfg.epsilon:
                break
        return cx, cy, self._similarity(binned, cx, cy, model, radius)

    def score_at(self, t, marks, state):
        binned = self._binned(t)
        return tuple(
            self._similarity(binned, mark.x, mark.y, model,
                             self.cfg.roi_half * scale)
            for model, mark, scale in zip(self.models, marks, state))

    def step(self, t, prev, state):
        binned = self._binned(t)
        marks, scores, scales = [], [], []
        for model, mark, prev_scale in zip(self.models, prev, state):
            best = None
            failure = None
            for factor in self.scale_order:
                scale = min(max(prev_scale * factor, _SCALE_MIN), _SCALE_MAX)
                try:
                    cx, cy, rho = self._converge(
                        binned, mark.x, mark.y, model,
                        self.cfg.roi_half * scale)
                except EmptyHistogramError as exc:
                    failure = exc
                    continue
                if best is None or rho > best[0]:
                    best = (rho, cx, cy, scale)
            if best is None:
                raise failure
            rho, cx, cy, scale = best
            marks.append(Landmark(cx, cy))
            scores.append(rho)
            scales.append(scale)
        return tuple(marks), tuple(scores), tuple(scales), False


# ---------------------------------------------------------------------------
# Driving loop shared by the bare trackers and the reset wrapper


class _Tracker(NamedTuple):
    stepper: type
    config: type
    track: Callable[..., TrackResult]


def _resolve_init(seq: FrameSequence, init) -> tuple[Landmark, ...]:
    if init is None:
        if seq.landmarks is None:
            raise InvalidParamsError(
                "sequence carries no landmarks; pass init explicitly")
        init = seq.landmarks[0]
    init = tuple(init)
    if not init:
        raise InvalidParamsError("at least one landmark is required")
    return init


def _run(seq: FrameSequence, init, stepper, disturbances,
         trace: tuple[float, ...] | None, threshold: float | None
         ) -> TrackResult:
    frames = seq.frames
    estimates, scores, events, clamped = [], [], [], []
    scale_log = [] if stepper.has_scales else None
    state = stepper.initial_state()
    prev = init
    for t in range(len(frames)):
        if trace is not None and trace[t] > threshold:
            marks = init
            state = stepper.initial_state()
            frame_scores = stepper.score_at(t, marks, state)
            events.append(t)
        elif t == 0:
            marks = init
            frame_scores = stepper.score_at(t, marks, state)
        else:
            marks, frame_scores, state, hit_border = stepper.step(t, prev, state)
            if hit_border:
                clamped.append(t)
        if disturbances is not None and t in disturbances:
            dx, dy = disturbances[t]
            marks = tuple(Landmark(m.x + dx, m.y + dy) for m in marks)
        estimates.append(marks)
        scores.append(frame_scores)
        if scale_log is not None:
            scale_log.append(stepper.scales_from(state))
        prev = marks
    return TrackResult(
        estimates=tuple(estimates),
        match_scores=tuple(scores),
        reset_events=tuple(events),
        similarity_trace=trace,
        clamped_frames=tuple(clamped),
        scales=tuple(scale_log) if scale_log is not None else None,
        reset_threshold=threshold)


def _reset_gate(seq: FrameSequence, reset: ResetConfig | None
                ) -> tuple[tuple[float, ...], float]:
    """Check ``reset`` against ``seq`` and return its trace and threshold.

    The trace scores every frame against the reference frame's crop, which
    is prepared once; frames are cropped as the scorer's ``values`` reads
    them. A calibrated threshold is the maximum minus one
    population standard deviation of the ``calibration_frames`` values
    directly following the reference, and must lie in (0, 1].
    """
    if reset is None:
        raise InvalidParamsError("a ResetConfig is required")
    ref, n_frames = reset.reference_frame, len(seq.frames)
    if ref >= n_frames:
        raise InvalidParamsError("reference frame outside the sequence")
    if reset.threshold is None and ref + reset.calibration_frames >= n_frames:
        raise InvalidParamsError("calibration window extends past the sequence")
    roi = reset.similarity_roi
    scorer = prepare(reset.metric, crop(seq.frames[ref], roi),
                     reset.metric_params)
    trace = scorer.values(crop(frame, roi) for frame in seq.frames)
    if reset.threshold is not None:
        return trace, reset.threshold
    window = np.asarray(trace[ref + 1:ref + reset.calibration_frames + 1])
    threshold = float(window.max() - window.std())
    if not (0.0 < threshold <= 1.0):
        raise InvalidParamsError(
            f"calibrated threshold {threshold:.6g} falls outside (0, 1]")
    return trace, threshold


def _track(tracker: str, seq: FrameSequence, init, cfg, disturbances,
           gate: tuple = (None, None)) -> TrackResult:
    """Build the named tracker's stepper, then drive it over every frame.

    ``gate`` is the reset trace and threshold from ``_reset_gate``; a bare
    run has neither.
    """
    stepper_type, config_type, _ = TRACKERS[tracker]
    init = _resolve_init(seq, init)
    if cfg is None:
        cfg = config_type()
    elif not isinstance(cfg, config_type):
        raise InvalidParamsError(
            f"config for '{tracker}' must be {config_type.__name__}")
    return _run(seq, init, stepper_type(seq.frames, init, cfg), disturbances,
                *gate)


def ncc_track(seq: FrameSequence, init=None, cfg: NccConfig | None = None,
              disturbances: Mapping[int, tuple[float, float]] | None = None
              ) -> TrackResult:
    """Track landmarks by correlating fixed first-frame templates.

    Each frame searches integer offsets within ``search_half`` of the previous
    estimate, picks the correlation peak (ties resolve to the smallest
    displacement), and optionally refines with per-axis parabolic
    interpolation. ``init`` defaults to the sequence's first-frame landmarks.
    ``disturbances`` maps frame index to an (dx, dy) corruption added to every
    estimate of that frame, for drift-injection experiments.
    """
    return _track("ncc", seq, init, cfg, disturbances)


def mean_shift_track(seq: FrameSequence, init=None,
                     cfg: MeanShiftConfig | None = None,
                     disturbances: Mapping[int, tuple[float, float]] | None = None
                     ) -> TrackResult:
    """Track landmarks by histogram mean-shift with scale re-estimation.

    The intensity model is built at the first-frame annotation; every frame
    iterates the Bhattacharyya-weighted centroid from the previous estimate
    for each bandwidth candidate and keeps the best match. See ``ncc_track``
    for the ``init`` and ``disturbances`` conventions.
    """
    return _track("meanshift", seq, init, cfg, disturbances)


# The one table of tracker names: each maps to its stepper, its config type
# and its public bare tracker.
TRACKERS = {
    "ncc": _Tracker(_NccStepper, NccConfig, ncc_track),
    "meanshift": _Tracker(_MeanShiftStepper, MeanShiftConfig, mean_shift_track),
}


def track_with_reset(tracker: str, seq: FrameSequence, init=None,
                     cfg=None, reset: ResetConfig | None = None,
                     disturbances: Mapping[int, tuple[float, float]] | None = None
                     ) -> TrackResult:
    """Run a tracker with similarity-gated re-anchoring.

    Every frame is first scored against the reference frame on the
    configured ROI. Then, before each tracker step, a similarity strictly
    above the threshold resets every estimate to its first-frame annotation
    (and the mean-shift scale to 1) instead of stepping. The result records
    the full similarity trace and, as ``reset_threshold``, the threshold
    used: the fixed one, or the one calibrated from the frames after the
    reference. With a threshold no frame can exceed, the output matches the
    bare tracker bit for bit. The reset policy is checked before the
    tracker's own inputs.
    """
    if tracker not in TRACKERS:
        raise InvalidParamsError(f"unknown tracker '{tracker}'")
    return _track(tracker, seq, init, cfg, disturbances,
                  _reset_gate(seq, reset))


def tracking_error(result: TrackResult, truth, pixel_spacing_mm: float
                   ) -> ErrorStats:
    """Distance between estimates and ground truth, scaled to millimetres.

    ``truth`` is a per-frame sequence of landmark tuples matching the layout
    of ``result.estimates``. The mean and population standard deviation pool
    every (frame, landmark) pair; the per-frame series averages landmarks
    within each frame.
    """
    if not (math.isfinite(pixel_spacing_mm) and pixel_spacing_mm > 0):
        raise InvalidParamsError("pixel_spacing_mm must be positive")
    if truth is None or len(truth) != len(result.estimates):
        raise CountMismatchError(
            f"ground truth covers {0 if truth is None else len(truth)} frames, "
            f"estimates cover {len(result.estimates)}")
    distances = []
    per_frame = []
    for got, want in zip(result.estimates, truth):
        if len(got) != len(want):
            raise CountMismatchError(
                f"{len(want)} ground-truth landmarks vs {len(got)} estimates")
        frame_dists = [
            math.hypot(g.x - w.x, g.y - w.y) * pixel_spacing_mm
            for g, w in zip(got, want)]
        distances.extend(frame_dists)
        per_frame.append(math.fsum(frame_dists) / len(frame_dists))
    mean = math.fsum(distances) / len(distances)
    var = math.fsum((d - mean) ** 2 for d in distances) / len(distances)
    return ErrorStats(mean, math.sqrt(var), tuple(per_frame))
