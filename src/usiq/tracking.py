"""Landmark tracking over frame sequences.

Two trackers share one driving loop and one entry point, ``track``:
normalized cross-correlation against a fixed first-frame template, and
mean-shift over Epanechnikov-weighted intensity histograms. Given a reset
policy, ``track`` re-anchors either tracker to its first-frame annotations
whenever a reference-frame comparison metric exceeds a threshold, which
bounds drift on periodic motion. The loop makes one pass over the frames
and drives any number of tracker runs (arms) in lockstep, a stack of frames
at a time. The reset gate feeds it: it first reads the frames as far as the
reference frame and, for a calibrated threshold, the frames after it,
keeping only their similarity crops.

Coordinates follow the image-core convention (x = column, y = row); estimates
are real-valued landmarks. All routines are deterministic: identical inputs
produce bit-identical results.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    CountMismatchError,
    EmptyHistogramError,
    InvalidParamsError,
    OutOfFrameError,
    ZeroVarianceTemplateError,
)
from .image import (
    FrameSequence,
    GrayImage,
    Landmark,
    Roi,
    _is_int,
    crop,
    require_integers,
    require_real_items,
    require_reals,
    round_half_away,
)
from .metrics import METRICS, prepare

__all__ = [
    "NccConfig",
    "MeanShiftConfig",
    "ResetConfig",
    "TrackResult",
    "ErrorStats",
    "track",
    "tracking_error",
]

# Peaks at least this close to a perfect match skip parabolic refinement, so
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

    def __post_init__(self):
        require_integers(self, "roi_half", "search_half")
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
        require_integers(self, "roi_half", "bins", "max_iters")
        require_reals(self, "epsilon")
        if self.roi_half < 1:
            raise InvalidParamsError("roi_half must be >= 1")
        if self.bins < 2:
            raise InvalidParamsError("bins must be >= 2")
        if self.max_iters < 1:
            raise InvalidParamsError("max_iters must be >= 1")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidParamsError("epsilon must be positive")
        steps = require_real_items(self, "scale_steps")
        if not steps:
            raise InvalidParamsError("scale_steps must not be empty")
        for s in steps:
            if not (math.isfinite(s) and s > 0):
                raise InvalidParamsError("scale steps must be positive")


# The gate fires on a similarity above a threshold in (0, 1], so only a
# metric that scores 1 on the reference itself can gate a reset.
_GATE_METRICS = tuple(sorted(name for name, entry in METRICS.items()
                             if entry.identity == 1.0))


@dataclass(frozen=True)
class ResetConfig:
    """Similarity-gated reset policy.

    Each frame is compared to the sequence's reference frame on
    ``similarity_roi`` crops with the named metric, one that scores 1 on the
    reference itself (ssim, msssim, cwssim or vif); a value strictly above the
    threshold snaps every estimate back to its first-frame annotation. Leave
    ``threshold`` unset to derive it from the first ``calibration_frames``
    frames after the reference: the maximum observed similarity minus one
    population standard deviation.
    """

    similarity_roi: Roi
    metric: str = "cwssim"
    metric_params: object = None
    threshold: float | None = None
    calibration_frames: int = 0

    def __post_init__(self):
        if self.metric not in _GATE_METRICS:
            raise InvalidParamsError(
                f"reset metric must be one of {', '.join(_GATE_METRICS)}, "
                f"got {self.metric!r}")
        require_integers(self, "calibration_frames")
        if self.threshold is None:
            if self.calibration_frames < 1:
                raise InvalidParamsError(
                    "either threshold or calibration_frames is required")
        else:
            require_reals(self, "threshold")
            if not 0.0 < self.threshold <= 1.0:
                raise InvalidParamsError("threshold must lie in (0, 1]")
        if self.calibration_frames < 0:
            raise InvalidParamsError("calibration_frames must be >= 0")


@dataclass(frozen=True)
class TrackResult:
    """Per-frame tracker output.

    ``estimates[t]`` holds one landmark per tracked target at frame ``t``.
    ``match_scores`` mirrors that layout with the tracker's own confidence
    (correlation peak, or Bhattacharyya coefficient). ``similarity_trace``,
    ``reset_threshold`` (the threshold the run gated on, fixed or
    calibrated) and ``reset_events`` are populated by a gated run;
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


@functools.lru_cache(maxsize=64)
def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length the FFT splits into small
    factors."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the smallest power-of-two multiple of ``odd`` that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


class _Template(NamedTuple):
    """A first-frame template centred on its mean, its norm, and its
    conjugate spectrum at each FFT shape it has been correlated at."""

    centered: np.ndarray
    norm: float
    spectra: dict

    def spectrum(self, shape: tuple[int, int]) -> np.ndarray:
        if shape not in self.spectra:
            self.spectra[shape] = np.conj(np.fft.rfft2(self.centered, shape))
        return self.spectra[shape]


def _correlate_valid(values: np.ndarray, template: _Template) -> np.ndarray:
    """Cross-correlation of ``values`` with ``template.centered`` at every
    position where the template fits, by FFT.

    The transforms span ``values``, padded to a length the FFT splits into
    small factors, so the circular correlation they give wraps only at
    positions outside the valid ones.
    """
    shape = tuple(_fast_len(n) for n in values.shape)
    spectrum = np.fft.rfft2(values, shape) * template.spectrum(shape)
    rows, cols = (n - t + 1
                  for n, t in zip(values.shape, template.centered.shape))
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

    config = NccConfig

    def __init__(self, first_frame: GrayImage, init: tuple[Landmark, ...],
                 cfg: NccConfig):
        self.cfg = cfg
        first = first_frame.pixels
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
            self.templates.append(_Template(centered, norm, {}))

    def initial_state(self):
        return None

    def view(self, frame):
        return frame.pixels

    def _corr_grid(self, pixels, template, ylo, yhi, xlo, xhi):
        """Correlation with a ``_Template`` for every window center in
        [ylo,yhi] x [xlo,xhi].

        The cross term is an FFT correlation of the search region with the
        template; window sums and sums of squares are box sums over the
        region (Lewis 1995, fast normalized cross-correlation).
        """
        r = self.cfg.roi_half
        side = 2 * r + 1
        region = pixels[ylo - r:yhi + r + 1, xlo - r:xhi + r + 1]
        # the template sums to ~zero, so the plain correlation is already the
        # centered cross term
        cross = _correlate_valid(region, template)
        squares = region * region
        wsum = _box_sums(region, side)
        var = _box_sums(squares, side) - wsum * wsum / (side * side)
        # the box sums round by up to about (height + width) ulps of the
        # region's total square sum, so a variance within that of zero is a
        # flat window's
        flat = var <= sum(region.shape) * np.finfo(float).eps * squares.sum()
        corr = cross / (template.norm * np.sqrt(np.where(flat, 1.0, var)))
        corr[flat] = -1.0
        return corr

    def _clamped_center(self, mark, width, height):
        r = self.cfg.roi_half
        cx = min(max(round_half_away(mark.x), r), width - 1 - r)
        cy = min(max(round_half_away(mark.y), r), height - 1 - r)
        moved = cx != round_half_away(mark.x) or cy != round_half_away(mark.y)
        return cx, cy, moved

    def score_at(self, pixels, marks, state):
        height, width = pixels.shape
        out = []
        for template, mark in zip(self.templates, marks):
            cx, cy, _ = self._clamped_center(mark, width, height)
            corr = self._corr_grid(pixels, template, cy, cy, cx, cx)
            out.append(float(corr[0, 0]))
        return tuple(out)

    def step(self, pixels, prev, state):
        height, width = pixels.shape
        r, s = self.cfg.roi_half, self.cfg.search_half
        marks, scores = [], []
        clamped = False
        for template, mark in zip(self.templates, prev):
            cx, cy, moved = self._clamped_center(mark, width, height)
            clamped |= moved
            xlo, xhi = max(r, cx - s), min(width - 1 - r, cx + s)
            ylo, yhi = max(r, cy - s), min(height - 1 - r, cy + s)
            if (xlo, xhi, ylo, yhi) != (cx - s, cx + s, cy - s, cy + s):
                clamped = True
            corr = self._corr_grid(pixels, template, ylo, yhi, xlo, xhi)
            top = float(corr.max())
            ties_y, ties_x = np.nonzero(corr == top)
            # prefer the smallest displacement, then row-major order
            iy, ix = min(
                zip(ties_y.tolist(), ties_x.tolist()),
                key=lambda p: ((ylo + p[0] - cy) ** 2 + (xlo + p[1] - cx) ** 2,
                               p[0], p[1]))
            px, py = float(xlo + ix), float(ylo + iy)
            if top < _EXACT_PEAK:
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
    """The histogram bin of each intensity, in the smallest unsigned type
    that holds ``bins - 1`` (``uint8`` for up to 256 bins)."""
    idx = values * (bins / 256.0)
    np.floor(idx, out=idx)
    np.clip(idx, 0, bins - 1, out=idx)
    return idx.astype(np.min_scalar_type(bins - 1))


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
    a frame's view is its bins, and every window reads its slice of them."""

    config = MeanShiftConfig

    def __init__(self, first_frame: GrayImage, init: tuple[Landmark, ...],
                 cfg: MeanShiftConfig):
        self.cfg = cfg
        # candidates ordered nearest-to-unit first; a later candidate must win
        # strictly, so a static target keeps scale 1 when 1.0 is offered
        self.scale_order = tuple(sorted(cfg.scale_steps,
                                        key=lambda s: (abs(s - 1.0), s)))
        first = self.view(first_frame)
        radius = float(cfg.roi_half)
        self.models = []
        for mark in init:
            if _kernel_window(first, mark.x, mark.y, radius) is None:
                raise OutOfFrameError(
                    f"model window at ({mark.x}, {mark.y}) misses the frame")
            self.models.append(self._candidate(first, mark.x, mark.y, radius)[1])

    def initial_state(self):
        return tuple(1.0 for _ in self.models)

    def view(self, frame):
        return _bin_indices(frame.pixels, self.cfg.bins)

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
            bins = idx[inside]
            weights[inside] = np.sqrt(model[bins] / target[bins])
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

    def score_at(self, binned, marks, state):
        return tuple(
            self._similarity(binned, mark.x, mark.y, model,
                             self.cfg.roi_half * scale)
            for model, mark, scale in zip(self.models, marks, state))

    def step(self, binned, prev, state):
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
# Tracker runs: ``_lockstep`` puts together and drives every run, bare or
# gated, of ``track`` and of the tracking study


# The one table of tracker names: name -> stepper type.
TRACKERS = {"ncc": _NccStepper, "meanshift": _MeanShiftStepper}


def _gate(frames: Sequence[GrayImage], reset: ResetConfig | None,
          reference_frame: int
          ) -> tuple[float, Iterator[list[tuple[float, GrayImage]]]]:
    """The reset gate over ``frames``: its threshold, and the frames in
    stacks, each frame with its similarity to frame ``reference_frame``.

    Before it returns, the gate reads a first pass of the frames through the
    reference and, for a calibrated threshold, the ``calibration_frames``
    frames after it, and keeps only their crops. It prepares the reference
    crop, scores the crops and takes the threshold: the maximum minus one
    population standard deviation of the window's values, which must lie in
    (0, 1]. The stacks read the frames again from the first. The frames of
    the first pass come with the values already scored; the rest are read,
    cropped and scored a scorer stack at a time. The gate keeps no stack it
    has yielded.
    """
    if reset is None:
        raise InvalidParamsError("a ResetConfig is required")
    window = 0 if reset.threshold is not None else reset.calibration_frames
    roi = reset.similarity_roi
    crops = [crop(frame, roi) for frame in
             itertools.islice(frames, reference_frame + 1 + window)]
    if len(crops) <= reference_frame + window:
        raise InvalidParamsError("calibration window extends past the sequence")
    scorer = prepare(reset.metric, crops[reference_frame], reset.metric_params)
    values = scorer.values(crops)
    threshold = reset.threshold
    if threshold is None:
        calibration = np.asarray(values[reference_frame + 1:])
        threshold = float(calibration.max() - calibration.std())
        if not (0.0 < threshold <= 1.0):
            raise InvalidParamsError(
                f"calibrated threshold {threshold:.6g} falls outside (0, 1]")
    size = scorer.stack_size
    del crops

    def stacks():
        reader = iter(frames)
        # values before frames: zip stops at the end of the first pass
        # without reading a frame past it
        for start in range(0, len(values), size):
            yield list(zip(values[start:start + size], reader))
        while stack := list(itertools.islice(reader, size)):
            yield list(zip(scorer.values(crop(frame, roi) for frame in stack),
                           stack))
            del stack

    return threshold, stacks()


class _Run:
    """One arm's tracker run, fed a frame's view at a time, and the record
    it builds."""

    def __init__(self, stepper, init: tuple[Landmark, ...], gated: bool):
        self.stepper, self.init, self.gated = stepper, init, gated
        self.estimates, self.scores, self.events, self.clamped = [], [], [], []
        # a stepper's state is its per-target scale record, or None if it has
        # none
        self.scales = None if stepper.initial_state() is None else []
        self.prev = self.state = None

    def feed(self, t, view, fired, shift, steps):
        """Frame ``t``, as the stepper's ``view``: re-anchor at the
        first-frame annotations on frame 0 or when the gate ``fired``, else
        step from the previous estimates; then move every estimate by
        ``shift``, if one is given. Arms share ``steps``, the frame's step
        results by (estimates, state)."""
        if fired or t == 0:
            marks, self.state = self.init, self.stepper.initial_state()
            scores = self.stepper.score_at(view, marks, self.state)
            if fired:
                self.events.append(t)
        else:
            key = (self.prev, self.state)
            if key not in steps:
                steps[key] = self.stepper.step(view, *key)
            marks, scores, self.state, hit_border = steps[key]
            if hit_border:
                self.clamped.append(t)
        if shift is not None:
            dx, dy = shift
            marks = tuple(Landmark(m.x + dx, m.y + dy) for m in marks)
        self.estimates.append(marks)
        self.scores.append(scores)
        if self.scales is not None:
            self.scales.append(self.state)
        self.prev = marks

    def result(self, trace, threshold) -> TrackResult:
        return TrackResult(
            estimates=tuple(self.estimates),
            match_scores=tuple(self.scores),
            reset_events=tuple(self.events),
            similarity_trace=trace if self.gated else None,
            clamped_frames=tuple(self.clamped),
            scales=None if self.scales is None else tuple(self.scales),
            reset_threshold=threshold if self.gated else None)


def _lockstep(seq: FrameSequence, init, trackers,
              reset: ResetConfig | None = None,
              disturbances: Mapping[int, tuple[float, float]] | None = None
              ) -> list[TrackResult]:
    """Drive every arm of every tracker over one pass of ``seq``'s frames;
    their results, tracker by tracker and arm by arm.

    This is where every tracker run is put together. ``trackers`` lists one
    ``(stepper type, cfg, gates)`` per tracker: one stepper, built from the
    first frame with ``cfg`` (None for the defaults of the type's
    ``config``), drives one arm per flag of ``gates``, and a gated arm
    re-anchors at ``init`` (by default the sequence's first-frame landmarks)
    wherever the reset gate on ``reset`` fires. ``init`` is checked first,
    then each ``cfg``, then the ``disturbances`` keys; then, with any gated
    arm, the gate's checks and first pass run. Each pass over the frames
    calls ``iter(seq.frames)`` once. Then the frames come in stacks: each
    tracker's arms take every frame of a stack before the next tracker
    steps, and the stack is dropped before the next is read.
    """
    if init is None:
        if seq.landmarks is None:
            raise InvalidParamsError(
                "sequence carries no landmarks; pass init explicitly")
        init = seq.landmarks[0]
    init = tuple(init)
    if not init:
        raise InvalidParamsError("at least one landmark is required")
    checked = []
    for stepper_type, cfg, gates in trackers:
        if cfg is None:
            cfg = stepper_type.config()
        elif not isinstance(cfg, stepper_type.config):
            raise InvalidParamsError(
                f"tracker config must be {stepper_type.config.__name__}")
        checked.append((stepper_type, cfg, gates))
    frames, shifts = seq.frames, disturbances or {}
    bad = [t for t in shifts if not (_is_int(t) and 0 <= t < len(frames))]
    if bad:
        raise InvalidParamsError(f"disturbance frames {bad} are not integers "
                                 f"in [0, {len(frames)})")
    if any(any(gates) for *_, gates in checked):
        threshold, stacks = _gate(frames, reset, seq.reference_frame)
    else:
        threshold, stacks = None, ([(None, frame)] for frame in frames)
    # one (stepper, runs) pair per tracker, its runs sharing the stepper
    trace, arms, t = [], [], 0
    for stack in stacks:
        if t == 0:
            for stepper_type, cfg, gates in checked:
                stepper = stepper_type(stack[0][1], init, cfg)
                arms.append((stepper, [_Run(stepper, init, gated)
                                       for gated in gates]))
        trace.extend(value for value, _ in stack if value is not None)
        for stepper, runs in arms:
            for i, (value, frame) in enumerate(stack):
                fired = value is not None and value > threshold
                # each frame is viewed once for every arm of its tracker
                view, steps = stepper.view(frame), {}
                for run in runs:
                    run.feed(t + i, view, fired and run.gated,
                             shifts.get(t + i), steps)
        t += len(stack)
        # the loop names still hold the stack's last frame and its view
        del stack, frame, view
    trace = tuple(trace)
    return [run.result(trace, threshold) for _, runs in arms for run in runs]


def track(tracker: str, seq: FrameSequence, init=None, cfg=None,
          reset: ResetConfig | None = None,
          disturbances: Mapping[int, tuple[float, float]] | None = None
          ) -> TrackResult:
    """Run the named tracker over ``seq``, bare or gated by ``reset``.

    ``"ncc"`` correlates fixed first-frame templates: each frame searches
    integer offsets within ``search_half`` of the previous estimate, picks
    the correlation peak (ties resolve to the smallest displacement), and
    refines it by per-axis parabolic interpolation unless it is an exact
    match. ``"meanshift"`` builds an intensity model at the first-frame
    annotation; every frame iterates the Bhattacharyya-weighted centroid
    from the previous estimate for each bandwidth candidate and keeps the
    best match. ``cfg`` (``NccConfig`` or ``MeanShiftConfig``) defaults to
    the tracker's defaults, and ``init`` to the sequence's first-frame
    landmarks. ``disturbances`` maps frame index to an (dx, dy) corruption
    added to every estimate of that frame, for drift-injection experiments.

    With ``reset=None`` the tracker runs bare. Given a ``ResetConfig``,
    every frame is scored against the sequence's reference frame on the
    configured ROI, and before each tracker step a similarity strictly
    above the threshold resets every estimate to its first-frame annotation
    (and the mean-shift scale to 1) instead of stepping. The result records
    the full similarity trace and, as ``reset_threshold``, the threshold
    used: the fixed one, or the one calibrated from the frames after the
    reference. With a threshold no frame can exceed, the output matches the
    bare run bit for bit. The tracker name, ``init``, ``cfg`` and
    ``disturbances`` (each key a frame index of ``seq``) are checked first,
    then the reset policy, and all before any frame is tracked.
    """
    if tracker not in TRACKERS:
        raise InvalidParamsError(f"unknown tracker '{tracker}'")
    result, = _lockstep(seq, init,
                        [(TRACKERS[tracker], cfg, (reset is not None,))],
                        reset, disturbances)
    return result


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
