"""Command-line interface.

Subcommands cover the full pipeline: pairwise metric comparison, sequence
traces, synthetic data generation, tracking runs, and the three packaged
studies. Contract violations exit with status 2 and print the machine
readable error kind (followed by the message) on standard error. A fixed
``--seed`` makes every output byte-reproducible.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys

from .errors import InvalidParamsError, UsiqError
from .harness import (
    format_number,
    run_correlation_study,
    run_noise_sweep,
    run_trace,
    run_tracking_study,
    write_correlation_json,
    write_sweep_csv,
    write_trace_csv,
    write_track_csv,
    write_tracking_frames_csv,
    write_tracking_summary_csv,
)
from .image import (
    Landmark,
    Roi,
    load_pgm,
    load_sequence,
    save_pgm,
    write_sequence,
)
from .metrics import METRICS, prepare
from .pyramid import PyramidParams
from .synth import (
    SpeckleSpec,
    apply_speckle,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    make_phantom,
    periodic_sequence,
)
from .tracking import _GATE_METRICS, TRACKERS, ResetConfig, track


# ---------------------------------------------------------------------------
# Argument parsing helpers


def _parse_roi(text: str) -> Roi:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidParamsError("roi must be x,y,half_width,half_height")
    try:
        x, y = float(parts[0]), float(parts[1])
        hw, hh = int(parts[2]), int(parts[3])
    except ValueError:
        raise InvalidParamsError(f"malformed roi {text!r}") from None
    return Roi(Landmark(x, y), hw, hh)


def _parse_list(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def _parse_alphas(text: str) -> list[float]:
    try:
        return [float(part) for part in _parse_list(text)]
    except ValueError:
        raise InvalidParamsError(f"malformed alpha list {text!r}") from None


def _coerce(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    if ":" in text:
        try:
            return tuple(float(part) for part in text.split(":"))
        except ValueError:
            pass
    return text


def build_metric_params(metric: str, assignments: dict):
    """Turn ``field=value`` strings into the metric's params object.

    cwssim accepts ``levels`` and ``orientations`` directly; they populate
    the nested pyramid settings. Tuple values (msssim weights) use a
    colon-separated list.
    """
    if not assignments:
        return None
    kv = {key: _coerce(value) for key, value in assignments.items()}
    if metric == "psnr":
        if set(kv) != {"peakval"}:
            raise InvalidParamsError("psnr accepts only peakval=<value>")
        if not isinstance(kv["peakval"], (int, float)):
            raise InvalidParamsError(
                f"peakval must be a number, got {assignments['peakval']!r}")
        return float(kv["peakval"])
    params_class = METRICS[metric].params
    if params_class is None:
        raise InvalidParamsError(f"{metric} takes no parameters")
    try:
        if metric == "cwssim":
            pyramid_kv = {key: kv.pop(key)
                          for key in ("levels", "orientations") if key in kv}
            if pyramid_kv:
                kv["pyramid"] = PyramidParams(**pyramid_kv)
        return params_class(**kv)
    except TypeError as exc:
        raise InvalidParamsError(f"bad {metric} parameter: {exc}") from None


def _split_param(text: str):
    """Split ``[metric:]key=value``; the prefix colon must precede '='."""
    eq = text.find("=")
    if eq < 1:
        raise InvalidParamsError(f"expected key=value, got {text!r}")
    colon = text.find(":")
    if 0 < colon < eq:
        return text[:colon], text[colon + 1:eq], text[eq + 1:]
    return None, text[:eq], text[eq + 1:]


def _collect_params(items, metrics, default_metric=None):
    """Group repeated --param flags into a metric -> params-object map; a
    param for a metric outside ``metrics`` is an error."""
    per_metric: dict[str, dict] = {}
    for item in items or []:
        metric, key, value = _split_param(item)
        if metric is None:
            if default_metric is None:
                raise InvalidParamsError(
                    f"parameter {item!r} needs a metric: prefix")
            metric = default_metric
        if metric not in METRICS:
            raise InvalidParamsError(f"unknown metric {metric!r} in --param")
        per_metric.setdefault(metric, {})[key] = value
    built = {metric: build_metric_params(metric, kv)
             for metric, kv in per_metric.items()}
    stray = set(built) - set(metrics)
    if stray:
        raise InvalidParamsError(
            f"params given for metrics not in the run: {sorted(stray)}")
    return built


def _reject_nul(args) -> None:
    """No path can hold a NUL byte: reject one in any string argument, list
    items included, before any file is read or any directory is made."""
    for name, value in vars(args).items():
        for text in value if isinstance(value, list) else (value,):
            if isinstance(text, str) and "\0" in text:
                raise InvalidParamsError(f"argument {name} holds a NUL byte")


# the options that only ``--reset`` reads
_RESET_ONLY = ("reset_roi", "reset_metric", "reset_param", "tau", "calibrate")


def _reset_config_from(args) -> ResetConfig:
    if args.reset_roi is None:
        raise InvalidParamsError("--reset needs --reset-roi x,y,hw,hh")
    if args.tau is None and args.calibrate is None:
        raise InvalidParamsError("--reset needs --tau or --calibrate")
    metric = args.reset_metric or "cwssim"
    params = _collect_params(args.reset_param, [metric], default_metric=metric)
    return ResetConfig(
        similarity_roi=_parse_roi(args.reset_roi),
        metric=metric,
        metric_params=params.get(metric),
        threshold=args.tau,
        calibration_frames=args.calibrate or 0)


def _speckle(alpha, seed) -> SpeckleSpec | None:
    """The speckle of ``--alpha``: checked at every value, None at 0."""
    speckle = SpeckleSpec(alpha=alpha, seed=seed)
    return speckle if alpha > 0 else None


def _benchmark_sequence(seed, frames, alpha, decoy=False):
    """The benchmark sequence of ``synth sequence`` and the studies; its
    frames render as they are read."""
    return periodic_sequence(benchmark_phantom_spec(decoy=decoy),
                             benchmark_motion_spec(n_frames=frames),
                             speckle=_speckle(alpha, seed), seed=seed)


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_compare(args) -> int:
    params = _collect_params(args.param, [args.metric],
                             default_metric=args.metric)
    ref = load_pgm(args.ref)
    test = load_pgm(args.test)
    score = prepare(args.metric, ref, params.get(args.metric))(test)
    print(format_number(score.value))
    return 0


def _cmd_trace(args) -> int:
    roi = _parse_roi(args.roi) if args.roi else None
    metrics = _parse_list(args.metrics)
    params = _collect_params(args.param, metrics)
    # the ROI is cut from each integer raster: only the windows become floats
    seq = load_sequence(args.manifest, roi)
    report = run_trace(seq, metrics, metric_params=params)
    write_trace_csv(report, args.out)
    for name, kind in sorted(report.notes.items()):
        print(f"note: {name} column not normalized ({kind})")
    print(args.out)
    return 0


def _cmd_synth_phantom(args) -> int:
    speckle = _speckle(args.alpha, args.seed)
    image = make_phantom(benchmark_phantom_spec(decoy=args.decoy),
                         seed=args.seed)
    if speckle is not None:
        image = apply_speckle(image, speckle)
    save_pgm(image, args.out)
    print(args.out)
    return 0


def _cmd_synth_sequence(args) -> int:
    seq = _benchmark_sequence(args.seed, args.frames, args.alpha,
                              decoy=args.decoy)
    print(write_sequence(seq, args.out_dir, stem=args.stem))
    return 0


def _cmd_synth_sweep(args) -> int:
    specs = [SpeckleSpec(alpha=alpha, seed=args.seed)
             for alpha in _parse_alphas(args.alphas)]
    base = make_phantom(benchmark_phantom_spec(), seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    index_rows = []
    for i, spec in enumerate(specs):
        name = f"speckle_{i:02d}.pgm"
        save_pgm(apply_speckle(base, spec), os.path.join(args.out_dir, name))
        index_rows.append(f"{format_number(spec.alpha)},{name}\n")
    save_pgm(base, os.path.join(args.out_dir, "clean.pgm"))
    index = os.path.join(args.out_dir, "index.csv")
    with open(index, "w", encoding="ascii") as fh:
        fh.write("alpha,filename\n")
        fh.writelines(index_rows)
    print(index)
    return 0


def _cmd_track(args) -> int:
    stray = [f"--{name.replace('_', '-')}" for name in _RESET_ONLY
             if getattr(args, name) is not None]
    if stray and not args.reset:
        raise InvalidParamsError(f"{', '.join(stray)}: used only with --reset")
    reset = _reset_config_from(args) if args.reset else None
    seq = load_sequence(args.manifest)
    result = track(args.tracker, seq, reset=reset)
    write_track_csv(result, args.out)
    print(args.out)
    return 0


def _cmd_study_correlation(args) -> int:
    metrics = _parse_list(args.metrics)
    roi = _parse_roi(args.roi) if args.roi else None
    params = _collect_params(args.param, metrics)
    if args.manifest:
        seq = load_sequence(args.manifest)
    else:
        seq = _benchmark_sequence(args.seed, args.frames, args.alpha)
    report = run_correlation_study(seq, metrics, roi=roi, metric_params=params)
    write_correlation_json(report, args.out)
    if args.trace_out:
        write_trace_csv(report.trace, args.trace_out)
    print(args.out)
    return 0


def _cmd_study_noise_sweep(args) -> int:
    sweep = run_noise_sweep(benchmark_phantom_spec(),
                            _parse_alphas(args.alphas),
                            _parse_list(args.metrics),
                            seeds=args.seeds, seed=args.seed)
    write_sweep_csv(sweep, args.out)
    print(args.out)
    return 0


def _cmd_study_tracking(args) -> int:
    if not 0 <= args.hit_frame < args.frames:
        raise InvalidParamsError(
            f"--hit-frame {args.hit_frame} is not a frame of --frames "
            f"{args.frames}: it must lie in [0, {args.frames})")
    seq = _benchmark_sequence(args.seed, args.frames, args.alpha, decoy=True)
    if args.reset_metric in (None, "cwssim"):
        # the study's CW-SSIM pyramid depth; a --reset-param levels=N comes
        # after it and so overrides it
        args.reset_param = ["cwssim:levels=3", *(args.reset_param or [])]
    reset = _reset_config_from(args)
    # the decoy disc is scenery for the injected jump, so only the true disc
    # is tracked
    comparisons = run_tracking_study(
        seq, _parse_list(args.trackers), reset, init=seq.landmarks[0][:1],
        truth=tuple(marks[:1] for marks in seq.landmarks),
        disturbances={args.hit_frame: (args.hit_dx, 0.0)})
    write_tracking_summary_csv(comparisons, args.out)
    if args.frames_out:
        stem, ext = os.path.splitext(args.frames_out)
        for cmp in comparisons:
            suffix = f"_{cmp.tracker}" if len(comparisons) > 1 else ""
            write_tracking_frames_csv(cmp, f"{stem}{suffix}{ext}")
    print(args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring


def _add_reset_options(parser):
    parser.add_argument("--reset-roi",
                        help="similarity window as x,y,half_w,half_h")
    parser.add_argument("--reset-metric", choices=_GATE_METRICS,
                        help="reset metric (default cwssim)")
    parser.add_argument("--reset-param", action="append", metavar="KEY=VALUE",
                        help="reset-metric parameter (repeatable)")
    parser.add_argument("--tau", type=float,
                        help="fixed reset threshold in (0, 1]")
    parser.add_argument("--calibrate", type=int, metavar="C",
                        help="derive the threshold from the first C frames")


# Built once per process: parsing leaves the parser as it was, and every
# parse makes its own namespace and lists.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usiq",
        description="Similarity metrics, speckle benchmarks, and landmark "
                    "tracking with similarity-triggered reset.")
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="score one image pair")
    compare.add_argument("ref")
    compare.add_argument("test")
    compare.add_argument("--metric", required=True, choices=sorted(METRICS))
    compare.add_argument("--param", action="append", metavar="KEY=VALUE")
    compare.set_defaults(fn=_cmd_compare)

    trace = sub.add_parser("trace", help="per-frame similarity trace")
    trace.add_argument("--manifest", required=True)
    trace.add_argument("--metrics", required=True,
                       help="comma-separated metric ids")
    trace.add_argument("--roi", help="x,y,half_w,half_h")
    trace.add_argument("--param", action="append",
                       metavar="METRIC:KEY=VALUE")
    trace.add_argument("--out", required=True)
    trace.set_defaults(fn=_cmd_trace)

    synth = sub.add_parser("synth", help="generate benchmark data")
    synth_sub = synth.add_subparsers(dest="synth_command", required=True)
    phantom = synth_sub.add_parser("phantom", help="one phantom image")
    phantom.add_argument("--out", required=True)
    phantom.add_argument("--seed", type=int, default=0)
    phantom.add_argument("--alpha", type=float, default=0.0)
    phantom.add_argument("--decoy", action="store_true")
    phantom.set_defaults(fn=_cmd_synth_phantom)
    sequence = synth_sub.add_parser("sequence", help="periodic benchmark")
    sequence.add_argument("--out-dir", required=True)
    sequence.add_argument("--seed", type=int, default=0)
    sequence.add_argument("--frames", type=int, default=90)
    sequence.add_argument("--alpha", type=float, default=0.3)
    sequence.add_argument("--decoy", action="store_true")
    sequence.add_argument("--stem", default="frame")
    sequence.set_defaults(fn=_cmd_synth_sequence)
    sweep = synth_sub.add_parser("sweep", help="speckled phantom series")
    sweep.add_argument("--out-dir", required=True)
    sweep.add_argument("--alphas", required=True)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.set_defaults(fn=_cmd_synth_sweep)

    track_cmd = sub.add_parser("track", help="run one tracker over a manifest")
    track_cmd.add_argument("--manifest", required=True)
    track_cmd.add_argument("--tracker", required=True, choices=tuple(TRACKERS))
    track_cmd.add_argument("--reset", action="store_true")
    _add_reset_options(track_cmd)
    track_cmd.add_argument("--out", required=True)
    track_cmd.set_defaults(fn=_cmd_track)

    study = sub.add_parser("study", help="packaged experiment protocols")
    study_sub = study.add_subparsers(dest="study_command", required=True)

    correlation = study_sub.add_parser(
        "correlation", help="metric-vs-motion correlation report")
    correlation.add_argument("--manifest",
                             help="use this sequence instead of synthesizing")
    correlation.add_argument("--seed", type=int, default=0)
    correlation.add_argument("--frames", type=int, default=90)
    correlation.add_argument("--alpha", type=float, default=0.3)
    correlation.add_argument("--metrics", default=",".join(METRICS))
    correlation.add_argument("--roi", help="x,y,half_w,half_h")
    correlation.add_argument("--param", action="append",
                             metavar="METRIC:KEY=VALUE")
    correlation.add_argument("--out", required=True)
    correlation.add_argument("--trace-out")
    correlation.set_defaults(fn=_cmd_study_correlation)

    noise = study_sub.add_parser("noise-sweep",
                                 help="metric means across speckle levels")
    noise.add_argument("--alphas",
                       default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    noise.add_argument("--metrics", default=",".join(METRICS))
    noise.add_argument("--seeds", type=int, default=5)
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--out", required=True)
    noise.set_defaults(fn=_cmd_study_noise_sweep)

    tracking = study_sub.add_parser(
        "tracking", help="bare versus reset-wrapped tracking comparison")
    tracking.add_argument("--trackers", default=",".join(TRACKERS))
    tracking.add_argument("--seed", type=int, default=0)
    tracking.add_argument("--frames", type=int, default=90)
    tracking.add_argument("--alpha", type=float, default=0.3)
    tracking.add_argument("--hit-frame", type=int, default=15)
    tracking.add_argument("--hit-dx", type=float, default=100.0)
    _add_reset_options(tracking)
    tracking.add_argument("--out", required=True)
    tracking.add_argument("--frames-out")
    tracking.set_defaults(fn=_cmd_study_tracking, calibrate=28,
                          reset_roi="108,128,32,32")

    return parser


# glibc's malloc gives the freed top of its heap back to the system once it
# passes about twice the largest block lately freed (1 MB for a 256x256
# frame), and faults it in afresh when the heap grows again. The tracking
# study frees and rebuilds a working set of several MB at every scorer stack,
# which costs about 40k minor faults per 90-frame study, and the time they
# take follows the load on the host's memory. M_TOP_PAD makes the heap keep
# 64 MiB of slack on top whenever it grows or is trimmed. Other C libraries
# lack mallopt or ignore the setting.
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 64 << 20


def _keep_heap_slack() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_heap_slack()
    try:
        _reject_nul(args)
        return args.fn(args)
    except UsiqError as exc:
        print(f"{exc.kind}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
