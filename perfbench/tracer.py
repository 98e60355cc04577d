"""Outside-in tracer for the seven usiq layers.

Every public function of ``usiq.cli``, ``harness``, ``tracking``, ``synth``,
``metrics``, ``pyramid`` and ``image`` is wrapped from here, and the wrapper
is bound wherever a ``usiq`` namespace (or a module-level dict such as the
``METRICS`` registry) holds the original. ``uninstall`` puts every original
back. The program itself is not modified.

Spans stay in memory as ``[name, start_ns, end_ns, parent, op, probe_ns,
info]``. A probe is bookkeeping done inside a span (input hashing, file
sizes); its time is measured and kept out of the layer self times. Self time
is derived afterwards: a span's duration minus its children's durations and
its probe time.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "harness", "tracking", "synth", "metrics", "pyramid", "image")

# metric function name -> registry id
METRIC_IDS = {"mse": "mse", "psnr": "psnr", "ssim": "ssim", "ms_ssim": "msssim",
              "cw_ssim": "cwssim", "vif": "vif"}

# per-layer metrics that are exact counts: two runs of the same code and seed
# must report identical values
EXACT_SUFFIXES = (".calls", ".repeat_ratio", ".ref_reuse_ratio", ".reeval_ratio",
                  ".reset_evals", ".reset_events", ".bytes_written", ".bytes_read",
                  ".bytes")

# Layer self times plus probe time must cover the op's wall time to within
# this share; the rest is time inside the op but outside every layer.
SELF_TIME_TOLERANCE = 0.01

def unit_of(metric: str) -> str:
    if metric.endswith("self_s"):
        return "s"
    if metric.endswith(("ms_per_call", "ms_per_frame")):
        return "ms"
    if "bytes" in metric:
        return "B"
    if metric.endswith(("_ratio", ".share")):
        return "ratio"
    return "count"


_NAME, _START, _END, _PARENT, _OP, _PROBE, _INFO = range(7)


def _digest(image) -> bytes:
    pixels = image.pixels
    h = hashlib.blake2b(repr(pixels.shape).encode(), digest_size=16)
    h.update(pixels)
    return h.digest()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _params_key(args, kwargs, first_param):
    return repr(args[first_param:]) + repr(sorted(kwargs.items()))


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._op = -1
        self._seen = {}
        self._bindings = []
        self._probes = {
            "pyramid.decompose": (self._before_decompose, None),
            "metrics.compute_metric": (self._before_compute_metric, None),
            "tracking.ncc_track": (self._tracker_info("ncc", 0), None),
            "tracking.mean_shift_track": (self._tracker_info("meanshift", 0), None),
            "tracking.track_with_reset": (self._tracker_info(None, 1),
                                          self._after_track_with_reset),
            "image.load_pgm": (self._file_read, None),
            "image.load_manifest": (self._file_read, None),
            "image.save_pgm": (None, self._file_written("image.bytes_written")),
            "image.save_manifest": (None, self._file_written("image.bytes_written")),
        }
        for fn_name in METRIC_IDS:
            self._probes[f"metrics.{fn_name}"] = (self._before_metric, None)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the seven layers and rebind it."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"usiq.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and type(value) is types.FunctionType
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        for name, module in list(sys.modules.items()):
            if name != "usiq" and not name.startswith("usiq."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if isinstance(value, dict) and key != "__builtins__":
                    for dkey, dvalue in list(value.items()):
                        self._rebind(value, dkey, dvalue, wrappers)
                else:
                    self._rebind(namespace, key, value, wrappers)

    def _rebind(self, container, key, value, wrappers):
        if type(value) is types.FunctionType and id(value) in wrappers:
            original, wrapper = wrappers[id(value)]
            if original is value:
                container[key] = wrapper
                self._bindings.append((container, key, original, wrapper))

    def uninstall(self) -> None:
        for container, key, original, wrapper in reversed(self._bindings):
            if container[key] is not wrapper:
                raise RuntimeError(f"binding {key!r} changed while traced")
            container[key] = original
        self._bindings.clear()

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before, after = self._probes.get(name, (None, None))
        if name.startswith("harness.write_"):
            after = self._file_written("harness.emit.bytes")

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self._op, 0, None]
            stack.append(len(spans))
            spans.append(span)
            start = clock()
            try:
                if before is None and after is None:
                    return fn(*args, **kwargs)
                probe_start = clock()
                if before is not None:
                    before(span, args, kwargs)
                probe = clock() - probe_start
                result = fn(*args, **kwargs)
                if after is not None:
                    probe_start = clock()
                    after(span, args, kwargs, result)
                    probe += clock() - probe_start
                span[_PROBE] = probe
                return result
            finally:
                span[_END] = clock()
                span[_START] = start
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op; waste counters look for repeats within it."""
        self._op = op_id
        self._seen = {"decompose": set(), "ref": set()}
        span = ["op", 0, 0, -1, op_id, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter_ns()
        try:
            yield
        finally:
            span[_END] = time.perf_counter_ns()
            self._stack.pop()
            self._op = -1

    # -- probes ------------------------------------------------------------

    def _before_decompose(self, span, args, kwargs):
        key = (_digest(_arg(args, kwargs, 0, "image")), _params_key(args, kwargs, 1))
        self._count_repeat("decompose", key, "pyramid.decompose.repeats")

    def _before_metric(self, span, args, kwargs):
        key = (span[_NAME], _digest(_arg(args, kwargs, 0, "ref")),
               _params_key(args, kwargs, 2))
        self._count_repeat("ref", key, "metrics.ref_reuses")

    def _count_repeat(self, kind, key, counter):
        seen = self._seen[kind]
        if key in seen:
            self.counts[counter] += 1
        else:
            seen.add(key)

    def _before_compute_metric(self, span, args, kwargs):
        """Similarity evaluations made by the reset machinery, and those that
        re-score a pair already scored under the same reset-wrapped run."""
        parent = self.spans[span[_PARENT]][_NAME] if span[_PARENT] >= 0 else ""
        if not parent.startswith("tracking."):
            return
        scope = next((i for i in reversed(self._stack)
                      if self.spans[i][_NAME] == "tracking.track_with_reset"), -1)
        key = (scope, _arg(args, kwargs, 0, "name"),
               _digest(_arg(args, kwargs, 1, "ref")),
               _digest(_arg(args, kwargs, 2, "test")), _params_key(args, kwargs, 3))
        self.counts["tracking.reset_evals"] += 1
        self._count_repeat("ref", ("reset",) + key, "tracking.reevals")

    def _tracker_info(self, tracker, seq_index):
        def before(span, args, kwargs):
            name = tracker or _arg(args, kwargs, 0, "tracker")
            span[_INFO] = (name, len(_arg(args, kwargs, seq_index, "seq")))
        return before

    def _after_track_with_reset(self, span, args, kwargs, result):
        self.counts["tracking.reset_events"] += len(result.reset_events)

    def _file_read(self, span, args, kwargs):
        self.counts["image.bytes_read"] += os.path.getsize(
            _arg(args, kwargs, 0, "path"))

    def _file_written(self, counter):
        """Probe for ``writer(data, path)``: add the written file's size."""
        def after(span, args, kwargs, result):
            self.counts[counter] += os.path.getsize(_arg(args, kwargs, 1, "path"))
        return after

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time of every span in ns, after checking that children nest."""
        spans = self.spans
        child = [0] * len(spans)
        for span in spans:
            parent = span[_PARENT]
            if parent < 0:
                continue
            outer = spans[parent]
            if not (outer[_START] <= span[_START] <= span[_END] <= outer[_END]
                    and outer[_OP] == span[_OP]):
                raise AssertionError(f"span {span[_NAME]} does not nest in "
                                     f"{outer[_NAME]}")
            child[parent] += span[_END] - span[_START]
        return [span[_END] - span[_START] - child[i] - span[_PROBE]
                for i, span in enumerate(spans)]

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-layer metrics averaged per op over the traced ops."""
        spans = self.spans
        own = self.self_times()
        calls, self_ns = Counter(), Counter()
        layer_ns = Counter()
        op_wall, op_covered = Counter(), Counter()
        tracker_ns, tracker_frames = Counter(), Counter()
        for span, ns in zip(spans, own):
            name = span[_NAME]
            if name == "op":
                op_wall[span[_OP]] += span[_END] - span[_START]
                continue
            op_covered[span[_OP]] += ns + span[_PROBE]
            calls[name] += 1
            self_ns[name] += ns
            layer_ns[name.split(".", 1)[0]] += ns
            if span[_INFO] is not None:
                tracker, frames = span[_INFO]
                tracker_ns[tracker] += ns
                tracker_frames[tracker] += frames
        for op, wall in op_wall.items():
            if abs(wall - op_covered[op]) > SELF_TIME_TOLERANCE * wall:
                raise AssertionError(f"layer self times cover "
                                     f"{op_covered[op] / wall:.4f} of op {op}")
        wall_ns = sum(op_wall.values())

        def per_op(value):
            return value / n_ops

        def ms_per(ns, count):
            return ns / 1e6 / count if count else 0.0

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = per_op(layer_ns[layer] / 1e9)
            out[f"{layer}.share"] = layer_ns[layer] / wall_ns
        decompose = calls["pyramid.decompose"]
        out["pyramid.decompose.calls"] = per_op(decompose)
        out["pyramid.decompose.ms_per_call"] = ms_per(self_ns["pyramid.decompose"],
                                                      decompose)
        out["pyramid.decompose.repeat_ratio"] = ratio(
            self.counts["pyramid.decompose.repeats"], decompose)
        metric_calls = 0
        for fn_name, metric_id in METRIC_IDS.items():
            n = calls[f"metrics.{fn_name}"]
            metric_calls += n
            out[f"metrics.{metric_id}.calls"] = per_op(n)
            out[f"metrics.{metric_id}.self_ms_per_call"] = ms_per(
                self_ns[f"metrics.{fn_name}"], n)
        out["metrics.ref_reuse_ratio"] = ratio(self.counts["metrics.ref_reuses"],
                                               metric_calls)
        for tracker in ("ncc", "meanshift"):
            out[f"tracking.{tracker}.ms_per_frame"] = ms_per(
                tracker_ns[tracker], tracker_frames[tracker])
        out["tracking.calibrate_threshold.self_s"] = per_op(
            self_ns["tracking.calibrate_threshold"] / 1e9)
        evals = self.counts["tracking.reset_evals"]
        out["tracking.reset_evals"] = per_op(evals)
        out["tracking.reeval_ratio"] = ratio(self.counts["tracking.reevals"], evals)
        out["tracking.reset_events"] = per_op(self.counts["tracking.reset_events"])
        for fn_name in ("make_phantom", "apply_speckle"):
            out[f"synth.{fn_name}.calls"] = per_op(calls[f"synth.{fn_name}"])
            out[f"synth.{fn_name}.self_s"] = per_op(self_ns[f"synth.{fn_name}"] / 1e9)
        for fn_name in ("save_pgm", "load_pgm", "crop"):
            out[f"image.{fn_name}.calls"] = per_op(calls[f"image.{fn_name}"])
        out["image.bytes_written"] = per_op(self.counts["image.bytes_written"])
        out["image.bytes_read"] = per_op(self.counts["image.bytes_read"])
        emit_ns = sum(ns for name, ns in self_ns.items()
                      if name.startswith(("harness.write_", "harness.format_number")))
        out["harness.emit.self_s"] = per_op(emit_ns / 1e9)
        out["harness.emit.bytes"] = per_op(self.counts["harness.emit.bytes"])
        return out

    def dump_spans(self, path: str) -> None:
        """Write spans as tab-separated lines, times relative to the first."""
        base = self.spans[0][_START] if self.spans else 0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\top\tprobe_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[_NAME]}\t{s[_START] - base}\t{s[_END] - base}"
                         f"\t{s[_PARENT]}\t{s[_OP]}\t{s[_PROBE]}\n")
