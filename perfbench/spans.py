"""Span tracing of rdkan from outside the package.

The traced benchmark run replaces public functions of the rdkan modules
with thin wrappers that record one span per call: name, start, end and
the span that was open when the call began.  Spans stay in memory and are
written out once, at the end of the run.  Nothing under src/ knows about
this; uninstalling puts the original functions back.

A name in WRAPPED that the package no longer has is reported as missing,
and every metric built on it reads 0.  A counter hook that no longer fits
a function's signature or result is counted the same way.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# Layer boundaries, "<module>.<function>".  Small helpers called thousands
# of times per map (extract_segment, iou, segment_half) are left out so the
# wrappers stay cheap; their time shows in the caller's self time.
WRAPPED = (
    "radarsim.synth_clean_cube",
    "radarsim.concentrated_peak",
    "radarsim.synth_if_cube",
    "radarsim.load_cube",
    "rdmap.compute_rd_map",
    "rdmap.segment_histogram_map",
    "rdmap.histogram_feature",
    "oscfar.order_statistic_map",
    "oscfar.os_cfar_fire_map",
    "oscfar.empirical_false_alarm_rate",
    "kan.forward",
    "kan.load_model",
    "kan.fit_sparse",
    "kan.fit",
    "kan.prune",
    "kan.loss_and_grad",
    "symbolic.rule_scores",
    "symbolic.builtin_rule",
    "symbolic.snap",
    "pipeline.detect",
    "pipeline.sweep_classify",
    "pipeline.recenter",
    "pipeline.nms",
    "pipeline.segment_detections_to_csv",
    "datasets.build_labeled_segments",
    "datasets.sample_scene",
    "harness.run_monte_carlo",
    "harness.score_kan_trial",
    "harness.score_oscfar_trial",
    "harness.ground_truth_box",
    "cli.main",
    "cli.cmd_detect",
)

ROOT_SPAN = "bench.op"


class Tracer:
    """Records spans for the wrapped functions while installed.

    A span is (name, start, end, parent), parent being the index of the
    enclosing span or -1.  Each benchmark operation runs inside a
    ROOT_SPAN opened by op(), so every span of one operation shares that
    root.  Counters are filled by hooks that look at a call's arguments
    and result, at the same boundary as the span.
    """

    def __init__(self, names=WRAPPED):
        self.names = tuple(names)
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []
        self._margin_floor = 0.0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        self.missing = []
        before, after = self._before_hooks(), self._after_hooks()
        for qualified in self.names:
            module_name, _, attr = qualified.partition(".")
            original = getattr(importlib.import_module(f"rdkan.{module_name}"), attr, None)
            if not callable(original):
                self.missing.append(qualified)
                continue
            wrapper = self._wrap(qualified, original, before.get(qualified), after.get(qualified))
            # modules bind each other's functions by name, so patch every
            # rdkan namespace that holds this function object
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "rdkan" or mod_name.startswith("rdkan.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    def _wrap(self, name, original, before, after):
        signature = inspect.signature(original)
        spans, stack, counters = self.spans, self._stack, self.counters

        def hook(fn, args, kwargs, *result):
            # a hook that no longer fits rdkan's signature or result is
            # counted, never allowed to fail the operation
            try:
                fn(signature.bind(*args, **kwargs), *result)
            except (TypeError, KeyError, AttributeError, IndexError, ValueError):
                counters["hook_errors"] += 1

        def wrapper(*args, **kwargs):
            if before is not None:
                hook(before, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                hook(after, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def op(self):
        """Context manager: one benchmark operation as a root span."""
        return _RootSpan(self)

    # -- counters ------------------------------------------------------

    def _before_hooks(self):
        def detect(bound):
            # the floor pipeline.detect applies: explicit, else calibrated by rule name
            bound.apply_defaults()
            floor = bound.arguments.get("min_margin")
            if floor is None:
                floors = getattr(importlib.import_module("rdkan.pipeline"), "MAP_MARGIN_FLOORS", {})
                floor = floors.get(getattr(bound.arguments.get("classifier"), "name", None), 0.0)
            self._margin_floor = floor

        return {"pipeline.detect": detect}

    def _after_hooks(self):
        c = self.counters

        def segment_histogram_map(bound, result):
            c["segments_tested"] += len(result[0])

        def sweep_classify(bound, result):
            c["sweep_hits"] += len(result.hits(self._margin_floor))

        def detect(bound, result):
            c["detections"] += len(result)

        def empirical_false_alarm_rate(bound, result):
            bound.apply_defaults()
            configs = list(bound.arguments["configs"])
            (n_r, n_d), (w_r, w_d) = bound.arguments["map_shape"], configs[0].window
            c["cfar_maps"] += result[1] // ((n_r - w_r + 1) * (n_d - w_d + 1))

        return {
            "rdmap.segment_histogram_map": segment_histogram_map,
            "pipeline.sweep_classify": sweep_classify,
            "pipeline.detect": detect,
            "oscfar.empirical_false_alarm_rate": empirical_false_alarm_rate,
        }

    # -- summaries -----------------------------------------------------

    def per_name(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all recorded spans.

        Self time is a span's duration minus the time its direct children
        cover; calls on one thread nest and never overlap, so that is the
        sum of the children's durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def calls_under(self, name: str, ancestor: str) -> int:
        """Calls of name with an ancestor span called ancestor."""
        n = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def write(self, path) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps({"missing": self.missing, "counters": dict(self.counters)}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": round(start - t0, 9),
                                     "end": round(end - t0, 9), "parent": parent}) + "\n")


class _RootSpan:
    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        t._stack.pop()
        t.spans[self.index] = (ROOT_SPAN, self.start, end, -1)
        self.seconds = end - self.start
        return False


def self_time_ranking(tracer: Tracer, n_ops: int) -> list:
    """(name, self ms per op) for wrapped names, largest first."""
    rows = tracer.per_name()
    ranking = [(name, row["self_s"] * 1e3 / max(n_ops, 1))
               for name, row in rows.items() if name != ROOT_SPAN]
    return sorted(ranking, key=lambda item: -item[1])


def layer_metrics(tracer: Tracer, n_ops: int, overhead_pct: float) -> dict:
    """Per-layer metrics, name -> (value, unit), normalized per operation.

    Times ending in .ms or .s are inclusive time in that function per
    operation; .us is the mean per call; .calls and plain counts are per
    operation; self_ms is self time per operation.
    """
    rows = tracer.per_name()
    c = tracer.counters
    n = max(n_ops, 1)

    def total(name, scale):
        return rows.get(name, {}).get("total_s", 0.0) * scale / n

    def own(*names):
        return sum(rows.get(name, {}).get("self_s", 0.0) for name in names) * 1e3 / n

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    hf_calls = calls("rdmap.histogram_feature")
    rd_maps = calls("rdmap.compute_rd_map") + c["cfar_maps"]
    return {
        "rdmap.segment_histogram_map.ms": (total("rdmap.segment_histogram_map", 1e3), "ms"),
        "rdmap.segments_tested": (c["segments_tested"] / n, "count"),
        "rdmap.histogram_feature.us": (
            total("rdmap.histogram_feature", 1e6) * n / hf_calls if hf_calls else 0.0, "us"),
        "rdmap.histogram_feature.calls": (hf_calls / n, "count"),
        "rdmap.compute_rd_map.ms": (total("rdmap.compute_rd_map", 1e3), "ms"),
        "radarsim.synth_clean_cube.ms": (total("radarsim.synth_clean_cube", 1e3), "ms"),
        "radarsim.concentrated_peak.ms": (total("radarsim.concentrated_peak", 1e3), "ms"),
        "radarsim.load_cube.ms": (total("radarsim.load_cube", 1e3), "ms"),
        "kan.forward.ms": (total("kan.forward", 1e3), "ms"),
        "kan.load_model.ms": (total("kan.load_model", 1e3), "ms"),
        "symbolic.rule_scores.ms": (total("symbolic.rule_scores", 1e3), "ms"),
        "kan.fit_sparse.s": (total("kan.fit_sparse", 1.0), "s"),
        "kan.loss_and_grad.calls": (calls("kan.loss_and_grad") / n, "count"),
        "symbolic.snap.s": (total("symbolic.snap", 1.0), "s"),
        "datasets.build_labeled_segments.s": (total("datasets.build_labeled_segments", 1.0), "s"),
        "datasets.maps": (
            tracer.calls_under("rdmap.compute_rd_map", "datasets.build_labeled_segments") / n, "count"),
        "pipeline.sweep_hits": (c["sweep_hits"] / n, "count"),
        "pipeline.recenter.calls": (calls("pipeline.recenter") / n, "count"),
        "pipeline.recenter.ms": (total("pipeline.recenter", 1e3), "ms"),
        "pipeline.nms.ms": (total("pipeline.nms", 1e3), "ms"),
        "pipeline.detect.self_ms": (own("pipeline.detect"), "ms"),
        "pipeline.detections": (c["detections"] / n, "count"),
        "pipeline.useful_ratio": (
            c["detections"] / c["sweep_hits"] if c["sweep_hits"] else 0.0, "ratio"),
        "oscfar.order_statistic_map.ms": (total("oscfar.order_statistic_map", 1e3), "ms"),
        "oscfar.sorts_per_map": (
            calls("oscfar.order_statistic_map") / rd_maps if rd_maps else 0.0, "ratio"),
        "oscfar.os_cfar_fire_map.ms": (total("oscfar.os_cfar_fire_map", 1e3), "ms"),
        "harness.trial.ms": (total("harness.run_monte_carlo", 1e3), "ms"),
        "harness.self_ms": (own("harness.run_monte_carlo"), "ms"),
        "cli.detect.self_ms": (own("cli.main", "cli.cmd_detect"), "ms"),
        "trace.overhead_pct": (overhead_pct, "%"),
        "trace.ops": (float(n_ops), "count"),
        "trace.missing": (float(len(tracer.missing) + c["hook_errors"]), "count"),
    }
