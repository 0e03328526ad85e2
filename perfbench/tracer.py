"""In-memory span tracer that patches segshield's public functions from outside.

Spans are recorded at layer boundaries: the names that `segshield.report`
and `segshield.shaper` look up in their own module namespaces, the planner
as `segshield.tracesim` calls it, and the `Trace.total_bytes` property.
Nothing inside the package is edited; `install` swaps names in, and
`uninstall` restores the originals.

Planner calls run tens of thousands of times per experiment, so they are
folded into per-layer counters instead of one span each. Their time is
still charged to the enclosing span as child time, so self times add up to
the wall time of the root span.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class _Frame:
    __slots__ = ("span", "start", "child")

    def __init__(self, span, start):
        self.span = span
        self.start = start
        self.child = 0.0


class Tracer:
    """Spans of one operation at a time. Main thread only."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[_Frame] = []
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 0
        self.op_id = 0
        self.layer_self: dict[str, float] = defaultdict(float)
        self.name_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.keep: dict[str, list] = defaultdict(list)

    def reset(self, op_id: int) -> None:
        """Start a new operation: clear its totals; finished spans are kept."""
        self.op_id = op_id
        for totals in (self.layer_self, self.name_time, self.counts, self.keep):
            totals.clear()

    # -- spans ---------------------------------------------------------------

    def open(self, layer: str, name: str) -> _Frame:
        self._next_id += 1
        parent = self._stack[-1].span["id"] if self._stack else None
        span = {
            "op": self.op_id,
            "id": self._next_id,
            "parent": parent,
            "layer": layer,
            "name": name,
        }
        frame = _Frame(span, time.perf_counter())
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame) -> float:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.span['name']} closed out of order")
        duration = end - frame.start
        own = duration - frame.child
        span = frame.span
        span["start"] = frame.start
        span["end"] = end
        span["self_s"] = own
        self.spans.append(span)
        self.layer_self[span["layer"]] += own
        self.name_time[span["name"]] += duration
        if self._stack:
            self._stack[-1].child += duration
        return duration

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        frame = self.open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(frame)

    def _charge(self, layer: str, name: str, duration: float) -> None:
        """Account a folded call: layer self time, name total, parent child time."""
        self.layer_self[layer] += duration
        self.name_time[name] += duration
        if self._stack:
            self._stack[-1].child += duration

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, module, attr: str, layer: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(layer, name, original, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patch(module, attr, traced)

    def wrap_planner(self, module, attr: str) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            plan = original(*args, **kwargs)
            self._charge("segcore", "segcore.plan", time.perf_counter() - start)
            counts = self.counts
            counts["segcore.plan_calls"] += 1
            counts["segcore.chunks"] += len(plan.lengths)
            counts["segcore.segmented"] += plan.segmented
            return plan

        self._patch(module, attr, traced)

    def wrap_property(self, cls, attr: str, layer: str, name: str) -> None:
        getter = cls.__dict__[attr].fget

        def traced(obj):
            start = time.perf_counter()
            try:
                return getter(obj)
            finally:
                self._charge(layer, name, time.perf_counter() - start)
                self.counts[name + ".calls"] += 1

        self._patch(cls, attr, property(traced, doc=cls.__dict__[attr].__doc__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_experiment(self) -> None:
        """Patch the stage functions `run_experiment` calls."""
        from segshield import report, tracesim

        counts, keep = self.counts, self.keep

        def add(key, value):
            counts[key] += value

        stages = [
            ("synthesize_trace", "tracesim", "tracesim.synth",
             lambda a, r: add("tracesim.synth_records", len(r))),
            ("ingest_trace", "tracesim", "tracesim.ingest",
             lambda a, r: add("tracesim.ingest_records", len(r))),
            ("pad_trace", "tracesim", "tracesim.pad", None),
            ("obfuscate_trace", "tracesim", "tracesim.obfuscate",
             lambda a, r: add("tracesim.obfuscate_records_out", len(r))),
            ("inject_cover_traffic", "tracesim", "tracesim.cover",
             lambda a, r: (add("tracesim.cover_records", len(r.trace) - len(a[0])),
                           add("tracesim.cover_bytes", r.cover_bytes))),
            ("write_trace", "tracesim", "tracesim.write",
             lambda a, r: (add("tracesim.write_records", len(a[0])),
                           keep["written"].append(a[1]))),
            ("extract_windows", "attackeval", "attackeval.windows",
             lambda a, r: add("attackeval.windows", len(r))),
            ("split_dataset", "attackeval", "attackeval.split",
             lambda a, r: (add("attackeval.train_rows", len(r[0])),
                           add("attackeval.test_rows", len(r[1])))),
            ("train_forest", "attackeval", "attackeval.train",
             lambda a, r: keep["forests"].append(r)),
            ("evaluate", "attackeval", "attackeval.predict", None),
            ("write_report", "report", "report.write_report", None),
        ]
        for attr, layer, name, on_result in stages:
            self.wrap(report, attr, layer, name, on_result)
        self.wrap_planner(tracesim, "segment_lengths")
        self.wrap_property(tracesim.Trace, "total_bytes", "tracesim", "tracesim.total_bytes")

    def install_shaper(self) -> None:
        """Patch the planner as `segshield.shaper` calls it."""
        from segshield import shaper

        self.wrap_planner(shaper, "segment_message")


def forest_shape(forests) -> dict[str, int]:
    """Trees, nodes, deepest leaf and distinct split features over forests."""
    trees = nodes = depth = 0
    features: set[int] = set()
    for model in forests:
        trees += model.n_trees
        for root in model.trees:
            todo = [(root, 0)]
            while todo:
                node, level = todo.pop()
                nodes += 1
                depth = max(depth, level)
                if not node.is_leaf:
                    features.add(node.feature)
                    todo.append((node.left, level + 1))
                    todo.append((node.right, level + 1))
    return {"trees": trees, "nodes": nodes, "max_depth": depth, "features_used": len(features)}
