"""Span tracing of billiard_lens from outside the package.

`install` replaces the public functions and obstacle/chain methods it lists
with wrappers that record one span per call (name, start, end, parent) and
a few work counts. Nothing under `src/` changes: the
wrappers are set on the imported modules and classes at run time.

Only the callables that feed a per-layer metric (plus `cli.main`, the root
of the CLI workloads) are wrapped. Leaf helpers such as `canonical_json`,
`tangent_basis` or the rng stay inside the self time of their caller, so
serialization time lands in `table_to_jsonl` and random draws in
`sample_phase_sphere`.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

STATUSES = ("free", "scattered", "trapped", "gliding_rejected", "tangent_flagged", "error")


class Recorder:
    """In-memory span store plus work counters, cleared per workload pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.paused = False
        self.passes: list[dict] = []  # kept spans of finished passes, written out at the end
        self.reset()

    def reset(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, work=None):
        nid = self.intern(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            idx = len(rec.start)
            rec.start.append(0.0)
            rec.end.append(0.0)
            rec.name.append(nid)
            rec.parent.append(rec._stack[-1])
            rec._stack.append(idx)
            out = err = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = exc
                raise
            finally:
                rec.end[idx] = time.perf_counter()
                rec.start[idx] = t0
                rec._stack.pop()
                if work is not None:
                    work(rec.counts, args, out, err)

        return traced

    def finish_pass(self, wall_s: float) -> dict:
        """Aggregate the spans of one pass into per-layer figures and keep
        the raw spans for `save`."""
        start = np.frombuffer(self.start, dtype=float).copy()
        end = np.frombuffer(self.end, dtype=float).copy()
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        n_names = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        self_by = np.bincount(name, weights=self_t, minlength=n_names)
        calls_by = np.bincount(name, minlength=n_names)
        out = {
            "wall_s": wall_s,
            "self_s": {n: float(self_by[i]) for i, n in enumerate(self.names)},
            "calls": {n: int(calls_by[i]) for i, n in enumerate(self.names)},
            "counts": dict(self.counts),
            "covered_s": float(dur[~has_parent].sum()),
            "trace_us": (dur[name == self._ids.get("flow.trace", -1)] * 1e6).tolist(),
        }
        self.passes.append({"start": start, "end": end, "name": name, "parent": parent})
        self.reset()
        return out

    def save(self, path):
        """Write every recorded span: arrays concatenated over passes, with
        the pass index and parent indices local to their pass."""
        cols = {k: np.concatenate([p[k] for p in self.passes]) for k in ("start", "end", "name", "parent")}
        cols["pass_index"] = np.concatenate(
            [np.full(p["name"].size, k, dtype=np.int32) for k, p in enumerate(self.passes)])
        np.savez(path, names=np.array(self.names), **cols)


# -- work counters -------------------------------------------------------------


def _count_roots(counts, args, out, exc):
    if exc is None:
        counts["geometry.ray_roots.closed_form" if out is not None else "geometry.ray_roots.iterative"] += 1


def _count_points(metric):
    def work(counts, args, out, exc):
        counts[metric] += int(np.atleast_2d(np.asarray(args[1])).shape[0])
    return work


def _count_bytes(counts, args, out, exc):
    if exc is None:
        counts["lens.table_to_jsonl.bytes"] += len(out.encode("utf-8"))


def _count_trajectory(classify):
    def work(counts, args, out, exc):
        if exc is not None:
            counts["flow.status.error"] += 1
            return
        counts["flow.events"] += len(out.events)
        counts["flow.status." + classify(out)] += 1
    return work


def install(rec: Recorder):
    """Wrap the traced callables of an imported billiard_lens. A callable
    that no longer exists raises, rather than leaving its layer at zero."""
    import billiard_lens
    from billiard_lens import cli, curves, flow, geometry, lens, variation

    modules = [billiard_lens, cli, curves, flow, geometry, lens, variation]
    functions = [
        (cli, "main", "cli.main", None),
        (lens, "sample_phase_sphere", "lens.sample_phase_sphere", None),
        (lens, "build_lens_table", "lens.build_lens_table", None),
        (lens, "table_to_jsonl", "lens.table_to_jsonl", _count_bytes),
        (lens, "table_to_csv", "lens.table_to_csv", None),
        (lens, "table_from_jsonl", "lens.table_from_jsonl", None),
        (lens, "compare_lens", "lens.compare_lens", None),
        (lens, "estimate_trapped", "lens.estimate_trapped", None),
        (lens, "boundary_distance", "lens.boundary_distance", None),
        # trace() checks the entry and calls trace_phase(), the event loop that
        # the finite-difference probes also call directly: one span per ray
        (flow, "trace_phase", "flow.trace", _count_trajectory(lens.classify_trajectory)),
        (geometry, "validate_scene", "geometry.validate_scene", None),
        (geometry, "surface_frame", "geometry.surface_frame", None),
        (variation, "flow_differentials", "variation.flow_differentials", None),
        (variation, "propagate_free", "variation.propagate_free", None),
        (variation, "propagate_reflection", "variation.propagate_reflection", None),
        (variation, "fd_flow_jacobian", "variation.fd_flow_jacobian", None),
        (variation, "regularity_test", "variation.regularity_test", None),
        (variation, "conjugate_test", "variation.conjugate_test", None),
    ]
    methods = [
        ("ray_roots", _count_roots),
        ("implicit_batch", _count_points("geometry.implicit_batch.points")),
        ("implicit_grad", None),
        ("gradient", None),
    ]
    for module, attr, name, work in functions:
        fn = getattr(module, attr)
        traced = rec.wrap(fn, name, work)
        for mod in modules:  # also rebinds `from .x import f` copies
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, traced)
    obstacle_classes = [c for c in vars(geometry).values()
                        if isinstance(c, type) and issubclass(c, geometry.Obstacle)]
    for meth, work in methods:
        owners = [c for c in obstacle_classes if meth in vars(c)]
        if not owners:
            raise AttributeError(f"no obstacle class of billiard_lens.geometry defines {meth}")
        for cls in owners:
            setattr(cls, meth, rec.wrap(vars(cls)[meth], "geometry." + meth, work))
    chain = curves.CurveChain
    chain.closest_batch = rec.wrap(vars(chain)["closest_batch"], "curves.closest_batch",
                                   _count_points("curves.closest_batch.points"))


# -- per-layer metrics ---------------------------------------------------------

SELF_TIMES = (
    "cli.main", "lens.sample_phase_sphere", "lens.build_lens_table", "lens.table_to_jsonl",
    "lens.table_to_csv", "lens.table_from_jsonl", "lens.compare_lens", "lens.estimate_trapped",
    "lens.boundary_distance", "geometry.validate_scene", "flow.trace", "geometry.ray_roots",
    "geometry.implicit_batch", "geometry.implicit_grad", "geometry.gradient",
    "geometry.surface_frame", "curves.closest_batch", "variation.flow_differentials",
    "variation.propagate_reflection", "variation.fd_flow_jacobian", "variation.regularity_test",
    "variation.conjugate_test",
)
CALLS = (
    "flow.trace", "geometry.ray_roots", "geometry.implicit_batch", "geometry.implicit_grad",
    "curves.closest_batch", "variation.propagate_free", "variation.propagate_reflection",
)
WORK = (
    "lens.table_to_jsonl.bytes", "geometry.ray_roots.closed_form", "geometry.ray_roots.iterative",
    "geometry.implicit_batch.points", "curves.closest_batch.points",
) + tuple("flow.status." + s for s in STATUSES)


def pass_counts(agg: dict) -> dict:
    """The exact (repeatable) counts of one traced pass."""
    out = {f"{n}.calls": agg["calls"].get(n, 0) for n in CALLS}
    out.update({k: agg["counts"].get(k, 0) for k in WORK})
    out["flow.events"] = agg["counts"].get("flow.events", 0)
    return out


def layer_metrics(aggs: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics of a traced run: counts of the first pass (the
    caller checks that every pass repeats them), times as medians over
    passes; `overhead_s` is traced minus untraced `wall_s`."""
    counts = pass_counts(aggs[0])
    m = {}
    for n in SELF_TIMES:
        m[f"{n}.self_s"] = (float(np.median([a["self_s"].get(n, 0.0) for a in aggs])), "s")
    for k, v in counts.items():
        if k != "flow.events":
            m[k] = (v, "bytes" if k.endswith(".bytes") else "count")
    rays = counts["flow.trace.calls"]
    events = counts["flow.events"]
    m["flow.events_per_ray"] = (events / rays if rays else 0.0, "events/ray")
    m["curves.closest_batch.points_per_event"] = (
        counts["curves.closest_batch.points"] / events if events else 0.0, "points/event")
    trace_us = np.concatenate([np.asarray(a["trace_us"]) for a in aggs])
    m["flow.trace.p50_us"] = (float(np.percentile(trace_us, 50)) if trace_us.size else 0.0, "us")
    m["flow.trace.p99_us"] = (float(np.percentile(trace_us, 99)) if trace_us.size else 0.0, "us")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.coverage"] = (100.0 * float(np.median([a["covered_s"] / a["wall_s"] for a in aggs])), "%")
    return m
