"""Spans around ctrlorder's public functions, installed from outside the package.

Nothing in the package is edited.  `Tracer.install` replaces every public
function of the layer modules at every module attribute it is bound to (for
example `lie_bracket` lives in both `fields` and `order`, so wrapping only
`fields.lie_bracket` would miss the calls made from `order`), plus the
`Trajectory.write_csv` method; `Tracer.uninstall` puts the originals back.

Each call records one span (name, start, end, parent span, op id) in memory.
Counts that need the returned value (expression sizes, file sizes) are taken
after the span closes, on a clock that is paused meanwhile, so no span's
time includes them.  `layer_metrics` folds the spans into per-op averages.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("system", "expr", "fields", "order", "simulate", "cli")
PACKAGE = "ctrlorder"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent span index or -1, op id)
        self.counts: dict[int, dict[str, int]] = {}  # span index -> counts
        self.op = None
        self._stack: list[int] = []
        self._paused = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self._paused

    def _measure(self, sid: int, measure, args, result) -> None:
        started = time.perf_counter()
        try:
            self.counts[sid] = measure(args, result)
        finally:
            self._paused += time.perf_counter() - started

    def _wrap(self, name: str, fn, measure=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            sid = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.op)
            if measure is not None:
                tracer._measure(sid, measure, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of each layer wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        expr_base = sys.modules[f"{PACKAGE}.expr"].Expr
        measures = {
            "fields.lie_bracket": lambda args, out: _field_sizes(out, expr_base),
            "expr.is_zero": lambda args, out: {"nonzero": int(not out.is_zero)},
            "simulate.integrate_extremal": lambda args, out: {"steps": max(0, out.samples - 1)},
        }
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[fn] = self._wrap(name, fn, measures.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        trajectory = sys.modules[f"{PACKAGE}.simulate"].Trajectory
        original = trajectory.__dict__["write_csv"]
        self._patches.append((trajectory, "write_csv", original))
        trajectory.write_csv = self._wrap(
            "simulate.write_csv", original, lambda args, out: {"bytes": os.path.getsize(args[1])}
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines, times on the tracer's clock."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\top\tparent\tname\tstart_s\tend_s\tcounts\n")
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                extra = ",".join(f"{k}={v}" for k, v in sorted(self.counts.get(sid, {}).items()))
                fh.write(f"{sid}\t{op}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{extra}\n")


def _node_parts(node, names_by_type: dict):
    cls = type(node)
    names = names_by_type.get(cls)
    if names is None:
        if dataclasses.is_dataclass(node):
            names = tuple(f.name for f in dataclasses.fields(node))
        else:
            names = tuple(s for c in cls.__mro__ for s in getattr(c, "__slots__", ()))
        names_by_type[cls] = names
    return [getattr(node, n) for n in names]


def expr_sizes(exprs, expr_base) -> tuple[int, int]:
    """Tree node count and structurally distinct node count over `exprs`."""
    keys: dict = {}
    # id(node) -> (structure id, tree size); the caller holds the nodes alive
    seen: dict[int, tuple[int, int]] = {}
    names_by_type: dict = {}

    def visit(node):
        hit = seen.get(id(node))
        if hit is not None:
            return hit
        leaves, kids = [], []
        for part in _node_parts(node, names_by_type):
            if isinstance(part, expr_base):
                kids.append(visit(part))
            elif isinstance(part, tuple) and part and isinstance(part[0], expr_base):
                kids.extend(visit(p) for p in part)
            else:
                leaves.append(repr(part))
        key = (type(node).__name__, tuple(leaves), tuple(k[0] for k in kids))
        out = (keys.setdefault(key, len(keys)), 1 + sum(k[1] for k in kids))
        seen[id(node)] = out
        return out

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        tree = sum(visit(e)[1] for e in exprs)
    finally:
        sys.setrecursionlimit(limit)
    return tree, len(keys)


def _field_sizes(field, expr_base) -> dict[str, int]:
    tree, unique = expr_sizes(field.components, expr_base)
    return {"out_nodes": tree, "out_unique_nodes": unique}


def layer_metrics(spans, counts, ops: int) -> dict[str, float]:
    """Per-op averages over `ops` traced ops, keyed like the per-layer metrics.

    For every span name N: N.self_s, N.total_s, N.calls and N.<count> for the
    counts taken on its returned values; for every layer L: L.self_s, the
    self time of all its spans; plus fields.ad_pow.hit_ratio (share of ad_pow
    calls that made no lie_bracket call) and
    simulate.integrate_extremal.steps_per_s.  Functions never called have no
    key.
    """
    if ops < 1:
        raise ValueError("no traced ops")
    child_time = [0.0] * len(spans)
    parent_of_bracket: set[int] = set()
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "fields.lie_bracket":
                parent_of_bracket.add(parent)
    sums: dict[str, float] = defaultdict(float)
    ad_hits = 0
    for sid, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - child_time[sid]
        sums[f"{name}.self_s"] += own
        sums[f"{name.partition('.')[0]}.self_s"] += own
        sums[f"{name}.total_s"] += end - start
        sums[f"{name}.calls"] += 1
        for key, value in counts.get(sid, {}).items():
            sums[f"{name}.{key}"] += value
        if name == "fields.ad_pow" and sid not in parent_of_bracket:
            ad_hits += 1
    out = {key: value / ops for key, value in sums.items()}
    if "fields.ad_pow.calls" in sums:
        out["fields.ad_pow.hit_ratio"] = ad_hits / sums["fields.ad_pow.calls"]
    if "simulate.integrate_extremal.steps" in sums:
        out["simulate.integrate_extremal.steps_per_s"] = (
            sums["simulate.integrate_extremal.steps"] / sums["simulate.integrate_extremal.total_s"]
        )
    return out
