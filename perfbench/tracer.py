"""Span tracer that wraps the public functions of every loaded `smp` module.

The library binds functions by name (`from .choice import choose`), so one
function object can sit under several module attributes.  `Tracer.install`
finds every `smp.*` attribute bound to a wrapped function by object identity
and replaces each of them, so a moved import cannot silently drop a span.

Spans (name, start, end, parent, op id) are kept in flat arrays while the
run lasts and written out by `Tracer.dump`.  Work counts are taken from the
arguments and return values at the same boundaries (see `_HOOKS`).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

OP_LAYER = "op"  # self time of the benchmark's own op span (capture, etc.)


def _lp_counts(args, kwargs, result, counts):
    lp = args[0] if args else kwargs["lp"]
    counts["simplex.lp_rows"] += len(lp.a_le) + len(lp.a_eq)
    counts["simplex.lp_cols"] += len(lp.objective)
    counts["simplex.le_rows"] += len(lp.a_le)
    counts["simplex.single_var_le_rows"] += sum(
        1 for row in lp.a_le if sum(1 for v in row if v) == 1
    )


def _route_counts(args, kwargs, result, counts):
    avoid = args[3] if len(args) > 3 else kwargs.get("avoid")
    if avoid is None:
        counts["poset.base_route_shifts"] += len(result.steps)
    else:
        counts["poset.avoid_routes"] += 1
        counts["poset.avoid_route_shifts"] += len(result.steps)


def _gauss_counts(args, kwargs, result, counts):
    for vec in result.nullspace or ():
        bits = max((abs(v.numerator).bit_length() for v in vec), default=0)
        if bits > counts["linalg.max_generator_bits"]:
            counts["linalg.max_generator_bits"] = bits


def _oracle_counts(args, kwargs, result, counts):
    box = 1
    for e in args[0].edges:
        box *= int(e.capacity) + 1
    counts["bruteforce.points_scanned"] += box
    counts["bruteforce.stable_found"] += len(result)


def _stability_counts(args, kwargs, result, counts):
    if result is None or not result.stable:
        counts["stability.stability_report.rejected"] += 1


def _cut_counts(args, kwargs, result, counts):
    counts["flow.network_arcs"] += len(args[0].capacity)


def _poset_counts(args, kwargs, result, counts):
    counts["poset.rotations"] += len(result.rotations)


# hook(args, kwargs, result_or_None_if_raised, counts); keyed by span name
_HOOKS = {
    "simplex.simplex_maximize": _lp_counts,
    "poset.run_route": _route_counts,
    "linalg.gaussian_solve": _gauss_counts,
    "bruteforce.oracle_enumerate_stable": _oracle_counts,
    "stability.stability_report": _stability_counts,
    "flow.min_cut": _cut_counts,
    "poset.build_poset": _poset_counts,
}
_HOOK_ON_RAISE = {"stability.stability_report"}


class Tracer:
    """Records nested spans of `smp` calls, grouped under benchmark ops."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_kinds: list[str] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)  # op kind -> counts
        self._stack: list[int] = []
        self._kind = ""
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.op_kinds) - 1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _intern(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def begin_op(self, kind: str) -> int:
        self.op_kinds.append(kind)
        self._kind = kind
        return self._open(self._intern(f"{OP_LAYER}.{kind}"))

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        hook = _HOOKS.get(name)
        on_raise = name in _HOOK_ON_RAISE
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                if on_raise:
                    hook(args, kwargs, None, tracer.counts[tracer._kind])
                raise
            tracer._close(idx)
            if hook is not None:
                hook(args, kwargs, result, tracer.counts[tracer._kind])
            return result

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> int:
        """Wrap every public `smp` function at every `smp.*` binding of it."""
        modules = {n: m for n, m in sys.modules.items() if n == "smp" or n.startswith("smp.")}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ not in modules:
                    continue
                if obj.__name__.startswith("_") or obj.__qualname__ != obj.__name__:
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rpartition(".")[2]
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    # -- analysis -------------------------------------------------------

    def self_times(self) -> array:
        """Each span's duration minus the durations of its child spans."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def summary(self):
        """Per span name: calls and self time; per op kind: self time per layer."""
        own_s = self.self_times()
        calls: Counter = Counter()
        self_s: Counter = Counter()
        layer_by_kind: dict[str, Counter] = defaultdict(Counter)
        calls_by_kind: dict[str, Counter] = defaultdict(Counter)
        for i, own in enumerate(own_s):
            name = self.names[self.name[i]]
            kind = self.op_kinds[self.op[i]]
            calls[name] += 1
            self_s[name] += own
            calls_by_kind[kind][name] += 1
            layer_by_kind[kind][name.partition(".")[0]] += own
        return calls, self_s, calls_by_kind, layer_by_kind

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, op id, op kind."""
        with path.open("w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op", "op_kind"]}) + "\n")
            for i in range(len(self.name)):
                op = self.op[i]
                fh.write(
                    json.dumps(
                        [self.names[self.name[i]], self.start[i], self.end[i],
                         self.parent[i], op, self.op_kinds[op]]
                    )
                    + "\n"
                )
