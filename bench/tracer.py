"""Span tracer that attributes command time to nilcert's modules.

The tracer wraps public functions from outside the package; nothing in
``src/`` is edited.  Each wrapped call becomes one span with a name, a
start, an end, its parent span and the id of the command it belongs
to.  Self time (a span's duration minus the time its child spans cover)
and call counts are accumulated as spans close, so totals are exact
however many spans a run produces.  Full span records are kept in
memory only while ``recording`` is set and are written out by the
caller at the end of the run.

A layer is the part of a span name before the first dot: ``cli``,
``lang``, ``certio``, ``checker``, ``witness``, ``transforms``,
``commutativity`` or ``ring``.  The counter hooks a wrapper runs before
and after its span are spans of their own, named ``trace.hooks``, so
their cost is kept out of every layer's self time.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

LAYERS = (
    "cli",
    "lang",
    "certio",
    "checker",
    "witness",
    "transforms",
    "commutativity",
    "ring",
)

HOOKS = "trace.hooks"  # span name of the counter hooks; in no layer

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-name totals: calls, self seconds, counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: dict[str, float] = {}
        # open spans: [name_id, start, covered_by_children, record_id]
        self._stack: list[list] = []
        self.root_s = 0.0  # summed duration of spans with no parent
        self.command = 0
        self.recording = False
        self.records: list[tuple[int, float, float, int, int]] = []

    def name_id(self, name: str) -> int:
        ident = self._index.get(name)
        if ident is None:
            ident = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return ident

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def depth_in(self, layer: str) -> int:
        """Open spans whose name starts with ``layer + '.'``."""
        prefix = layer + "."
        return sum(1 for frame in self._stack if self.names[frame[0]].startswith(prefix))

    def enter(self, ident: int) -> None:
        record = -1
        if self.recording:
            record = len(self.records)
            self.records.append((ident, 0.0, 0.0, -1, self.command))
        self._stack.append([ident, _clock(), 0.0, record])

    def leave(self) -> None:
        end = _clock()
        ident, start, covered, record = self._stack.pop()
        duration = end - start
        self.calls[ident] += 1
        self.self_s[ident] += duration - covered
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_record = parent[3]
        else:
            self.root_s += duration
            parent_record = -1
        if record >= 0:
            self.records[record] = (ident, start, end, parent_record, self.command)

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``before(*args)`` runs just before the span opens and its value
        is handed to ``after(state, result, *args)``, which runs just
        after the span closes.  Each hook runs in a ``trace.hooks`` span
        beside the wrapped one, so its cost lands in neither the wrapped
        span nor the caller's self time.
        """
        ident = self.name_id(name)
        hooks = self.name_id(HOOKS) if before is not None or after is not None else -1
        enter = self.enter
        leave = self.leave

        def traced(*args, **kwargs):
            state = None
            if before is not None:
                enter(hooks)
                try:
                    state = before(*args)
                finally:
                    leave()
            enter(ident)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                enter(hooks)
                try:
                    after(state, result, *args)
                finally:
                    leave()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }


def self_times_from_records(
    records: list[tuple[int, float, float, int, int]], names: list[str]
) -> dict[str, float]:
    """Recompute per-name self time from recorded spans alone."""
    covered = [0.0] * len(records)
    for ident, start, end, parent, _ in records:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for k, (ident, start, end, _, _) in enumerate(records):
        name = names[ident]
        out[name] = out.get(name, 0.0) + (end - start) - covered[k]
    return out


# -- patching nilcert ---------------------------------------------------


class Patches:
    """Install wrappers on nilcert functions and class attributes.

    Several modules import functions by name (``from nilcert.certio
    import deserialize``), so a function is replaced in every loaded
    ``nilcert`` module that binds the same object, not only where it is
    defined.  ``remove`` restores every original.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def function(self, tracer: Tracer, module: str, attr: str, name: str, **hooks) -> None:
        original = getattr(sys.modules[module], attr)
        traced = tracer.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nilcert" or mod_name.startswith("nilcert.")):
                continue
            if getattr(mod, attr, None) is original:
                self._set(mod, attr, traced)

    def method(self, tracer: Tracer, cls: type, attr: str, name: str, **hooks) -> None:
        self._set(cls, attr, tracer.wrap(name, cls.__dict__[attr], **hooks))

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap the public entry points of every nilcert layer."""
    import nilcert.cli  # noqa: F401  (loads every module patched below)
    from nilcert.commutativity import ProofLog
    from nilcert.ring import Poly
    from nilcert.witness import DagBuilder

    one = Poly.one()
    patches = Patches()
    fn = patches.function

    def is_unit(p) -> bool:
        return p is one or (isinstance(p, Poly) and len(p) == 1 and p.terms.get(()) == 1)

    def mul_counts(state, result, a, b):
        if isinstance(b, Poly):
            tracer.count("ring.mul.term_pairs", len(a) * len(b))
            if is_unit(a) or is_unit(b):
                tracer.count("ring.mul.unit_side")

    for op, attr in (
        ("mul", "__mul__"),
        ("add", "__add__"),
        ("sub", "__sub__"),
        ("neg", "__neg__"),
        ("pow", "__pow__"),
        ("eq", "__eq__"),
        ("substitute", "substitute"),
    ):
        hooks = {"after": mul_counts} if op == "mul" else {}
        patches.method(tracer, Poly, attr, f"ring.{op}", **hooks)

    def nodes_before(builder, node):
        return len(builder)

    def add_node_counts(before, result, builder, node):
        if len(builder) == before:
            tracer.count("witness.add_node.shared")

    patches.method(
        tracer, DagBuilder, "add_node", "witness.add_node",
        before=nodes_before, after=add_node_counts,
    )
    fn(tracer, "nilcert.witness", "substitute_schematic", "witness.substitute_schematic")

    fn(tracer, "nilcert.certio", "deserialize", "certio.deserialize",
       after=lambda s, r, data: tracer.count("certio.deserialize.bytes", len(data)))
    fn(tracer, "nilcert.certio", "serialize", "certio.serialize",
       after=lambda s, r, cert: tracer.count("certio.serialize.bytes", len(r)))
    fn(tracer, "nilcert.certio", "dag_from_certificate", "certio.dag_from_certificate")
    fn(tracer, "nilcert.certio", "certificate_from_dag", "certio.certificate_from_dag")

    fn(tracer, "nilcert.checker", "check_certificate", "checker.check",
       after=lambda s, r, cert: tracer.count("checker.check.nodes", len(cert.nodes)))

    def outermost(before, result, *args):
        if tracer.depth_in("transforms") == 0:
            tracer.count("transforms.out_nodes", len(result))

    for name in ("nil_product", "nil_intersect", "sqrt_product", "sqrt_intersect", "permute"):
        fn(tracer, "nilcert.transforms", name, f"transforms.{name}", after=outermost)

    fn(tracer, "nilcert.lang", "parse_problem", "lang.parse")
    fn(tracer, "nilcert.lang", "parse_poly", "lang.parse")
    fn(tracer, "nilcert.lang", "print_poly", "lang.print")

    fn(tracer, "nilcert.commutativity", "xn_demo", "commutativity.xn_demo")
    patches.method(tracer, ProofLog, "render", "commutativity.render")

    fn(tracer, "nilcert.cli", "main", "cli.main")
    return patches
