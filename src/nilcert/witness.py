"""Building derivation DAGs for membership in the ideals Nil U and sqrt U.

A witness is a DAG of the node kinds of ``nilcert.certificate``, where
each kind's fields and the rule it stands for are listed.  Children
always precede parents.  DagBuilder verifies each side condition at
insertion time, so a complete WitnessDag is valid by construction; the
checker re-verifies serialized certificates from scratch without
trusting any of this.
"""

from __future__ import annotations

from typing import Callable, Generator

from nilcert.certificate import (
    DEFAULT_MAX_NODES,
    NIL,
    POLY,
    REF,
    SETTING_OF,
    SQRT,
    SYMBOL,
    Add,
    GeneratorSet,
    Intro,
    IntroFamily,
    Mult,
    Node,
    Red,
    Semiprime,
    Zero,
    dag_polys,
    field_getters,
    map_fields,
)
from nilcert.record import Record
from nilcert.ring import Poly, Symbol, fresh_schematic, symbols_of

__all__ = [
    "DEFAULT_MAX_NODES",
    "WitnessError",
    "BudgetExceededError",
    "WitnessDag",
    "DagBuilder",
    "conclusion_of",
    "dag_symbols",
    "substitute_schematic",
]


class WitnessError(Exception):
    """A constructor application violates its side condition."""


class BudgetExceededError(WitnessError):
    """The node arena outgrew the configured limit."""


class WitnessDag(Record):
    """An immutable, valid-by-construction derivation.

    DagBuilder creates these, checking every invariant (reference
    order, side conditions, cached conclusions) during building, or
    taking them from a verdict the checker accepted (dag_from_certificate).
    """

    __slots__ = ()

    def __new__(cls, setting: str, generators: GeneratorSet, nodes: tuple[Node, ...],
                conclusions: tuple[Poly, ...], root: int):
        return tuple.__new__(cls, (setting, generators, nodes, conclusions, root))

    @property
    def conclusion(self) -> Poly:
        return self.conclusions[self.root]

    def __len__(self) -> int:
        return len(self.nodes)


def conclusion_of(dag: WitnessDag, node_id: int) -> Poly:
    if not 0 <= node_id < len(dag.nodes):
        raise WitnessError(f"dangling node id {node_id}")
    return dag.conclusions[node_id]


def _adder(kind: type) -> Callable[..., int]:
    def add(builder: "DagBuilder", *fields) -> int:
        return builder.add_node(kind(*fields))
    return add


class DagBuilder:
    """Arena for growing a witness one verified node at a time.

    Structurally equal nodes are shared: adding a node that already
    exists returns the old id.  Exceeding ``max_nodes`` raises
    BudgetExceededError rather than thrashing memory.
    """

    def __init__(
        self,
        setting: str,
        generators: GeneratorSet,
        max_nodes: int = DEFAULT_MAX_NODES,
    ):
        if setting not in (NIL, SQRT):
            raise WitnessError(f"unknown setting {setting!r}")
        if setting == NIL and generators.families:
            raise WitnessError("families require the sqrt setting")
        for poly in generators.all_polys():  # generators describe fixed elements
            for sym in poly.symbols():
                if sym.is_schematic:
                    raise WitnessError(f"schematic symbol {sym.encode()} in generator set")
        if max_nodes < 1:
            raise BudgetExceededError("max_nodes must be positive")
        self.setting = setting
        self.generators = generators
        self.max_nodes = max_nodes
        self._nodes: list[Node] = []
        self._conclusions: list[Poly] = []
        self._index: dict[Node, int] = {}

    @classmethod
    def from_dag(cls, dag: WitnessDag, max_nodes: int = DEFAULT_MAX_NODES) -> "DagBuilder":
        """Resume building on top of an existing (trusted) witness."""
        builder = cls(dag.setting, dag.generators, max_nodes)
        for node, conclusion in zip(dag.nodes, dag.conclusions):
            builder._append(node, conclusion)
        return builder

    def __len__(self) -> int:
        return len(self._nodes)

    def conclusion(self, node_id: int) -> Poly:
        return self._conclusions[node_id]

    def _ref(self, node_id: int) -> Poly:
        if not isinstance(node_id, int) or not 0 <= node_id < len(self._nodes):
            raise WitnessError(f"reference to unknown node {node_id}")
        return self._conclusions[node_id]

    def add_node(self, node: Node) -> int:
        existing = self._index.get(node)
        return existing if existing is not None else self._append(node, self._admit(node))

    def _append(self, node: Node, conclusion: Poly) -> int:
        # the one way in for a node not yet present, with its verified conclusion
        if len(self._nodes) >= self.max_nodes:
            raise BudgetExceededError(f"node budget {self.max_nodes} exceeded")
        node_id = self._index[node] = len(self._nodes)
        self._nodes.append(node)
        self._conclusions.append(conclusion)
        return node_id

    def _admit(self, node: Node) -> Poly:
        """Verify the node's side conditions; return its conclusion."""
        kind = type(node)
        if SETTING_OF.get(kind, self.setting) != self.setting:
            raise WitnessError(f"{kind.__name__} requires the {SETTING_OF[kind]} setting")
        if isinstance(node, Intro):
            if not 0 <= node.gen_index < len(self.generators.elements):
                raise WitnessError(f"generator index {node.gen_index} out of range")
            return self.generators.elements[node.gen_index]
        if isinstance(node, IntroFamily):
            if not 0 <= node.family_index < len(self.generators.families):
                raise WitnessError(f"family index {node.family_index} out of range")
            left, right = self.generators.families[node.family_index]
            return left * node.instance * right
        if isinstance(node, Zero):
            return Poly.zero()
        if isinstance(node, Add):
            return self._ref(node.left) + self._ref(node.right)
        if isinstance(node, Mult):
            return node.left * self._ref(node.inner) * node.right
        if isinstance(node, Red):
            premise = self._ref(node.premise)
            if premise != node.conclusion * node.conclusion:
                raise WitnessError(
                    "Red premise is not the square of its conclusion"
                )
            return node.conclusion
        if isinstance(node, Semiprime):
            if not node.bound.is_schematic:
                raise WitnessError("Semiprime bound must be schematic")
            premise = self._ref(node.premise)
            c = node.conclusion
            if premise != c * Poly.symbol(node.bound) * c:
                raise WitnessError(
                    "Semiprime premise is not conclusion*bound*conclusion"
                )
            if c.mentions(node.bound):
                raise WitnessError("Semiprime bound occurs in its conclusion")
            # generators were checked schematic-free at construction, so
            # the bound cannot occur there
            return c
        raise WitnessError(f"unknown node kind {kind.__name__}")

    # Convenience wrappers taking a kind's fields; transforms read better with these.
    intro = _adder(Intro)
    intro_family = _adder(IntroFamily)
    zero = _adder(Zero)
    add = _adder(Add)
    mult = _adder(Mult)
    red = _adder(Red)
    semiprime = _adder(Semiprime)

    def build(self, root: int) -> WitnessDag:
        self._ref(root)
        return WitnessDag(
            setting=self.setting,
            generators=self.generators,
            nodes=tuple(self._nodes),
            conclusions=tuple(self._conclusions),
            root=root,
        )


def induction(fn: Callable[..., Generator], *args):
    """fn(*args), where fn and what it calls are generator functions in which
    ``yield g, *xs`` is the call g(*xs) and ``return`` gives the result.  Each
    distinct call runs once; suspended calls wait on a list, not on frames."""
    memo, result = {}, None
    stack = [((fn, *args), fn(*args))]
    while stack:
        call, gen = stack[-1]
        try:
            inner = gen.send(result)
        except StopIteration as done:
            memo[call] = result = done.value
            stack.pop()
            continue
        if inner not in memo:
            stack.append((inner, inner[0](*inner[1:])))
        result = memo.get(inner)  # None starts a new call
    return result


_REFS = field_getters(REF)
_SYMBOLS = field_getters(SYMBOL)


def dag_symbols(*dags: WitnessDag) -> set[Symbol]:
    """Every symbol of the DAGs' generators and node fields, bounds included, so of every
    conclusion, and of factors that none shows: those of a Mult over Add(s, -s)."""
    polys = [p for dag in dags for p in dag_polys(dag.generators, dag.conclusion, dag.nodes)]
    bounds = {b for dag in dags for node in dag.nodes for b in _SYMBOLS[type(node)](node)}
    return symbols_of(polys) | bounds


def substitute_schematic(
    dag: WitnessDag,
    sym: Symbol,
    value: Poly,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> WitnessDag:
    """Instantiate a schematic symbol throughout a witness.

    Every Poly field is rewritten under sym -> value.  Semiprime bounds are
    renamed to symbols fresh for the witness and the value whenever the
    substitution touches them or could capture a symbol of its values, so the
    result never captures and conclusion_of commutes with the substitution.
    The node count of the tree unfolding is preserved.
    """
    if not sym.is_schematic:
        raise WitnessError("only schematic symbols can be substituted in a witness")
    builder = DagBuilder(dag.setting, dag.generators, max_nodes)
    taken = dict.fromkeys(dag_symbols(dag) | value.symbols())

    def subst(node_id: int, env: frozenset):
        node = dag.nodes[node_id]
        sub = dict(env)
        if isinstance(node, Semiprime):
            bound = node.bound
            if bound in sub or any(image.mentions(bound) for image in sub.values()):
                fresh = fresh_schematic(bound.name, taken)
                sub[bound] = Poly.symbol(fresh)
                bound = fresh
            premise = yield subst, node.premise, frozenset(sub.items())
            return builder.semiprime(bound, premise, node.conclusion.substitute(sub))
        images = {}
        for ref in _REFS[type(node)](node):
            images[ref] = yield subst, ref, env
        return builder.add_node(map_fields(node, {
            REF: images.__getitem__,
            POLY: lambda poly: poly.substitute(sub),
        }))

    return builder.build(induction(subst, dag.root, frozenset({(sym, value)})))
