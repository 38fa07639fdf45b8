"""Derivation DAGs for membership in the ideals Nil U and sqrt U.

A witness is a DAG of constructor applications.  Node ids are dense
integers, children always precede parents, and every node carries a
conclusion, the ring element whose membership it derives:

    Intro(i)                 the i-th generator element
    IntroFamily(j, r)        left_j * r * right_j for the j-th family
    Zero                     0
    Add(l, r)                sum of the two child conclusions
    Mult(z, n, w)            z * conclusion(n) * w
    Red(n, c)                c, provided conclusion(n) = c*c  (nil only)
    Semiprime(b, n, c)       c, provided conclusion(n) = c*b*c for a
                             schematic b foreign to c and the
                             generators  (sqrt only)

Red and Semiprime store their conclusions because a premise does not
determine them (s and -s share a square).  DagBuilder verifies each
side condition at insertion time, so a complete WitnessDag is valid by
construction; the separate checker module re-verifies serialized
certificates from scratch without trusting any of this.

FIELDS is where node structure lives: each kind's fields in constructor
order, with roles.  Each kind is made from its entry; a node is the
tuple of its field values followed by its kind, so it equals only nodes
of the same kind.  Structural code reads FIELDS; code giving meaning
names kinds.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Mapping, Union

from nilcert.record import Record
from nilcert.ring import Poly, Symbol, fresh_schematic, symbols_of

__all__ = [
    "NIL",
    "SQRT",
    "DEFAULT_MAX_NODES",
    "WitnessError",
    "BudgetExceededError",
    "Intro",
    "IntroFamily",
    "Zero",
    "Add",
    "Mult",
    "Red",
    "Semiprime",
    "Node",
    "FIELDS",
    "GeneratorSet",
    "WitnessDag",
    "DagBuilder",
    "conclusion_of",
    "dag_polys",
    "dag_symbols",
    "substitute_schematic",
]

NIL = "nil"
SQRT = "sqrt"

DEFAULT_MAX_NODES = 10**6


class WitnessError(Exception):
    """A constructor application violates its side condition."""


class BudgetExceededError(WitnessError):
    """The node arena outgrew the configured limit."""


# field roles: a node id, a generator or family index, ring data
REF, INDEX, POLY, SYMBOL = "ref", "index", "poly", "symbol"
FIELDS: dict[type, tuple[tuple[str, str], ...]] = {}  # filled by _kind below

_new = tuple.__new__
_NEW = (  # a constructor per arity, so the interpreter binds and counts the fields
    lambda cls: _new(cls, (cls,)),
    lambda cls, a: _new(cls, (a, cls)),
    lambda cls, a, b: _new(cls, (a, b, cls)),
    lambda cls, a, b, c: _new(cls, (a, b, c, cls)),
)


class _Node(Record):
    """A node: its kind's FIELDS values, in order, then the kind itself.
    Every DagBuilder lookup hashes and compares nodes; with the kind in
    the tuple, tuple's own hash and equality tell kinds apart."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = tuple.__eq__, tuple.__ne__, tuple.__hash__
    _format = ""  # the repr, e.g. "Add(left=%r, right=%r)"

    def __getnewargs__(self) -> tuple:
        return self[:-1]

    def __repr__(self) -> str:
        return self._format % self[:-1]


def _kind(name: str, *fields: tuple[str, str]) -> type:
    """The node kind with these (name, role) fields, entered in FIELDS."""
    names = tuple(field for field, _ in fields)
    kind = type(name, (_Node,), {
        "__slots__": (), "_format": f"{name}({', '.join(field + '=%r' for field in names)})",
    })
    kind.__new__ = _NEW[len(names)]
    kind._set_fields(names)
    FIELDS[kind] = fields
    return kind


Intro = _kind("Intro", ("gen_index", INDEX))
IntroFamily = _kind("IntroFamily", ("family_index", INDEX), ("instance", POLY))
Zero = _kind("Zero")
Add = _kind("Add", ("left", REF), ("right", REF))
Mult = _kind("Mult", ("left", POLY), ("inner", REF), ("right", POLY))
Red = _kind("Red", ("premise", REF), ("conclusion", POLY))
Semiprime = _kind("Semiprime", ("bound", SYMBOL), ("premise", REF), ("conclusion", POLY))

Node = Union[Intro, IntroFamily, Zero, Add, Mult, Red, Semiprime]

# each kind's field positions by role
_AT = {
    kind: {role: [i for i, (_, r) in enumerate(fields) if r == role] for _, role in fields}
    for kind, fields in FIELDS.items()
}


def field_getters(role: str) -> dict[type, Callable[[Node], tuple]]:
    """For each kind, a function giving its ``role`` fields as a tuple."""
    getters = {}
    for kind, positions in _AT.items():
        at = positions.get(role, [])
        if len(at) > 1:
            getters[kind] = itemgetter(*at)
        else:  # a slice keeps one position, or none, as a tuple
            getters[kind] = itemgetter(slice(at[0], at[0] + 1) if at else slice(0))
    return getters


def map_fields(node: Node, fns: Mapping[str, Callable]) -> Node:
    """``node`` with ``fns[role]`` applied to each field of that role (role
    by role in the order of ``fns``, fields in order); the node itself when
    it has no field of those roles."""
    values = None
    at = _AT[type(node)]
    for role, fn in fns.items():
        for i in at.get(role, ()):
            if values is None:
                values = list(node)  # the fields, then the kind
            values[i] = fn(values[i])
    return node if values is None else _new(type(node), values)


class GeneratorSet:
    """The generating data of an ideal: finitely many elements plus,
    in the sqrt setting, families {left*r*right : r in the ring}."""

    __slots__ = ("elements", "families")

    def __init__(
        self,
        elements: Iterable[Poly] = (),
        families: Iterable[tuple[Poly, Poly]] = (),
    ):
        self.elements = tuple(elements)
        self.families = tuple((l, r) for l, r in families)

    def validate_concrete(self) -> None:
        """Reject schematic symbols; generators describe fixed elements."""
        for poly in self.all_polys():
            for sym in poly.symbols():
                if sym.is_schematic:
                    raise WitnessError(
                        f"schematic symbol {sym.encode()} in generator set"
                    )

    def all_polys(self) -> Iterable[Poly]:
        yield from self.elements
        for left, right in self.families:
            yield left
            yield right

    def mentions(self, sym: Symbol) -> bool:
        return any(p.mentions(sym) for p in self.all_polys())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.elements == other.elements and self.families == other.families

    def __hash__(self) -> int:
        return hash((self.elements, self.families))

    def __repr__(self) -> str:
        return f"GeneratorSet({list(self.elements)!r}, {list(self.families)!r})"


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
        generators.validate_concrete()
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
        if isinstance(node, Intro):
            if not 0 <= node.gen_index < len(self.generators.elements):
                raise WitnessError(f"generator index {node.gen_index} out of range")
            return self.generators.elements[node.gen_index]
        if isinstance(node, IntroFamily):
            if self.setting != SQRT:
                raise WitnessError("IntroFamily requires the sqrt setting")
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
            if self.setting != NIL:
                raise WitnessError("Red requires the nil setting")
            premise = self._ref(node.premise)
            if premise != node.conclusion * node.conclusion:
                raise WitnessError(
                    "Red premise is not the square of its conclusion"
                )
            return node.conclusion
        if isinstance(node, Semiprime):
            if self.setting != SQRT:
                raise WitnessError("Semiprime requires the sqrt setting")
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
        raise WitnessError(f"unknown node kind {type(node).__name__}")

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


_POLYS = field_getters(POLY)
_SYMBOLS = field_getters(SYMBOL)


def dag_polys(generators: GeneratorSet, claim: Poly, nodes: Iterable[Node]) -> list[Poly]:
    """Every polynomial of a certificate or DAG, shared ones repeated."""
    polys = [*generators.all_polys(), claim]
    for node in nodes:
        polys += _POLYS[type(node)](node)
    return polys


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
    root = _subst_node(dag, dag.root, {sym: value}, builder, {}, taken)
    return builder.build(root)


def _subst_node(
    dag: WitnessDag,
    node_id: int,
    env: Mapping[Symbol, Poly],
    builder: DagBuilder,
    memo: dict,
    taken: dict,
) -> int:
    key = (node_id, frozenset(env.items()))
    hit = memo.get(key)
    if hit is not None:
        return hit
    node = dag.nodes[node_id]
    if isinstance(node, Semiprime):
        bound = node.bound
        inner_env = env
        shadowed = bound in env
        captured = any(image.mentions(bound) for image in env.values())
        if shadowed or captured:
            fresh = fresh_schematic(bound.name, taken)
            inner_env = {**env, bound: Poly.symbol(fresh)}
            bound = fresh
        premise = _subst_node(dag, node.premise, inner_env, builder, memo, taken)
        out = builder.semiprime(bound, premise, node.conclusion.substitute(inner_env))
    else:
        out = builder.add_node(map_fields(node, {
            REF: lambda ref: _subst_node(dag, ref, env, builder, memo, taken),
            POLY: lambda poly: poly.substitute(env),
        }))
    memo[key] = out
    return out
