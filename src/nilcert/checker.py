"""Re-verify a certificate from raw data.

With ``ring``, ``record`` and ``certificate`` (node kinds, reader and
writer) this module is the trusted kernel, and it imports nothing else
of the package: DagBuilder and the transforms stay outside.  A
certificate is accepted only if every node is re-verified from scratch,
so transforms are free to be clever and wrong, because a bad output
simply fails here.

Reason codes, in the order the phases can report them:

    WRONG_SETTING          node kind (or family data) in the wrong setting
    GEN_INDEX              Intro/IntroFamily index out of range
    BAD_REF                reference or root outside the node array
    SEMIPRIME_SHAPE        bound not schematic, or premise != c*bound*c
    CYCLE                  node waits on a reference cycle (smallest such id)
    RED_SQUARE_MISMATCH    Red premise is not the conclusion's square
    SEMIPRIME_CAPTURE      bound occurs in the conclusion or generators
    CLAIM_MISMATCH         claim differs from the root conclusion

``node_fault`` and ``conclude`` state each node rule once; DagBuilder,
outside the kernel, admits every node it builds through them too.

A schematic symbol occurring in a generator is rejected only when it is
some Semiprime node's bound (the capture condition); a never-bound
schematic generator is semantically just another indeterminate and
cannot make an accepted claim unsound.

A valid verdict also carries the checker's topological order and the
conclusion of every node, so callers reuse this one evaluation.
"""

from __future__ import annotations

from typing import Sequence

from nilcert.certificate import (
    NIL, REF, SETTING_OF, SQRT, Add, Certificate, GeneratorSet, Intro, IntroFamily, Mult, Node, Red,
    Semiprime, Zero, field_getters,
)
from nilcert.record import Record
from nilcert.ring import Poly

__all__ = [
    "BAD_REF",
    "CYCLE",
    "RED_SQUARE_MISMATCH",
    "SEMIPRIME_SHAPE",
    "SEMIPRIME_CAPTURE",
    "WRONG_SETTING",
    "CLAIM_MISMATCH",
    "GEN_INDEX",
    "Verdict",
    "check_certificate",
    "conclude",
    "node_fault",
]

BAD_REF = "BAD_REF"
CYCLE = "CYCLE"
RED_SQUARE_MISMATCH = "RED_SQUARE_MISMATCH"
SEMIPRIME_SHAPE = "SEMIPRIME_SHAPE"
SEMIPRIME_CAPTURE = "SEMIPRIME_CAPTURE"
WRONG_SETTING = "WRONG_SETTING"
CLAIM_MISMATCH = "CLAIM_MISMATCH"
GEN_INDEX = "GEN_INDEX"

_CHILDREN = field_getters(REF)


class Verdict(Record):
    __slots__ = ()
    _compared = 4  # order and conclusions ride along, outside equality, hashing and repr

    def __new__(cls, ok: bool, node: int | None = None, reason: str | None = None, detail: str = "",
                order: tuple[int, ...] = (), conclusions: tuple[Poly, ...] = ()):
        return tuple.__new__(cls, (ok, node, reason, detail, order, conclusions))

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        where = f"node {self.node}" if self.node is not None else "certificate"
        return f"invalid: {where}: {self.reason}: {self.detail}"


def node_fault(node: Node, n: int, setting: str, gens: GeneratorSet) -> tuple[str, str] | None:
    """The structural fault of ``node`` in a certificate of ``n`` nodes, as
    (reason, detail), or None."""
    kind = type(node)
    if kind not in _CHILDREN:
        return WRONG_SETTING, f"unknown node kind {kind.__name__}"
    if SETTING_OF.get(kind, setting) != setting:
        return WRONG_SETTING, f"{kind.__name__} outside {SETTING_OF[kind]} setting"
    if kind is Intro and not (isinstance(node.gen, int) and 0 <= node.gen < len(gens.elements)):
        return GEN_INDEX, f"generator index {node.gen}"
    if kind is IntroFamily and not (isinstance(node.family, int) and 0 <= node.family < len(gens.families)):
        return GEN_INDEX, f"family index {node.family}"
    for ref in _CHILDREN[kind](node):
        if not isinstance(ref, int) or not 0 <= ref < n:
            return BAD_REF, f"reference to unknown node {ref}"
    if kind is Semiprime and not node.bound.is_schematic:
        return SEMIPRIME_SHAPE, "bound symbol is not schematic"


def conclude(node: Node, concl: Sequence[Poly], gens: GeneratorSet) -> tuple[Poly, tuple | None]:
    """The conclusion of ``node``, which has no structural fault, from the
    conclusions ``concl``, and its side condition's fault, or None."""
    if isinstance(node, Intro):
        return gens.elements[node.gen], None
    if isinstance(node, IntroFamily):
        left, right = gens.families[node.family]
        return left * node.instance * right, None
    if isinstance(node, Zero):
        return Poly.zero(), None
    if isinstance(node, Add):
        return concl[node.left] + concl[node.right], None
    if isinstance(node, Mult):
        return node.left * concl[node.inner] * node.right, None
    c = node.conclusion  # Red | Semiprime carry their conclusion
    if isinstance(node, Red):
        if concl[node.premise] != c * c:
            return c, (RED_SQUARE_MISMATCH, "premise is not conclusion^2")
    elif concl[node.premise] != c * Poly.symbol(node.bound) * c:
        return c, (SEMIPRIME_SHAPE, "premise is not conclusion*bound*conclusion")
    elif c.mentions(node.bound):
        return c, (SEMIPRIME_CAPTURE, "bound occurs in the conclusion")
    elif any(p.mentions(node.bound) for p in gens.all_polys()):
        return c, (SEMIPRIME_CAPTURE, "bound occurs in the generators")
    return c, None


def check_certificate(cert: Certificate) -> Verdict:
    """Decide validity of untrusted certificate data.

    Pure and deterministic: the verdict (including which node is
    blamed) is a function of the certificate content alone.  Structural
    problems are reported in ascending node order, then the first
    semantic offender in ascending node order, then the claim.
    """
    nodes, setting, gens = cert.nodes, cert.setting, cert.generators
    n = len(nodes)

    if setting not in (NIL, SQRT):
        return Verdict(False, None, WRONG_SETTING, f"unknown setting {setting!r}")
    if setting == NIL and gens.families:
        return Verdict(False, None, WRONG_SETTING, "families present in the nil setting")

    for i, node in enumerate(nodes):
        if fault := node_fault(node, n, setting, gens):
            return Verdict(False, i, *fault)
    if not isinstance(cert.root, int) or not 0 <= cert.root < n:
        return Verdict(False, None, BAD_REF, f"root {cert.root} out of range")

    # acyclicity, by counting resolved children (Kahn)
    children = [_CHILDREN[type(node)](node) for node in nodes]
    pending = [len(refs) for refs in children]
    parents: list[list[int]] = [[] for _ in range(n)]
    for i, refs in enumerate(children):
        for ref in refs:
            parents[ref].append(i)
    ready = [i for i in range(n) if pending[i] == 0]
    order: list[int] = []
    while ready:
        i = ready.pop()
        order.append(i)
        for parent in parents[i]:
            pending[parent] -= 1
            if pending[parent] == 0:
                ready.append(parent)
    if len(order) != n:
        stuck = min(i for i in range(n) if pending[i] > 0)
        return Verdict(False, stuck, CYCLE, "node waits on a reference cycle")

    # conclusions children first; the least node whose side condition fails is blamed
    concl: list[Poly] = [Poly.zero()] * n
    blamed = None
    for i in order:
        concl[i], fault = conclude(nodes[i], concl, gens)
        if fault and (blamed is None or i < blamed[0]):
            blamed = (i, *fault)
    if blamed:
        return Verdict(False, *blamed)
    if concl[cert.root] != cert.claim:
        return Verdict(False, cert.root, CLAIM_MISMATCH, "claim differs from root conclusion")
    return Verdict(True, order=tuple(order), conclusions=tuple(concl))
