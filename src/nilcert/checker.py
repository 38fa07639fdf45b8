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

A schematic symbol occurring in a generator is rejected only when it is
some Semiprime node's bound (the capture condition); a never-bound
schematic generator is semantically just another indeterminate and
cannot make an accepted claim unsound.

A valid verdict also carries the checker's topological order and the
conclusion of every node, so callers reuse this one evaluation.
"""

from __future__ import annotations

from nilcert.certificate import (
    NIL, REF, SETTING_OF, SQRT, Add, Certificate, Intro, IntroFamily, Mult, Red, Semiprime, Zero,
    field_getters,
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


def _invalid(node: int | None, reason: str, detail: str) -> Verdict:
    return Verdict(False, node, reason, detail)


def check_certificate(cert: Certificate) -> Verdict:
    """Decide validity of untrusted certificate data.

    Pure and deterministic: the verdict (including which node is
    blamed) is a function of the certificate content alone.  Structural
    problems are reported in ascending node order, then the first
    semantic offender in ascending node order, then the claim.
    """
    nodes = cert.nodes
    n = len(nodes)
    setting = cert.setting
    gens = cert.generators

    if setting not in (NIL, SQRT):
        return _invalid(None, WRONG_SETTING, f"unknown setting {setting!r}")
    if setting == NIL and gens.families:
        return _invalid(None, WRONG_SETTING, "families present in the nil setting")

    # structural pass: kinds vs setting, index ranges, reference ranges
    for i, node in enumerate(nodes):
        kind = type(node)
        if kind not in _CHILDREN:
            return _invalid(i, WRONG_SETTING, f"unknown node kind {kind.__name__}")
        if SETTING_OF.get(kind, setting) != setting:
            return _invalid(i, WRONG_SETTING, f"{kind.__name__} outside {SETTING_OF[kind]} setting")
        if kind is Intro and not 0 <= node.gen < len(gens.elements):
            return _invalid(i, GEN_INDEX, f"generator index {node.gen}")
        if kind is IntroFamily and not 0 <= node.family < len(gens.families):
            return _invalid(i, GEN_INDEX, f"family index {node.family}")
        for ref in _CHILDREN[kind](node):
            if not 0 <= ref < n:
                return _invalid(i, BAD_REF, f"reference to unknown node {ref}")
        if kind is Semiprime and not node.bound.is_schematic:
            return _invalid(i, SEMIPRIME_SHAPE, "bound symbol is not schematic")

    if not 0 <= cert.root < n:
        return _invalid(None, BAD_REF, f"root {cert.root} out of range")

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
        return _invalid(stuck, CYCLE, "node waits on a reference cycle")

    # conclusions, children first
    concl: list[Poly] = [Poly.zero()] * n
    for i in order:
        node = nodes[i]
        if isinstance(node, Intro):
            concl[i] = gens.elements[node.gen]
        elif isinstance(node, IntroFamily):
            left, right = gens.families[node.family]
            concl[i] = left * node.instance * right
        elif isinstance(node, Zero):
            concl[i] = Poly.zero()
        elif isinstance(node, Add):
            concl[i] = concl[node.left] + concl[node.right]
        elif isinstance(node, Mult):
            concl[i] = node.left * concl[node.inner] * node.right
        else:  # Red | Semiprime carry their conclusion
            concl[i] = node.conclusion

    # semantic side conditions
    for i, node in enumerate(nodes):
        if isinstance(node, Red):
            c = node.conclusion
            if concl[node.premise] != c * c:
                return _invalid(i, RED_SQUARE_MISMATCH, "premise is not conclusion^2")
        elif isinstance(node, Semiprime):
            c = node.conclusion
            if concl[node.premise] != c * Poly.symbol(node.bound) * c:
                return _invalid(
                    i, SEMIPRIME_SHAPE, "premise is not conclusion*bound*conclusion"
                )
            if c.mentions(node.bound):
                return _invalid(i, SEMIPRIME_CAPTURE, "bound occurs in the conclusion")
            if gens.mentions(node.bound):
                return _invalid(i, SEMIPRIME_CAPTURE, "bound occurs in the generators")

    if concl[cert.root] != cert.claim:
        return _invalid(cert.root, CLAIM_MISMATCH, "claim differs from root conclusion")
    return Verdict(True, order=tuple(order), conclusions=tuple(concl))
