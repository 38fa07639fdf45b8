"""Witness transformers.

Each function consumes valid witnesses and produces a new one whose
validity does not have to be taken on faith: outputs are built through
DagBuilder (which verifies every side condition) and remain ordinary
certificates for the independent checker.

The two elementary moves both come from the reduced-ideal rule.  For a
witness of u*v:

    rotate:  v*(u*v)*u = (v*u)^2,        so v*u  is in the ideal
    insert:  (u*r)*(v*u)*(r*v) = (u*r*v)^2,  so u*r*v is in the ideal

Rotate is internal: permute over the two factors (u, v) with sigma =
(2, 1) is its public form.  Permutations reduce to a power-of-two trick
over rotate and insert.
A product is two inductions, one over each witness, as described on
each function, run by witness.induction at any depth.  A product's Red
node takes a rotate and a one-sided multiple, no insert, so no step
squares more than the rotated word.  A run of Mult nodes is translated
as one step (_mult_run), so a product's output is linear in its inputs
along such runs.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Sequence

from nilcert.certificate import (
    Add,
    GeneratorSet,
    Intro,
    IntroFamily,
    Mult,
    NIL,
    Red,
    SQRT,
    Semiprime,
    Zero,
)
from nilcert.record import Record
from nilcert.ring import Poly, Symbol, fresh_schematic
from nilcert.witness import DagBuilder, WitnessDag, dag_symbols, induction

__all__ = [
    "TransformError",
    "Permutation",
    "insert",
    "permute",
    "nil_product",
    "nil_intersect",
    "sqrt_product",
    "sqrt_intersect",
    "fresh_middle",
]


class TransformError(Exception):
    """A transform precondition does not hold."""


class Permutation(Record):
    """Images sigma(1), ..., sigma(n) of a permutation of {1..n}."""

    __slots__ = ()

    def __new__(cls, image: tuple[int, ...]):
        image = tuple(image)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in image):
            raise ValueError(f"permutation images must be integers: {image}")
        if sorted(image) != list(range(1, len(image) + 1)):
            raise ValueError(f"not a permutation of 1..{len(image)}: {image}")
        return tuple.__new__(cls, (image,))

    @property
    def n(self) -> int:
        return len(self.image)

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.image, start=1))

    def __call__(self, i: int) -> int:
        return self.image[i - 1]


_ONE = Poly.one()
_Env = tuple[tuple[Symbol, Poly], ...]  # pending (bound, image) instances


def _rotate_at(builder: DagBuilder, node_id: int, u: Poly, v: Poly) -> int:
    # node_id concludes u*v; the builder's Red rule refuses the result otherwise
    return builder.red(builder.mult(v, node_id, u), v * u)


def _insert_at(builder: DagBuilder, node_id: int, u: Poly, v: Poly, r: Poly) -> int:
    rotated = _rotate_at(builder, node_id, u, v)
    return builder.red(builder.mult(u * r, rotated, r * v), u * r * v)


def insert(w: WitnessDag, u: Poly, v: Poly, r: Poly) -> WitnessDag:
    """From a witness of u*v, derive u*r*v (adds four nodes)."""
    if w.conclusion != u * v:
        raise TransformError(f"witness concludes {w.conclusion}, not ({u})*({v})")
    builder = DagBuilder.from_dag(w)
    return builder.build(_insert_at(builder, w.root, u, v, r))


def permute(w: WitnessDag, factors: Sequence[Poly], sigma: Permutation) -> WitnessDag:
    """From a witness of x_1*...*x_n, derive x_sigma(1)*...*x_sigma(n).

    Write T for the permuted product and pick the least power of two m
    such that x_1, ..., x_n occurs in order as a scattered subsequence
    of m repetitions of the permuted factor sequence.  Splicing the
    skipped factors into the witness (insert for inner gaps, one Mult
    for the outer ones) yields T^m, and halving by the reduced-ideal
    rule log2(m) times lands on T.
    """
    factors = tuple(factors)
    n = len(factors)
    if sigma.n != n:
        raise TransformError(f"permutation of size {sigma.n} applied to {n} factors")
    if math.prod(factors, start=_ONE) != w.conclusion:
        raise TransformError("factors do not multiply to the conclusion")
    if sigma.is_identity:
        return w

    seq = [sigma(i) for i in range(1, n + 1)]
    # greedy scattered-subsequence search for 1, 2, ..., n over copies of seq
    positions: list[int] = []
    pos = 0
    for needed in range(1, n + 1):
        while seq[pos % n] != needed:
            pos += 1
        positions.append(pos)
        pos += 1
    copies = positions[-1] // n + 1
    m = 1
    while m < copies:
        m *= 2

    full = seq * m

    def span(start: int, stop: int) -> Poly:
        return math.prod((factors[i - 1] for i in full[start:stop]), start=_ONE)

    gap_polys = [span(positions[k] + 1, positions[k + 1]) for k in range(n - 1)]
    prefix = span(0, positions[0])
    suffix = span(positions[-1] + 1, n * m)
    heads = list(itertools.accumulate(factors, operator.mul, initial=_ONE))

    builder = DagBuilder.from_dag(w)
    current = w.root
    tail = factors[-1]
    for k in range(n - 1, 0, -1):  # gap k sits between x_k and x_{k+1}
        gap = gap_polys[k - 1]
        if gap != _ONE:
            current = _insert_at(builder, current, heads[k], tail, gap)
            tail = gap * tail
        tail = factors[k - 1] * tail
    if prefix != _ONE or suffix != _ONE:
        current = builder.mult(prefix, current, suffix)

    target = math.prod((factors[i - 1] for i in seq), start=_ONE)
    power = m
    while power > 1:
        power //= 2
        current = builder.red(current, target ** power)
    return builder.build(current)


def _split_distinguished(
    p: WitnessDag, q: WitnessDag
) -> tuple[tuple[Poly, ...], Poly, Poly]:
    pe = p.generators.elements
    qe = q.generators.elements
    if not pe or not qe:
        raise TransformError("both inputs need a distinguished generator")
    if pe[:-1] != qe[:-1] or p.generators.families != q.generators.families:
        raise TransformError(
            "generator sets must agree except in the last element"
        )
    return pe[:-1], pe[-1], qe[-1]


def _first_with_conclusion(w: WitnessDag) -> list[int]:
    """Each node id of w mapped to the least id with an equal conclusion.

    Every node of a WitnessDag derives its conclusion, so either id
    proves the same membership; children precede parents, so the
    least id's own children are earlier still.
    """
    first: dict[Poly, int] = {}
    return [first.setdefault(c, i) for i, c in enumerate(w.conclusions)]


def _mult_run(
    nodes: Sequence, node: Mult, below: Sequence[int], read: Callable[[Poly], Poly] = lambda f: f
) -> tuple[Poly, Poly, int]:
    """A run of Mult nodes from ``node`` down, as (left, right, bottom):
    node concludes left*c*right for c the conclusion of node ``bottom``.

    Each Mult's inner id i is read as ``below[i]`` and its factors
    through ``read``.  The run stops at a node that is not a Mult, or
    where a fused factor would have more terms than its two parts had
    together (never for monomials), so fusing never writes larger
    factors than the run's own Mult nodes did.
    """
    left, right, bottom = read(node.left), read(node.right), below[node.inner]
    while isinstance(nxt := nodes[bottom], Mult):
        l, r = read(nxt.left), read(nxt.right)
        fused_l, fused_r = left * l, r * right
        if len(fused_l) > len(left) + len(l) or len(fused_r) > len(right) + len(r):
            break
        left, right, bottom = fused_l, fused_r, below[nxt.inner]
    return left, right, bottom


def nil_product(p: WitnessDag, q: WitnessDag) -> WitnessDag:
    """Multiply memberships: x in Nil(U,a) and y in Nil(U,b) give
    x*y in Nil(U, a*b).

    Two inductions, one over each witness: times_y derives x'*y for each
    x' that p derives, y being q's conclusion, and at the distinguished
    generator a calls a_times, which derives a*y' for each y' that q
    derives and never reads p.  Each step re-expresses the product as a
    constructor application over the recursive result.  Each node is
    read through the first node of its witness with an equal conclusion,
    so shared subtrees and repeated conclusions are translated once,
    which keeps the output linear in the inputs, and a Red chain whose
    every level concludes the same element collapses to its first node.

    A run of Mult nodes concluding l*c*r over a node concluding c is
    one step: the recursion derives c*y once, one insert splices r
    between c and y, and one Mult puts l in front (a*l*c, then times r,
    on q's side).  Translating each Mult alone would write every
    level's whole inner conclusion into its insert, Theta(n^2) bytes
    for an n-deep run.

    A Red node for c (premise c*c) takes a rotation and a one-sided
    multiple, no insert: c*c*y rotates to c*y*c, then (c*y*c)*y =
    (c*y)^2 halves to c*y; on q's side a*c*c rotates to c*a*c, then
    a*(c*a*c) = (a*c)^2 halves to a*c.  No step squares more than the
    rotated word, so the largest conclusion is (c*y*c)^2; splicing y
    in with an insert would square the doubled word c*y*c*y.
    """
    if p.setting != NIL or q.setting != NIL:
        raise TransformError("nil_product needs two nil witnesses")
    common, a, b = _split_distinguished(p, q)
    out = DagBuilder(NIL, GeneratorSet(common + (a * b,)))
    distinguished = len(common)
    p_first, q_first = _first_with_conclusion(p), _first_with_conclusion(q)
    y = q.conclusion

    def times_y(pi: int):
        if p_first[pi] != pi:
            return (yield times_y, p_first[pi])
        node = p.nodes[pi]
        if isinstance(node, Intro) and node.gen != distinguished:
            return out.mult(_ONE, out.intro(node.gen), y)
        if isinstance(node, Intro):
            return (yield a_times, q.root)
        if isinstance(node, Zero):
            return out.zero()
        if isinstance(node, Add):
            return out.add((yield times_y, node.left), (yield times_y, node.right))
        if isinstance(node, Mult):
            left, right, bottom = _mult_run(p.nodes, node, p_first)
            inner = yield times_y, bottom
            spliced = _insert_at(out, inner, p.conclusions[bottom], y, right)
            return out.mult(left, spliced, _ONE)
        if isinstance(node, Red):
            c = node.conclusion
            inner = yield times_y, node.premise  # concludes c*c*y
            rotated = _rotate_at(out, inner, c, c * y)  # c*y*c
            return out.red(out.mult(_ONE, rotated, y), c * y)
        raise TransformError(f"unexpected node in nil witness: {node!r}")

    def a_times(qi: int):
        if q_first[qi] != qi:
            return (yield a_times, q_first[qi])
        node = q.nodes[qi]
        if isinstance(node, Intro) and node.gen != distinguished:
            return out.mult(a, out.intro(node.gen), _ONE)
        if isinstance(node, Intro):
            return out.intro(distinguished)  # a*b is the new generator
        if isinstance(node, Zero):
            return out.zero()
        if isinstance(node, Add):
            return out.add((yield a_times, node.left), (yield a_times, node.right))
        if isinstance(node, Mult):
            left, right, bottom = _mult_run(q.nodes, node, q_first)
            inner = yield a_times, bottom
            spliced = _insert_at(out, inner, a, q.conclusions[bottom], left)
            return out.mult(_ONE, spliced, right)
        if isinstance(node, Red):
            c = node.conclusion
            inner = yield a_times, node.premise  # concludes a*c*c
            rotated = _rotate_at(out, inner, a * c, c)  # c*a*c
            return out.red(out.mult(a, rotated, _ONE), a * c)
        raise TransformError(f"unexpected node in nil witness: {node!r}")

    return out.build(induction(times_y, p.root))


def nil_intersect(p: WitnessDag, q: WitnessDag) -> WitnessDag:
    """Common membership: c in Nil(U,a) and c in Nil(U,b) give
    c in Nil(U, a*b), by halving the product witness of c*c."""
    c = p.conclusion
    if c != q.conclusion:
        raise TransformError("the two witnesses conclude different elements")
    squared = nil_product(p, q)
    builder = DagBuilder.from_dag(squared)
    return builder.build(builder.red(squared.root, c))


def sqrt_product(p: WitnessDag, q: WitnessDag, m: Poly) -> WitnessDag:
    """Family product: x in sqrt(U,a) and y in sqrt(U,b) give
    x*m*y in sqrt(U + family (a,b)), for any middle element m.

    The two inductions mirror nil_product's, times_y deriving x'*m*y and
    a_times a*m*y', with the middle element threaded through: a run of
    Mult nodes folds its factors on m's side into m, recurses once and
    puts its other factors in one output Mult, and a Semiprime premise
    (a witness of x*bound*x for every bound) is read at bound := m*y*t
    for a t fresh for p, q and m and drawn once (t*a*m on q's side), so
    that the recursive product becomes (x*m*y)*t*(x*m*y).  Nothing is copied:
    each side keeps its own pending instances as (bound, image) pairs,
    and every ring value read from that side goes through
    Poly.substitute.  Nothing can be captured either: each bound met is
    replaced and never written out, a later pair shadows an earlier one,
    and substitute replaces all bindings at once.
    """
    if p.setting != SQRT or q.setting != SQRT:
        raise TransformError("sqrt_product needs two sqrt witnesses")
    common, a, b = _split_distinguished(p, q)
    families = p.generators.families
    out = DagBuilder(SQRT, GeneratorSet(common, families + ((a, b),)))
    distinguished = len(common)
    new_family = len(families)
    taken = dict.fromkeys(dag_symbols(p, q) | m.symbols())
    y = q.conclusion
    p_ids, q_ids = range(len(p)), range(len(q))

    def times_y(pi: int, env: _Env, mid: Poly):
        node = p.nodes[pi]
        sub = dict(env)
        if isinstance(node, Intro) and node.gen != distinguished:
            return out.mult(_ONE, out.intro(node.gen), mid * y)
        if isinstance(node, IntroFamily):
            copied = out.intro_family(node.family, node.instance.substitute(sub))
            return out.mult(_ONE, copied, mid * y)
        if isinstance(node, Intro):
            return (yield a_times, q.root, (), mid)
        if isinstance(node, Zero):
            return out.zero()
        if isinstance(node, Add):
            left = yield times_y, node.left, env, mid
            return out.add(left, (yield times_y, node.right, env, mid))
        if isinstance(node, Mult):
            left, right, bottom = _mult_run(p.nodes, node, p_ids, lambda f: f.substitute(sub))
            inner = yield times_y, bottom, env, right * mid
            return out.mult(left, inner, _ONE)
        if isinstance(node, Semiprime):
            t = fresh_schematic(node.bound.name, taken)
            instance = env + ((node.bound, mid * y * Poly.symbol(t)),)
            inner = yield times_y, node.premise, instance, mid
            return out.semiprime(t, inner, node.conclusion.substitute(sub) * mid * y)
        raise TransformError(f"unexpected node in sqrt witness: {node!r}")

    def a_times(qi: int, env: _Env, mid: Poly):
        node = q.nodes[qi]
        sub = dict(env)
        if isinstance(node, Intro) and node.gen != distinguished:
            return out.mult(a * mid, out.intro(node.gen), _ONE)
        if isinstance(node, IntroFamily):
            copied = out.intro_family(node.family, node.instance.substitute(sub))
            return out.mult(a * mid, copied, _ONE)
        if isinstance(node, Intro):
            return out.intro_family(new_family, mid)  # concludes a*mid*b
        if isinstance(node, Zero):
            return out.zero()
        if isinstance(node, Add):
            left = yield a_times, node.left, env, mid
            return out.add(left, (yield a_times, node.right, env, mid))
        if isinstance(node, Mult):
            left, right, bottom = _mult_run(q.nodes, node, q_ids, lambda f: f.substitute(sub))
            inner = yield a_times, bottom, env, mid * left
            return out.mult(_ONE, inner, right)
        if isinstance(node, Semiprime):
            t = fresh_schematic(node.bound.name, taken)
            instance = env + ((node.bound, Poly.symbol(t) * a * mid),)
            inner = yield a_times, node.premise, instance, mid
            return out.semiprime(t, inner, a * mid * node.conclusion.substitute(sub))
        raise TransformError(f"unexpected node in sqrt witness: {node!r}")

    return out.build(induction(times_y, p.root, (), m))


def sqrt_intersect(p: WitnessDag, q: WitnessDag) -> WitnessDag:
    """Common membership: c in sqrt(U,a) and c in sqrt(U,b) give
    c in sqrt(U + family (a,b)).

    The product with a schematic middle z fresh for p and q gives c*z*c
    for every z at once, which is exactly a Semiprime premise for c.
    """
    c = p.conclusion
    if c != q.conclusion:
        raise TransformError("the two witnesses conclude different elements")
    bound = fresh_middle(p, q)
    product = sqrt_product(p, q, Poly.symbol(bound))
    builder = DagBuilder.from_dag(product)
    return builder.build(builder.semiprime(bound, product.root, c))


def fresh_middle(p: WitnessDag, q: WitnessDag) -> Symbol:
    """The default schematic middle for a sqrt product of p and q: the
    least ``z#uid`` that neither input mentions."""
    return fresh_schematic("z", dict.fromkeys(dag_symbols(p, q)))
