"""Witness transformers.

Each function consumes valid witnesses and produces a new one whose
validity does not have to be taken on faith: outputs are built through
DagBuilder (which verifies every side condition) and remain ordinary
certificates for the independent checker.

The two elementary moves both come from the reduced-ideal rule.  For a
witness of u*v:

    rotate:  v*(u*v)*u = (v*u)^2,        so v*u  is in the ideal
    insert:  (u*r)*(v*u)*(r*v) = (u*r*v)^2,  so u*r*v is in the ideal

Permutations reduce to a power-of-two trick over rotate and insert.
Products and intersections follow the structural recursions described
on each function; a product's Red node takes a rotate and a one-sided
multiple, no insert, so no step squares more than the rotated word.
"""

from __future__ import annotations

import math
from typing import Sequence

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
from nilcert.witness import DEFAULT_MAX_NODES, DagBuilder, WitnessDag, dag_symbols

__all__ = [
    "TransformError",
    "SettingMismatchError",
    "GeneratorMismatchError",
    "FactorizationMismatchError",
    "ConclusionMismatchError",
    "Permutation",
    "rotate",
    "insert",
    "permute",
    "nil_product",
    "nil_intersect",
    "sqrt_product",
    "sqrt_intersect",
]


class TransformError(Exception):
    """A transform precondition does not hold."""


class SettingMismatchError(TransformError):
    pass


class GeneratorMismatchError(TransformError):
    pass


class FactorizationMismatchError(TransformError):
    pass


class ConclusionMismatchError(TransformError):
    pass


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
    if builder.conclusion(node_id) != u * v:
        raise FactorizationMismatchError(
            f"witness concludes {builder.conclusion(node_id)}, not ({u})*({v})"
        )
    return builder.red(builder.mult(v, node_id, u), v * u)


def _insert_at(builder: DagBuilder, node_id: int, u: Poly, v: Poly, r: Poly) -> int:
    rotated = _rotate_at(builder, node_id, u, v)
    return builder.red(builder.mult(u * r, rotated, r * v), u * r * v)


def rotate(
    w: WitnessDag, u: Poly, v: Poly, max_nodes: int = DEFAULT_MAX_NODES
) -> WitnessDag:
    """From a witness of u*v, derive v*u (adds two nodes)."""
    builder = DagBuilder.from_dag(w, max_nodes)
    return builder.build(_rotate_at(builder, w.root, u, v))


def insert(
    w: WitnessDag, u: Poly, v: Poly, r: Poly, max_nodes: int = DEFAULT_MAX_NODES
) -> WitnessDag:
    """From a witness of u*v, derive u*r*v (adds four nodes)."""
    builder = DagBuilder.from_dag(w, max_nodes)
    return builder.build(_insert_at(builder, w.root, u, v, r))


def permute(
    w: WitnessDag,
    factors: Sequence[Poly],
    sigma: Permutation,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> WitnessDag:
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
        raise FactorizationMismatchError("factors do not multiply to the conclusion")
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
    gap_polys: list[Poly] = []
    for k in range(n - 1):
        gap = _ONE
        for j in range(positions[k] + 1, positions[k + 1]):
            gap = gap * factors[full[j] - 1]
        gap_polys.append(gap)
    prefix = _ONE
    for j in range(positions[0]):
        prefix = prefix * factors[full[j] - 1]
    suffix = _ONE
    for j in range(positions[-1] + 1, n * m):
        suffix = suffix * factors[full[j] - 1]

    heads = [_ONE]
    for f in factors:
        heads.append(heads[-1] * f)

    builder = DagBuilder.from_dag(w, max_nodes)
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
        raise GeneratorMismatchError("both inputs need a distinguished generator")
    if pe[:-1] != qe[:-1] or p.generators.families != q.generators.families:
        raise GeneratorMismatchError(
            "generator sets must agree except in the last element"
        )
    return pe[:-1], pe[-1], qe[-1]


def nil_product(
    p: WitnessDag, q: WitnessDag, max_nodes: int = DEFAULT_MAX_NODES
) -> WitnessDag:
    """Multiply memberships: x in Nil(U,a) and y in Nil(U,b) give
    x*y in Nil(U, a*b).

    Structural recursion on p, and on q once p has reached the
    distinguished generator a; every step re-expresses x*y as a
    constructor application over the recursive result.  Shared subtrees
    are translated once (memoised on the node-id pair), which keeps the
    output linear in the inputs.

    A Red node for c (premise c*c) takes a rotation and a one-sided
    multiple, no insert: c*c*y rotates to c*y*c, then (c*y*c)*y =
    (c*y)^2 halves to c*y; on q's side a*c*c rotates to c*a*c, then
    a*(c*a*c) = (a*c)^2 halves to a*c.  No step squares more than the
    rotated word, so the largest conclusion is (c*y*c)^2; splicing y
    in with an insert would square the doubled word c*y*c*y.
    """
    if p.setting != NIL or q.setting != NIL:
        raise SettingMismatchError("nil_product needs two nil witnesses")
    common, a, b = _split_distinguished(p, q)
    out = DagBuilder(NIL, GeneratorSet(common + (a * b,)), max_nodes)
    distinguished = len(common)
    memo: dict[tuple[int, int], int] = {}

    def prod(pi: int, qi: int) -> int:
        key = (pi, qi)
        hit = memo.get(key)
        if hit is not None:
            return hit
        node = p.nodes[pi]
        y = q.conclusions[qi]
        if isinstance(node, Intro) and node.gen_index != distinguished:
            out_id = out.mult(_ONE, out.intro(node.gen_index), y)
        elif isinstance(node, Intro):
            out_id = _prod_right(pi, qi)
        elif isinstance(node, Zero):
            out_id = out.zero()
        elif isinstance(node, Add):
            out_id = out.add(prod(node.left, qi), prod(node.right, qi))
        elif isinstance(node, Mult):
            inner = prod(node.inner, qi)
            spliced = _insert_at(out, inner, p.conclusions[node.inner], y, node.right)
            out_id = out.mult(node.left, spliced, _ONE)
        elif isinstance(node, Red):
            c = node.conclusion
            inner = prod(node.premise, qi)  # concludes c*c*y
            rotated = _rotate_at(out, inner, c, c * y)  # c*y*c
            out_id = out.red(out.mult(_ONE, rotated, y), c * y)
        else:
            raise TransformError(f"unexpected node in nil witness: {node!r}")
        memo[key] = out_id
        return out_id

    def _prod_right(pi: int, qi: int) -> int:
        node = q.nodes[qi]
        if isinstance(node, Intro) and node.gen_index != distinguished:
            return out.mult(a, out.intro(node.gen_index), _ONE)
        if isinstance(node, Intro):
            return out.intro(distinguished)  # a*b is the new generator
        if isinstance(node, Zero):
            return out.zero()
        if isinstance(node, Add):
            return out.add(prod(pi, node.left), prod(pi, node.right))
        if isinstance(node, Mult):
            inner = prod(pi, node.inner)
            spliced = _insert_at(out, inner, a, q.conclusions[node.inner], node.left)
            return out.mult(_ONE, spliced, node.right)
        if isinstance(node, Red):
            c = node.conclusion
            inner = prod(pi, node.premise)  # concludes a*c*c
            rotated = _rotate_at(out, inner, a * c, c)  # c*a*c
            return out.red(out.mult(a, rotated, _ONE), a * c)
        raise TransformError(f"unexpected node in nil witness: {node!r}")

    return out.build(prod(p.root, q.root))


def nil_intersect(
    p: WitnessDag, q: WitnessDag, max_nodes: int = DEFAULT_MAX_NODES
) -> WitnessDag:
    """Common membership: c in Nil(U,a) and c in Nil(U,b) give
    c in Nil(U, a*b), by halving the product witness of c*c."""
    c = p.conclusion
    if c != q.conclusion:
        raise ConclusionMismatchError("the two witnesses conclude different elements")
    squared = nil_product(p, q, max_nodes)
    builder = DagBuilder.from_dag(squared, max_nodes)
    return builder.build(builder.red(squared.root, c))


def sqrt_product(
    p: WitnessDag, q: WitnessDag, m: Poly, max_nodes: int = DEFAULT_MAX_NODES
) -> WitnessDag:
    """Family product: x in sqrt(U,a) and y in sqrt(U,b) give
    x*m*y in sqrt(U + family (a,b)), for any middle element m.

    The recursion mirrors nil_product with the middle element threaded
    through: Mult cases absorb their outer factor into m, and a
    Semiprime premise (a witness of x*bound*x for every bound) is read
    at bound := m*y*t for a t fresh for p, q and m and drawn once (t*a*m
    on q's side), so that the recursive product becomes (x*m*y)*t*(x*m*y).
    Nothing is copied: each side keeps its pending instances as (bound,
    image) pairs, and every ring value read from that side goes through
    Poly.substitute.  Nothing can be captured either: each bound met is
    replaced and never written out, a later pair shadows an earlier one,
    and substitute replaces all bindings at once.
    """
    if p.setting != SQRT or q.setting != SQRT:
        raise SettingMismatchError("sqrt_product needs two sqrt witnesses")
    common, a, b = _split_distinguished(p, q)
    families = p.generators.families
    out = DagBuilder(SQRT, GeneratorSet(common, families + ((a, b),)), max_nodes)
    distinguished = len(common)
    new_family = len(families)
    taken = dict.fromkeys(dag_symbols(p, q) | m.symbols())
    memo: dict[tuple[int, _Env, int, _Env, Poly], int] = {}

    def prod(pi: int, penv: _Env, qi: int, qenv: _Env, mid: Poly) -> int:
        key = (pi, penv, qi, qenv, mid)
        hit = memo.get(key)
        if hit is not None:
            return hit
        node = p.nodes[pi]
        sub = dict(penv)
        y = q.conclusions[qi].substitute(dict(qenv))
        if isinstance(node, Intro) and node.gen_index != distinguished:
            out_id = out.mult(_ONE, out.intro(node.gen_index), mid * y)
        elif isinstance(node, IntroFamily):
            copied = out.intro_family(node.family_index, node.instance.substitute(sub))
            out_id = out.mult(_ONE, copied, mid * y)
        elif isinstance(node, Intro):
            out_id = prod_right(pi, penv, qi, qenv, mid)
        elif isinstance(node, Zero):
            out_id = out.zero()
        elif isinstance(node, Add):
            out_id = out.add(
                prod(node.left, penv, qi, qenv, mid), prod(node.right, penv, qi, qenv, mid)
            )
        elif isinstance(node, Mult):
            inner = prod(node.inner, penv, qi, qenv, node.right.substitute(sub) * mid)
            out_id = out.mult(node.left.substitute(sub), inner, _ONE)
        elif isinstance(node, Semiprime):
            t = fresh_schematic(node.bound.name, taken)
            instance = penv + ((node.bound, mid * y * Poly.symbol(t)),)
            inner = prod(node.premise, instance, qi, qenv, mid)
            out_id = out.semiprime(t, inner, node.conclusion.substitute(sub) * mid * y)
        else:
            raise TransformError(f"unexpected node in sqrt witness: {node!r}")
        memo[key] = out_id
        return out_id

    def prod_right(pi: int, penv: _Env, qi: int, qenv: _Env, mid: Poly) -> int:
        node = q.nodes[qi]
        sub = dict(qenv)
        if isinstance(node, Intro) and node.gen_index != distinguished:
            return out.mult(a * mid, out.intro(node.gen_index), _ONE)
        if isinstance(node, IntroFamily):
            copied = out.intro_family(node.family_index, node.instance.substitute(sub))
            return out.mult(a * mid, copied, _ONE)
        if isinstance(node, Intro):
            return out.intro_family(new_family, mid)  # concludes a*mid*b
        if isinstance(node, Zero):
            return out.zero()
        if isinstance(node, Add):
            return out.add(
                prod(pi, penv, node.left, qenv, mid), prod(pi, penv, node.right, qenv, mid)
            )
        if isinstance(node, Mult):
            inner = prod(pi, penv, node.inner, qenv, mid * node.left.substitute(sub))
            return out.mult(_ONE, inner, node.right.substitute(sub))
        if isinstance(node, Semiprime):
            t = fresh_schematic(node.bound.name, taken)
            instance = qenv + ((node.bound, Poly.symbol(t) * a * mid),)
            inner = prod(pi, penv, node.premise, instance, mid)
            return out.semiprime(t, inner, a * mid * node.conclusion.substitute(sub))
        raise TransformError(f"unexpected node in sqrt witness: {node!r}")

    return out.build(prod(p.root, (), q.root, (), m))


def sqrt_intersect(
    p: WitnessDag, q: WitnessDag, max_nodes: int = DEFAULT_MAX_NODES
) -> WitnessDag:
    """Common membership: c in sqrt(U,a) and c in sqrt(U,b) give
    c in sqrt(U + family (a,b)).

    The product with a schematic middle z fresh for p and q gives c*z*c
    for every z at once, which is exactly a Semiprime premise for c.
    """
    c = p.conclusion
    if c != q.conclusion:
        raise ConclusionMismatchError("the two witnesses conclude different elements")
    bound = fresh_schematic("z", dict.fromkeys(dag_symbols(p, q)))
    product = sqrt_product(p, q, Poly.symbol(bound), max_nodes)
    builder = DagBuilder.from_dag(product, max_nodes)
    return builder.build(builder.semiprime(bound, product.root, c))
