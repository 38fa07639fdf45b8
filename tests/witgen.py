"""Seeded random generators for fuzzing: polynomials and valid witnesses.

Witnesses are grown through DagBuilder, so everything produced here is
valid by construction; the tests then feed the results through the
independent checker and the Z/30 oracle.  Sizes are kept small because
reduced-ideal steps square their premises and term counts multiply.
"""

from __future__ import annotations

import random

from nilcert import (
    DagBuilder,
    GeneratorSet,
    NIL,
    Poly,
    SQRT,
    WitnessDag,
    base_symbol,
    fresh_schematic,
)
from nilcert.witness import dag_symbols

_MAX_CONCLUSION_TERMS = 60


def rand_poly(
    rng: random.Random,
    names: tuple[str, ...],
    max_terms: int = 2,
    max_word: int = 2,
    nonzero: bool = False,
) -> Poly:
    total = Poly.zero()
    for _ in range(rng.randint(1 if nonzero else 0, max_terms)):
        coeff = rng.choice((-2, -1, 1, 2))
        word = Poly.constant(coeff)
        for _ in range(rng.randint(0, max_word)):
            word = word * Poly.symbol(base_symbol(rng.choice(names)))
        total = total + word
    if nonzero and not total:
        return Poly.symbol(base_symbol(rng.choice(names)))
    return total


def rand_generators(
    rng: random.Random, names: tuple[str, ...], count: int
) -> tuple[Poly, ...]:
    return tuple(rand_poly(rng, names, nonzero=True) for _ in range(count))


def _small(builder: DagBuilder, node: int) -> bool:
    return len(builder.conclusion(node)) <= _MAX_CONCLUSION_TERMS


def _nil_leaf(rng: random.Random, builder: DagBuilder) -> int:
    count = len(builder.generators.elements)
    k = rng.randrange(count + 1)
    return builder.zero() if k == count else builder.intro(k)


def _sqrt_leaf(rng: random.Random, builder: DagBuilder, names: tuple[str, ...]) -> int:
    gens = builder.generators
    kinds = ["zero"] + ["intro"] * len(gens.elements)
    if gens.families:
        kinds.append("family")
    kind = rng.choice(kinds)
    if kind == "zero":
        return builder.zero()
    if kind == "intro":
        return builder.intro(rng.randrange(len(gens.elements)))
    i = rng.randrange(len(gens.families))
    return builder.intro_family(i, rand_poly(rng, names, max_terms=1))


def grow_nil(
    rng: random.Random, builder: DagBuilder, names: tuple[str, ...], depth: int
) -> int:
    """Return the id of a random valid node, recursing at most `depth`."""
    gens = builder.generators.elements
    if depth <= 0:
        return _nil_leaf(rng, builder)
    kind = rng.choice(("intro", "zero", "add", "mult", "red", "red"))
    if kind == "intro":
        return builder.intro(rng.randrange(len(gens)))
    if kind == "zero":
        return builder.zero()
    if kind == "add":
        return builder.add(
            grow_nil(rng, builder, names, depth - 1),
            grow_nil(rng, builder, names, depth - 1),
        )
    if kind == "mult":
        return builder.mult(
            rand_poly(rng, names, max_terms=1),
            grow_nil(rng, builder, names, depth - 1),
            rand_poly(rng, names, max_terms=1),
        )
    # A reduced-ideal step from any node n |- c: the premise
    # u*c*(v*u*c*v) is (u*c*v)^2, so u*c*v joins the ideal.
    inner = grow_nil(rng, builder, names, depth - 1)
    if not _small(builder, inner):
        return inner
    c = builder.conclusion(inner)
    u = rand_poly(rng, names, max_terms=1, max_word=1, nonzero=True)
    v = rand_poly(rng, names, max_terms=1, max_word=1, nonzero=True)
    premise = builder.mult(u, inner, v * u * c * v)
    return builder.red(premise, u * c * v)


def grow_sqrt(
    rng: random.Random, builder: DagBuilder, names: tuple[str, ...], depth: int
) -> int:
    if depth <= 0:
        return _sqrt_leaf(rng, builder, names)
    kind = rng.choice(("leaf", "add", "mult", "mult", "semiprime", "semiprime"))
    if kind == "leaf":
        return _sqrt_leaf(rng, builder, names)
    if kind == "add":
        return builder.add(
            grow_sqrt(rng, builder, names, depth - 1),
            grow_sqrt(rng, builder, names, depth - 1),
        )
    if kind == "mult":
        return builder.mult(
            rand_poly(rng, names, max_terms=1),
            grow_sqrt(rng, builder, names, depth - 1),
            rand_poly(rng, names, max_terms=1),
        )
    inner = grow_sqrt(rng, builder, names, depth - 1)
    return semiprime_over(builder, inner) if _small(builder, inner) else inner


def semiprime_over(builder: DagBuilder, inner: int) -> int:
    """A semiprime step: from n |- c, the premise c*w*n*1 concludes c*w*c,
    so c joins the ideal for a bound w fresh for the witness grown so far
    (so the bounds within one witness stay distinct)."""
    c = builder.conclusion(inner)
    bound = fresh_schematic("w", dict.fromkeys(dag_symbols(builder.build(inner))))
    premise = builder.mult(c * Poly.symbol(bound), inner, Poly.one())
    return builder.semiprime(bound, premise, c)


def nil_pair(
    rng: random.Random, names: tuple[str, ...], depth: int
) -> tuple[WitnessDag, WitnessDag]:
    """Two witnesses over U + (a,) and U + (b,), ready for a product."""
    common = rand_generators(rng, names, rng.randint(0, 2))
    a = rand_poly(rng, names, nonzero=True)
    b = rand_poly(rng, names, nonzero=True)
    pair = []
    for extra in (a, b):
        builder = DagBuilder(NIL, GeneratorSet(common + (extra,)))
        pair.append(builder.build(grow_nil(rng, builder, names, depth)))
    return pair[0], pair[1]


def sqrt_pair(
    rng: random.Random,
    names: tuple[str, ...],
    depth: int,
    force_semiprime: bool = False,
) -> tuple[WitnessDag, WitnessDag]:
    common = rand_generators(rng, names, rng.randint(0, 2))
    families = tuple(
        (rand_poly(rng, names, nonzero=True), rand_poly(rng, names, nonzero=True))
        for _ in range(rng.randint(0, 1))
    )
    a = rand_poly(rng, names, nonzero=True)
    b = rand_poly(rng, names, nonzero=True)
    pair = []
    for extra in (a, b):
        builder = DagBuilder(SQRT, GeneratorSet(common + (extra,), families))
        root = grow_sqrt(rng, builder, names, depth)
        if force_semiprime and _small(builder, root):
            root = semiprime_over(builder, root)
        pair.append(builder.build(root))
    return pair[0], pair[1]
