"""Rotation, insertion, permutation, products, and intersections."""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import os
import random
import subprocess
import sys

import pytest

import nilcert
import witgen
from refcheck import refcheck
from nilcert import (
    BudgetExceededError,
    CentralConstants,
    DagBuilder,
    GeneratorSet,
    NIL,
    Permutation,
    Poly,
    SQRT,
    Symbol,
    base_symbol,
    central_roots_witness,
    certificate_from_dag,
    check_certificate,
    insert,
    nil_intersect,
    nil_product,
    node_budget,
    permute,
    serialize,
    sqrt_intersect,
    sqrt_product,
)
from nilcert import ring
from nilcert.transforms import TransformError
from nilcert.certificate import Intro, Red, Semiprime
from nilcert.witness import WitnessDag, dag_symbols, substitute_schematic

x, y, z = (Poly.symbol(base_symbol(n)) for n in "xyz")
one = Poly.one()


def assert_valid(dag):
    verdict = check_certificate(certificate_from_dag(dag))
    assert verdict.ok, str(verdict)


def product_witness(*names):
    """An Intro witness whose single generator is the product of names."""
    poly = one
    for n in names:
        poly = poly * Poly.symbol(base_symbol(n))
    b = DagBuilder(NIL, GeneratorSet((poly,)))
    return b.build(b.intro(0))


# -- rotate / insert -------------------------------------------------------


def test_rotate_swaps_the_factors():
    w = product_witness("x", "y")
    out = permute(w, (x, y), Permutation((2, 1)))
    assert out.conclusion == y * x
    assert len(out) == len(w) + 2
    assert_valid(out)
    # the input is untouched
    assert len(w) == 1 and w.conclusion == x * y


def test_rotate_accepts_nonatomic_factors():
    b = DagBuilder(NIL, GeneratorSet(((x + one) * y * y,)))
    w = b.build(b.intro(0))
    out = permute(w, (x + one, y * y), Permutation((2, 1)))
    assert out.conclusion == y * y * (x + one)
    assert_valid(out)


def test_rotate_checks_the_factorization():
    w = product_witness("x", "y")
    with pytest.raises(TransformError, match="factors do not multiply to the conclusion"):
        permute(w, (y, x), Permutation((2, 1)))
    with pytest.raises(TransformError, match="factors do not multiply to the conclusion"):
        permute(w, (x, y + one), Permutation((2, 1)))


def test_insert_places_r_between_the_factors():
    w = product_witness("x", "y")
    out = insert(w, x, y, z)
    assert out.conclusion == x * z * y
    assert len(out) == len(w) + 4
    assert_valid(out)


def test_insert_checks_the_factorization():
    w = product_witness("x", "y")
    with pytest.raises(TransformError, match=r"^witness concludes x\*y, not \(y\)\*\(x\)$"):
        insert(w, y, x, z)
    with pytest.raises(TransformError, match=r"not \(x\)\*\(1\)$"):
        insert(w, x, one, z)


def test_insert_with_unit_factors():
    w = product_witness("x")
    out = insert(w, x, one, y)  # from x = x*1 derive x*y
    assert out.conclusion == x * y
    assert_valid(out)
    out = insert(w, one, x, y)  # from x = 1*x derive y*x
    assert out.conclusion == y * x
    assert_valid(out)


# -- permutations ----------------------------------------------------------


def test_permutation_validation():
    assert Permutation((2, 1)).n == 2
    assert Permutation((1, 2, 3)).is_identity
    assert Permutation((3, 1, 2))(1) == 3
    for bad in ((1, 1), (0, 1), (2, 3), (1, 2, 4)):
        with pytest.raises(ValueError):
            Permutation(bad)


def test_permutation_rejects_float_images():
    # 1.0 == 1, so a sortedness check alone let this through to permute
    with pytest.raises(ValueError, match="integers"):
        Permutation((1.0, 2))


def test_permutation_rejects_non_numeric_images():
    # sorting mixed types raised TypeError before the images were checked
    with pytest.raises(ValueError, match="integers"):
        Permutation((1, "a"))
    with pytest.raises(ValueError, match="integers"):
        Permutation((True, 2))


def test_permute_identity_returns_the_input():
    w = product_witness("x", "y", "z")
    assert permute(w, (x, y, z), Permutation((1, 2, 3))) is w


def test_permute_swap_matches_rotate():
    w = product_witness("x", "y")
    out = permute(w, (x, y), Permutation((2, 1)))
    assert out.conclusion == y * x
    assert len(out) == len(w) + 2
    assert_valid(out)


@pytest.mark.parametrize("image", list(itertools.permutations(range(1, 4))))
def test_permute_s3_exhaustive(image):
    w = product_witness("x", "y", "z")
    factors = (x, y, z)
    out = permute(w, factors, Permutation(image))
    expected = one
    for i in image:
        expected = expected * factors[i - 1]
    assert out.conclusion == expected
    assert_valid(out)


def test_permute_repeated_and_composite_factors():
    b = DagBuilder(NIL, GeneratorSet((x * x * (y + one),)))
    w = b.build(b.intro(0))
    out = permute(w, (x, x, y + one), Permutation((3, 1, 2)))
    assert out.conclusion == (y + one) * x * x
    assert_valid(out)


def test_permute_checks_inputs():
    w = product_witness("x", "y")
    with pytest.raises(TransformError, match="size"):
        permute(w, (x, y), Permutation((1, 3, 2)))
    with pytest.raises(TransformError, match="factors do not multiply to the conclusion"):
        permute(w, (y, x), Permutation((2, 1)))


def test_permute_respects_the_budget():
    w = product_witness("x", "y", "z")
    with node_budget(3), pytest.raises(BudgetExceededError):
        permute(w, (x, y, z), Permutation((3, 2, 1)))


# -- nil products ----------------------------------------------------------


def test_nil_product_of_plain_intros():
    p = product_witness("x")
    q = product_witness("y")
    out = nil_product(p, q)
    assert out.conclusion == x * y
    assert out.generators == GeneratorSet((x * y,))
    assert len(out) == 1  # x*y is the new distinguished generator
    assert_valid(out)


def test_nil_product_structure():
    # p: x*a in Nil(a), q: b*y in Nil(b) -> (x*a)*(b*y) in Nil(a*b)
    a, b = x * x - x, y * y - y
    pb = DagBuilder(NIL, GeneratorSet((a,)))
    p = pb.build(pb.mult(x, pb.intro(0), one))
    qb = DagBuilder(NIL, GeneratorSet((b,)))
    q = qb.build(qb.mult(one, qb.intro(0), y))
    out = nil_product(p, q)
    assert out.conclusion == p.conclusion * q.conclusion
    assert out.generators.elements == (a * b,)
    assert_valid(out)


def test_nil_product_through_red_nodes():
    # p concludes x*y via Red((x*y)^2); multiply with an Intro of z
    pb = DagBuilder(NIL, GeneratorSet((x * y * x * y,)))
    p = pb.build(pb.red(pb.intro(0), x * y))
    qb = DagBuilder(NIL, GeneratorSet((z,)))
    q = qb.build(qb.intro(0))
    out = nil_product(p, q)
    assert out.conclusion == x * y * z
    assert out.generators.elements == (x * y * x * y * z,)
    assert_valid(out)
    # and with the Red on the right instead
    out = nil_product(q, p)
    assert out.conclusion == z * x * y
    assert_valid(out)


def test_nil_product_translates_a_red_node_by_one_rotation():
    # a translated Red costs a rotation (two nodes), a one-sided Mult and a
    # Red, and squares no more than the rotated word (c*y*c, or c*a*c on
    # q's side); an insert would add a fifth node and square c*y*c*y
    c, w = x + y + x * z, x - z  # 3 and 2 terms; no cancellation among words
    pb = DagBuilder(NIL, GeneratorSet((c * c,)))
    red_p = pb.build(pb.red(pb.intro(0), c))
    qb = DagBuilder(NIL, GeneratorSet((w,)))
    intro_q = qb.build(qb.intro(0))
    for p, q, claim in ((red_p, intro_q, c * w), (intro_q, red_p, w * c)):
        out = nil_product(p, q)
        assert out.conclusion == claim
        assert len(out) == 1 + 4  # Intro of the new generator, then the Red
        assert max(len(concl) for concl in out.conclusions) <= 3**4 * 2**2
        assert_valid(out)


def test_left_folded_central_roots_stay_small_at_four_constants():
    cert = certificate_from_dag(central_roots_witness(CentralConstants((0, 1, -1, 2))),
                                symbols=("x", "y"))
    verdict = check_certificate(cert)
    assert verdict.ok, str(verdict)
    assert len(cert.nodes) <= 140
    assert max(len(concl) for concl in verdict.conclusions) <= 16_384


def test_nil_product_with_common_generators():
    u = (x * x,)
    pb = DagBuilder(NIL, GeneratorSet(u + (x,)))
    p = pb.build(pb.add(pb.intro(0), pb.intro(1)))
    qb = DagBuilder(NIL, GeneratorSet(u + (y,)))
    q = qb.build(qb.intro(1))
    out = nil_product(p, q)
    assert out.generators.elements == u + (x * y,)
    assert out.conclusion == (x * x + x) * y
    assert_valid(out)


def test_nil_product_random_pairs_stay_small_and_valid():
    rng = random.Random(61)
    for _ in range(60):
        p, q = witgen.nil_pair(rng, ("x", "y"), rng.randint(0, 5))
        out = nil_product(p, q)
        assert out.conclusion == p.conclusion * q.conclusion
        assert len(out) <= 8 * (len(p) + 1) * (len(q) + 1)
        common = p.generators.elements[:-1]
        ab = p.generators.elements[-1] * q.generators.elements[-1]
        assert out.generators.elements == common + (ab,)
        assert_valid(out)


def test_nil_product_rejects_mismatched_inputs():
    p = product_witness("x")
    sq = DagBuilder(SQRT, GeneratorSet((y,)))
    with pytest.raises(TransformError, match="nil_product needs two nil witnesses"):
        nil_product(p, sq.build(sq.intro(0)))
    qb = DagBuilder(NIL, GeneratorSet((x * x, y)))
    with pytest.raises(TransformError, match="generator sets must agree except in the last"):
        nil_product(p, qb.build(qb.intro(0)))
    eb = DagBuilder(NIL, GeneratorSet())
    with pytest.raises(TransformError, match="both inputs need a distinguished generator"):
        nil_product(p, eb.build(eb.zero()))


def test_nil_product_budget():
    a, b = x * x - x, y * y - y
    pb = DagBuilder(NIL, GeneratorSet((a,)))
    p = pb.build(pb.mult(x, pb.intro(0), one))
    qb = DagBuilder(NIL, GeneratorSet((b,)))
    q = qb.build(qb.mult(one, qb.intro(0), y))
    assert len(nil_product(p, q)) > 2  # so the budget, not the input, decides
    with node_budget(2), pytest.raises(BudgetExceededError):
        nil_product(p, q)


def test_nil_product_translates_essential_red_nodes_on_both_sides():
    # no earlier node concludes c (or d), so each Red is its own
    # translation: times_y's Red branch on p, a_times's on q
    c, d = x + y, x - z
    pb = DagBuilder(NIL, GeneratorSet((c * c,)))
    p = pb.build(pb.red(pb.intro(0), c))
    qb = DagBuilder(NIL, GeneratorSet((d * d,)))
    q = qb.build(qb.red(qb.intro(0), d))
    out = nil_product(p, q)
    assert out.conclusion == c * d
    reds = {node.conclusion for node in out.nodes if isinstance(node, Red)}
    assert c * d in reds  # times_y's Red, to c*y with y = d
    assert c * c * d in reds  # a_times's Red, to a*d with a = c*c
    assert_valid(out)


def test_nil_product_reads_each_conclusion_once():
    # Add(s, Zero) and Red(Mult(s, s, 1), s) repeat the conclusion s, so
    # the product is that of the bare Intros
    pb = DagBuilder(NIL, GeneratorSet((x,)))
    s = pb.intro(0)
    p = pb.build(pb.add(pb.red(pb.mult(x, s, one), x), pb.zero()))
    qb = DagBuilder(NIL, GeneratorSet((y,)))
    q = qb.build(qb.add(qb.zero(), qb.intro(0)))
    out = nil_product(p, q)
    assert out.conclusion == x * y
    assert len(out) == len(nil_product(product_witness("x"), product_witness("y"))) == 1
    assert_valid(out)


def chain(setting, gen, depth, step):
    """Intro(gen) under depth nested step(builder, inner, leaf) nodes."""
    b = DagBuilder(setting, GeneratorSet((gen,)))
    node = leaf = b.intro(0)
    for _ in range(depth):
        node = step(b, node, leaf)
    return b.build(node)


def times_gen(b, inner, leaf):
    return b.mult(one, inner, b.conclusion(leaf))


def plus_leaf(b, inner, leaf):
    return b.add(inner, leaf)


def times_one(b, inner, leaf):
    return b.mult(one, inner, one)


def size(dag):
    return len(serialize(certificate_from_dag(dag)))


def test_products_translate_deep_chains_on_either_side():
    # the inductions keep pending nodes on a list, not on the interpreter's
    # stack, so no depth is too deep; Mult(1, ., gen) chains grow their words
    # with the depth, and a nil Mult(1, ., 1) chain repeats its conclusion.
    # The output is linear in the inputs: each input node gives at most one
    # output node, plus one splice (an insert, four nodes)
    for setting, depth, step in (
        (NIL, 900, times_gen), (SQRT, 900, times_gen),
        (NIL, 20_000, plus_leaf), (SQRT, 20_000, times_one),
    ):
        product = nil_product if setting == NIL else lambda p, q: sqrt_product(p, q, one)
        deep_x, deep_y = chain(setting, x, depth, step), chain(setting, y, depth, step)
        flat_x, flat_y = chain(setting, x, 0, None), chain(setting, y, 0, None)
        for p, q in ((deep_x, flat_y), (flat_x, deep_y)):
            out = product(p, q)
            assert out.conclusion == p.conclusion * q.conclusion
            assert len(out) <= len(p) + len(q) + 4
            assert size(out) <= 2 * (size(p) + size(q))
            assert_valid(out)


@pytest.mark.parametrize("setting", [NIL, SQRT])
def test_products_translate_a_mult_run_as_one_mult(setting):
    # a run of n Mult(1, ., gen) nodes is one Mult by gen^n, so the node count
    # does not grow with n and the bytes grow by the same amount at each step
    product = nil_product if setting == NIL else lambda p, q: sqrt_product(p, q, one)
    flat_x, flat_y = chain(setting, x, 0, None), chain(setting, y, 0, None)
    for pair in (lambda depth: (chain(setting, x, depth, times_gen), flat_y),
                 lambda depth: (flat_x, chain(setting, y, depth, times_gen))):
        outs = [product(*pair(depth)) for depth in (100, 200, 300)]
        for out in outs:
            assert_valid(out)
        assert {len(out) for out in outs} == {6 if setting == NIL else 2}
        sizes = [size(out) for out in outs]
        assert sizes[2] - sizes[1] == sizes[1] - sizes[0] > 0


@pytest.mark.parametrize("setting, unfused", [(NIL, 11), (SQRT, 3)])
def test_products_fuse_a_mult_run_only_where_its_factors_do_not_grow(setting, unfused):
    # Mult(f, Mult(f, Intro(x), f), f) against Mult(f*f, Intro(x), f*f): a
    # monomial f fuses to the very bytes of the latter's product, while
    # f = x+y+z would fuse 3-term factors into 9-term ones, so each Mult
    # is translated alone
    product = nil_product if setting == NIL else lambda p, q: sqrt_product(p, q, one)
    flat_y = chain(setting, y, 0, None)
    for f in (y, x + y + z):
        run, fused = (DagBuilder(setting, GeneratorSet((x,))) for _ in range(2))
        run = run.build(run.mult(f, run.mult(f, run.intro(0), f), f))
        fused = fused.build(fused.mult(f * f, fused.intro(0), f * f))
        out = product(run, flat_y)
        assert_valid(out)
        if len(f) == 1:
            assert certificate_from_dag(out) == certificate_from_dag(product(fused, flat_y))
        else:
            assert len(out) == unfused


def shared_mult(setting, gen, other):
    """A Mult below two Mult parents and an Add: Intro(gen) times gen,
    then times other on either side, all summed."""
    b = DagBuilder(setting, GeneratorSet((gen,)))
    leaf = b.intro(0)
    shared = b.mult(one, leaf, gen)
    parents = b.add(b.mult(one, shared, other), b.mult(other, shared, one))
    return b.build(b.add(parents, b.add(shared, leaf)))


@pytest.mark.parametrize("setting, sides, nodes", [
    # the node counts before runs were fused were 17, 17, 33, 10, 9 and 34
    (NIL, "p", 13), (NIL, "q", 13), (NIL, "pq", 25),
    (SQRT, "p", 9), (SQRT, "q", 8), (SQRT, "pq", 30),
])
def test_products_translate_a_shared_mult_in_every_run_through_it(setting, sides, nodes):
    p = shared_mult(setting, x, y) if "p" in sides else chain(setting, x, 0, None)
    q = shared_mult(setting, y, x) if "q" in sides else chain(setting, y, 0, None)
    out = nil_product(p, q) if setting == NIL else sqrt_product(p, q, z)
    assert len(out) == nodes
    assert_valid(out)


def test_nil_intersect():
    # x*y sits in Nil(x) and in Nil(y); intersecting gives Nil(x*y)
    pb = DagBuilder(NIL, GeneratorSet((x,)))
    p = pb.build(pb.mult(one, pb.intro(0), y))
    qb = DagBuilder(NIL, GeneratorSet((y,)))
    q = qb.build(qb.mult(x, qb.intro(0), one))
    out = nil_intersect(p, q)
    assert out.conclusion == x * y
    assert out.generators.elements == (x * y,)
    assert_valid(out)

    with pytest.raises(TransformError, match="the two witnesses conclude different elements"):
        nil_intersect(p, qb.build(qb.intro(0)))


# -- sqrt products ----------------------------------------------------------


def test_sqrt_product_of_plain_intros():
    pb = DagBuilder(SQRT, GeneratorSet((x,)))
    p = pb.build(pb.intro(0))
    qb = DagBuilder(SQRT, GeneratorSet((y,)))
    q = qb.build(qb.intro(0))
    out = sqrt_product(p, q, z)
    assert out.conclusion == x * z * y
    assert out.generators == GeneratorSet((), [(x, y)])
    assert_valid(out)


def test_sqrt_product_threads_mult_factors_into_the_middle():
    pb = DagBuilder(SQRT, GeneratorSet((x,)))
    p = pb.build(pb.mult(y, pb.intro(0), y))  # y*x*y
    qb = DagBuilder(SQRT, GeneratorSet((y,)))
    q = qb.build(qb.mult(one, qb.intro(0), x))  # y*x
    out = sqrt_product(p, q, z)
    assert out.conclusion == (y * x * y) * z * (y * x)
    assert out.generators.families == ((x, y),)
    assert_valid(out)


def test_sqrt_product_copies_existing_families():
    fams = ((x, x),)
    pb = DagBuilder(SQRT, GeneratorSet((x,), fams))
    p = pb.build(pb.intro_family(0, y))  # x*y*x
    qb = DagBuilder(SQRT, GeneratorSet((y,), fams))
    q = qb.build(qb.intro(0))
    out = sqrt_product(p, q, one)
    assert out.conclusion == (x * y * x) * y
    assert out.generators.families == ((x, x), (x, y))
    assert_valid(out)


def test_sqrt_product_instantiates_semiprime_premises():
    # p proves x for every bound via x*w*x; the product must requantify
    w = Symbol.decode("w#0")
    pb = DagBuilder(SQRT, GeneratorSet((x,)))
    prem = pb.mult(x * Poly.symbol(w), pb.intro(0), one)
    p = pb.build(pb.semiprime(w, prem, x))
    qb = DagBuilder(SQRT, GeneratorSet((y,)))
    q = qb.build(qb.intro(0))
    for mid in (one, z, x + 2 * y):
        out = sqrt_product(p, q, mid)
        assert out.conclusion == x * mid * y
        top = out.nodes[out.root]
        assert isinstance(top, Semiprime)
        assert top.bound == Symbol.decode("w#1")
        assert_valid(out)
    # mirrored: the Semiprime witness on the right
    out = sqrt_product(q, p, z)
    assert out.conclusion == y * z * x
    assert_valid(out)


def bound_reusing_witnesses(c, w):
    """Over (c,): nested Semiprimes that share the bound w; a witness of
    c + w*c whose w is also bound inside a Semiprime; and a Semiprime
    over a fresh v around one over w whose conclusion c*v mentions v, so
    a middle that mentions w meets w inside the scope of w."""
    W, v = Poly.symbol(w), Symbol.decode("v#0")
    V = Poly.symbol(v)
    b = DagBuilder(SQRT, GeneratorSet((c,)))
    inner = b.semiprime(w, b.mult(c * W, b.intro(0), one), c)
    nested = b.build(b.semiprime(w, b.mult(c * W, inner, one), c))
    free = b.build(b.add(inner, b.mult(W, b.intro(0), one)))
    scoped = b.semiprime(w, b.mult(c * V * W, b.intro(0), V), c * V)
    around = b.build(b.semiprime(v, b.mult(one, scoped, c), c))
    return nested, free, around


def test_sqrt_product_reads_reused_bounds_without_capture():
    w = Symbol.decode("w#0")
    qb = DagBuilder(SQRT, GeneratorSet((y,)))
    for p in bound_reusing_witnesses(x, w):
        for q in (qb.build(qb.intro(0)), *bound_reusing_witnesses(y, w)):
            for mid in (one, Poly.symbol(w), x * Poly.symbol(w) + y):
                for left, right in ((p, q), (q, p)):
                    out = sqrt_product(left, right, mid)
                    assert out.conclusion == left.conclusion * mid * right.conclusion
                    assert_valid(out)


def test_sqrt_product_builds_in_one_arena(monkeypatch):
    w = Symbol.decode("w#0")
    p = bound_reusing_witnesses(x, w)[0]
    q = bound_reusing_witnesses(y, w)[0]
    arenas = []
    init = DagBuilder.__init__

    def counting_init(self, *args, **kwargs):
        arenas.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DagBuilder, "__init__", counting_init)
    out = sqrt_product(p, q, z)
    assert len(arenas) == 1
    assert out.conclusion == x * z * y
    assert_valid(out)


def test_sqrt_product_random_pairs():
    rng = random.Random(71)
    for trial in range(40):
        p, q = witgen.sqrt_pair(rng, ("x", "y"), rng.randint(0, 4),
                                force_semiprime=trial % 2 == 0)
        mid = witgen.rand_poly(rng, ("x", "y"), max_terms=2)
        out = sqrt_product(p, q, mid)
        assert out.conclusion == p.conclusion * mid * q.conclusion
        fams = p.generators.families
        a = p.generators.elements[-1]
        b = q.generators.elements[-1]
        assert out.generators.families == fams + ((a, b),)
        assert out.generators.elements == p.generators.elements[:-1]
        assert_valid(out)


def test_sqrt_product_translates_q_once_per_middle():
    # p reaches its distinguished generator twice with one middle but
    # under different pending instances; q's translation reads neither,
    # so it is made once, and draws its bound names once
    rng = random.Random(691)
    p, q = witgen.sqrt_pair(rng, ("x", "y"), rng.randint(1, 4), force_semiprime=True)
    out = sqrt_product(p, q, x)
    assert len(out) == 11
    assert_valid(out)


def test_sqrt_product_gives_the_same_bytes_every_call():
    rng = random.Random(20)
    mid = z * Poly.symbol(Symbol.decode("w#0"))  # the name witgen gives its bounds
    for _ in range(20):
        p, q = witgen.sqrt_pair(rng, ("x", "y"), 3, force_semiprime=True)
        first, second = (sqrt_product(p, q, mid) for _ in range(2))
        assert serialize(certificate_from_dag(first)) == serialize(certificate_from_dag(second))
        assert_valid(first)


def witgen_products(pairs: int):
    """(p, q, product) for witgen pairs drawn from seeds 0, 1, ...: nil pairs
    at even seeds, sqrt pairs with middle x at odd ones."""
    for seed in range(pairs):
        rng = random.Random(seed)
        if seed % 2:
            p, q = witgen.sqrt_pair(rng, ("x", "y"), rng.randint(1, 4), force_semiprime=True)
            yield p, q, sqrt_product(p, q, x)
        else:
            p, q = witgen.nil_pair(rng, ("x", "y"), rng.randint(1, 4))
            yield p, q, nil_product(p, q)


def products_digest(pairs: int = 60) -> str:
    """One hash over the bytes of products and instantiations of witgen pairs."""
    digest = hashlib.sha256()
    for p, q, product in witgen_products(pairs):
        outs = [product]
        for w in (p, q):
            schematic = sorted((s for s in dag_symbols(w) if s.is_schematic), key=Symbol.encode)
            outs += [substitute_schematic(w, s, x * y) for s in schematic]
        for out in outs:
            digest.update(serialize(certificate_from_dag(out)))
    return digest.hexdigest()


def test_products_give_the_same_bytes_in_any_process():
    # the memos key dicts by Poly and by environment tuples, so the bytes must
    # not follow hash order, and a second call must not see the first's memo
    first = products_digest()
    assert products_digest() == first
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilcert.__file__)))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    for hash_seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", "import test_transforms as t; print(t.products_digest())"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == first + "\n"


# products_digest(200) as first recorded.  A change to the transforms, to
# substitute_schematic or to witgen that alters these bytes on purpose
# pins the new digest here and records the reason in CHANGES.md, as a
# re-baselined golden does.
PINNED_PRODUCTS_DIGEST = "54904910b1ea87870e952b38d4cb5d16e94ea65e4bcf44307771a3f993e02a6d"


def test_products_keep_their_pinned_bytes():
    assert products_digest(200) == PINNED_PRODUCTS_DIGEST


# Over the products of products_digest(200)'s pairs: total nodes, total
# bytes and the most terms of any conclusion.  A change that makes products
# smaller on purpose lowers these, as it re-pins the digest.
PINNED_PRODUCTS_SIZE = (1_520, 153_781, 188)


def test_products_stay_within_their_pinned_size():
    products = [product for _, _, product in witgen_products(200)]
    measured = (
        sum(map(len, products)),
        sum(len(serialize(certificate_from_dag(out))) for out in products),
        max(len(c) for out in products for c in out.conclusions),
    )
    assert all(map(operator.le, measured, PINNED_PRODUCTS_SIZE)), measured


def test_the_reference_checker_accepts_every_product():
    for _, _, product in witgen_products(200):
        cert = certificate_from_dag(product)
        assert check_certificate(cert).ok
        assert refcheck(json.loads(serialize(cert))) == (True, None, None)


def test_sqrt_product_rejects_nil_inputs():
    p = product_witness("x")
    with pytest.raises(TransformError, match="sqrt_product needs two sqrt witnesses"):
        sqrt_product(p, p, one)


@pytest.mark.parametrize("side", ["p", "q"])
@pytest.mark.parametrize("setting, foreign, product", [
    (NIL, Semiprime(Symbol.decode("w#0"), 0, y), nil_product),
    (SQRT, Red(0, y), lambda p, q: sqrt_product(p, q, one)),
], ids=["nil", "sqrt"])
def test_products_refuse_a_node_of_the_other_setting(side, setting, foreign, product):
    builder = DagBuilder(setting, GeneratorSet((x,)))
    good = builder.build(builder.intro(0))
    # made by hand, as no builder admits it: above Intro(0) of x, a root
    # of the other setting concluding y
    bad = WitnessDag(setting, GeneratorSet((x,)), (Intro(0), foreign), (x, y), 1)
    with pytest.raises(TransformError, match=f"unexpected node in {setting} witness"):
        product(bad, good) if side == "p" else product(good, bad)


def test_sqrt_intersect():
    # c = x*y belongs to sqrt(x) and sqrt(y); intersect quantifies it
    c = x * y
    pb = DagBuilder(SQRT, GeneratorSet((x,)))
    p = pb.build(pb.mult(one, pb.intro(0), y))
    qb = DagBuilder(SQRT, GeneratorSet((y,)))
    q = qb.build(qb.mult(x, qb.intro(0), one))
    out = sqrt_intersect(p, q)
    assert out.conclusion == c
    assert out.generators == GeneratorSet((), [(x, y)])
    assert isinstance(out.nodes[out.root], Semiprime)
    assert_valid(out)

    with pytest.raises(TransformError, match="the two witnesses conclude different elements"):
        sqrt_intersect(p, qb.build(qb.intro(0)))


def test_sqrt_intersect_bound_avoids_the_inputs_symbols():
    # library-built inputs that mention z#0: the bound is the next free z
    z0 = Poly.symbol(Symbol.decode("z#0"))
    pb = DagBuilder(SQRT, GeneratorSet((x,)))
    p = pb.build(pb.mult(z0, pb.intro(0), y))
    qb = DagBuilder(SQRT, GeneratorSet((y,)))
    q = qb.build(qb.mult(z0 * x, qb.intro(0), one))
    out = sqrt_intersect(p, q)
    assert out.nodes[out.root].bound == Symbol.decode("z#1")
    assert_valid(out)


def test_repeated_intersects_add_no_symbols():
    pb = DagBuilder(SQRT, GeneratorSet((x,)))
    p = pb.build(pb.mult(one, pb.intro(0), y))
    qb = DagBuilder(SQRT, GeneratorSet((y,)))
    q = qb.build(qb.mult(x, qb.intro(0), one))
    first = sqrt_intersect(p, q)
    size = len(ring._symbols)
    for _ in range(1000):
        assert sqrt_intersect(p, q) == first
    assert len(ring._symbols) == size
    assert_valid(first)
