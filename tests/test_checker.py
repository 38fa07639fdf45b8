"""Independent certificate checking: every reason code, deterministically."""

from __future__ import annotations

import random

import pytest

import witgen
from nilcert import (
    Certificate,
    DagBuilder,
    GeneratorSet,
    NIL,
    Poly,
    SQRT,
    Symbol,
    base_symbol,
    certificate_from_dag,
    check_certificate,
)
from nilcert.checker import (
    BAD_REF,
    CLAIM_MISMATCH,
    CYCLE,
    GEN_INDEX,
    RED_SQUARE_MISMATCH,
    SEMIPRIME_CAPTURE,
    SEMIPRIME_SHAPE,
    WRONG_SETTING,
)
from nilcert.certificate import Add, Intro, IntroFamily, Mult, Red, Semiprime, Zero

x = Poly.symbol(base_symbol("x"))
y = Poly.symbol(base_symbol("y"))
one = Poly.one()


def nil_cert() -> Certificate:
    """Intro, Mult, Red, Add and Zero in one small valid witness."""
    b = DagBuilder(NIL, GeneratorSet((x * y,)))
    prem = b.mult(x * y, b.intro(0), one)  # (x*y)^2
    red = b.red(prem, x * y)
    dag = b.build(b.add(red, b.zero()))
    return certificate_from_dag(dag)


def sqrt_cert() -> Certificate:
    z = Symbol.decode("z#0")
    b = DagBuilder(SQRT, GeneratorSet((x,), [(x, y)]))
    fam = b.intro_family(0, one)
    prem = b.mult(x * Poly.symbol(z), b.intro(0), one)
    dag = b.build(b.add(fam, b.semiprime(z, prem, x)))
    return certificate_from_dag(dag)


def raw(setting, gens, nodes, claim, root, symbols=("x", "y")) -> Certificate:
    """Bypass every construction-time check; the checker sees it cold."""
    return Certificate(
        setting=setting,
        symbols=symbols,
        generators=gens,
        claim=claim,
        nodes=tuple(nodes),
        root=root,
    )


def verdict_of(cert):
    verdict = check_certificate(cert)
    assert check_certificate(cert) == verdict  # deterministic
    return verdict


def test_valid_certificates_pass():
    for cert in (nil_cert(), sqrt_cert()):
        verdict = verdict_of(cert)
        assert verdict.ok
        assert bool(verdict)
        assert str(verdict) == "valid"


def test_valid_random_witnesses_pass():
    rng = random.Random(53)
    for _ in range(30):
        p, q = witgen.sqrt_pair(rng, ("x", "y"), rng.randint(0, 4))
        for dag in (p, q):
            assert verdict_of(certificate_from_dag(dag)).ok


def test_wrong_setting():
    cert = nil_cert()._replace(setting="sqrt")  # contains a Red node
    verdict = verdict_of(cert)
    assert (verdict.reason, verdict.ok) == (WRONG_SETTING, False)
    assert verdict.node == 2  # the Red

    verdict = verdict_of(sqrt_cert()._replace(setting="nil"))
    assert verdict.reason == WRONG_SETTING
    assert verdict.node is None  # families already illegal before any node

    fam_free = raw(
        "nil",
        GeneratorSet((x,), [(x, y)]),
        [Zero()],
        Poly.zero(),
        0,
    )
    assert verdict_of(fam_free).reason == WRONG_SETTING

    verdict = verdict_of(nil_cert()._replace(setting="radical"))
    assert (verdict.reason, verdict.node) == (WRONG_SETTING, None)

    verdict = verdict_of(
        raw("nil", GeneratorSet(), [IntroFamily(0, one)], Poly.zero(), 0)
    )
    assert (verdict.reason, verdict.node) == (WRONG_SETTING, 0)


def test_gen_index():
    verdict = verdict_of(raw("nil", GeneratorSet((x,)), [Intro(3)], x, 0))
    assert (verdict.reason, verdict.node) == (GEN_INDEX, 0)
    verdict = verdict_of(raw("nil", GeneratorSet((x,)), [Intro(-1)], x, 0))
    assert (verdict.reason, verdict.node) == (GEN_INDEX, 0)
    verdict = verdict_of(
        raw("sqrt", GeneratorSet((x,), [(x, y)]), [IntroFamily(1, one)], x, 0)
    )
    assert (verdict.reason, verdict.node) == (GEN_INDEX, 0)


def test_bad_ref():
    gens = GeneratorSet((x,))
    cases = [
        [Intro(0), Add(0, 9)],
        [Intro(0), Add(-1, 0)],
        [Intro(0), Mult(one, 5, one)],
        [Intro(0), Red(7, x)],
    ]
    for nodes in cases:
        verdict = verdict_of(raw("nil", gens, nodes, x, 0))
        assert (verdict.reason, verdict.node) == (BAD_REF, 1)
    verdict = verdict_of(raw("nil", gens, [Intro(0)], x, 4))
    assert (verdict.reason, verdict.node) == (BAD_REF, None)
    verdict = verdict_of(raw("nil", gens, [Intro(0)], x, -1))
    assert (verdict.reason, verdict.node) == (BAD_REF, None)


def test_cycle():
    gens = GeneratorSet((x,))
    verdict = verdict_of(raw("nil", gens, [Add(0, 0)], x, 0))
    assert (verdict.reason, verdict.node) == (CYCLE, 0)
    # 1 <-> 2, smallest stuck id is blamed
    nodes = [Intro(0), Mult(one, 2, one), Mult(one, 1, one)]
    verdict = verdict_of(raw("nil", gens, nodes, x, 0))
    assert (verdict.reason, verdict.node) == (CYCLE, 1)
    # node 0 only waits on the cycle 2 -> 2; it is still the smallest stuck id
    nodes = [Mult(one, 2, one), Intro(0), Add(2, 2)]
    verdict = verdict_of(raw("nil", gens, nodes, x, 0))
    assert (verdict.reason, verdict.node) == (CYCLE, 0)
    assert verdict.detail == "node waits on a reference cycle"


def test_red_square_mismatch():
    cert = nil_cert()
    nodes = list(cert.nodes)
    i = next(k for k, nd in enumerate(nodes) if isinstance(nd, Red))
    nodes[i] = Red(nodes[i].premise, y * x)
    verdict = verdict_of(cert._replace(nodes=tuple(nodes)))
    assert (verdict.reason, verdict.node) == (RED_SQUARE_MISMATCH, i)

    nodes[i] = Red(nodes[i].premise, 2 * x * y)
    verdict = verdict_of(cert._replace(nodes=tuple(nodes)))
    assert verdict.reason == RED_SQUARE_MISMATCH


def test_semiprime_shape():
    z = Symbol.decode("z#0")
    zp = Poly.symbol(z)
    gens = GeneratorSet((x,))
    good_prem = [Intro(0), Mult(x * zp, 0, one)]  # x*z*x

    verdict = verdict_of(
        raw("sqrt", gens, good_prem + [Semiprime(base_symbol("y"), 1, x)], x, 2)
    )
    assert (verdict.reason, verdict.node) == (SEMIPRIME_SHAPE, 2)

    verdict = verdict_of(raw("sqrt", gens, good_prem + [Semiprime(z, 1, y)], y, 2))
    assert (verdict.reason, verdict.node) == (SEMIPRIME_SHAPE, 2)


def test_semiprime_capture_in_conclusion():
    # premise (z*x)*z*(z*x) built without builder help: Mult(z, x, z*z*x)
    z = Symbol.decode("z#0")
    zp = Poly.symbol(z)
    nodes = [Intro(0), Mult(zp, 0, zp * zp * x), Semiprime(z, 1, zp * x)]
    verdict = verdict_of(raw("sqrt", GeneratorSet((x,)), nodes, zp * x, 2))
    assert (verdict.reason, verdict.node) == (SEMIPRIME_CAPTURE, 2)
    assert "conclusion" in verdict.detail


def test_semiprime_capture_in_generators():
    z = Symbol.decode("z#0")
    zp = Poly.symbol(z)
    gens = GeneratorSet((x, zp))  # the second generator mentions the bound
    nodes = [Intro(0), Mult(x * zp, 0, one), Semiprime(z, 1, x)]
    verdict = verdict_of(raw("sqrt", gens, nodes, x, 2))
    assert (verdict.reason, verdict.node) == (SEMIPRIME_CAPTURE, 2)
    assert "generators" in verdict.detail


def test_never_bound_schematic_generator_is_accepted():
    # a schematic generator nobody binds acts as one more indeterminate
    q = Poly.symbol(Symbol.decode("q#0"))
    verdict = verdict_of(raw("sqrt", GeneratorSet((q,)), [Intro(0)], q, 0))
    assert verdict.ok


def test_claim_mismatch():
    cert = nil_cert()
    verdict = verdict_of(cert._replace(claim=cert.claim + one))
    assert (verdict.reason, verdict.node) == (CLAIM_MISMATCH, cert.root)
    assert not verdict
    assert str(verdict).startswith("invalid: node")


def test_unreachable_nodes_are_still_checked():
    gens = GeneratorSet((x,))
    nodes = [Intro(0), Intro(5)]  # node 1 is garbage but never referenced
    verdict = verdict_of(raw("nil", gens, nodes, x, 0))
    assert (verdict.reason, verdict.node) == (GEN_INDEX, 1)


def test_structural_errors_win_over_semantic_ones():
    # a Red square mismatch at node 2 loses to a dangling ref at node 3
    gens = GeneratorSet((x,))
    nodes = [Intro(0), Mult(x, 0, one), Red(1, x + one), Add(0, 50)]
    verdict = verdict_of(raw("nil", gens, nodes, x + one, 2))
    assert (verdict.reason, verdict.node) == (BAD_REF, 3)
    # with the structural problem fixed, the semantic one surfaces
    nodes[3] = Add(0, 0)
    verdict = verdict_of(raw("nil", gens, nodes, x + one, 2))
    assert (verdict.reason, verdict.node) == (RED_SQUARE_MISMATCH, 2)


def test_smallest_offending_node_is_blamed():
    gens = GeneratorSet((x,))
    nodes = [
        Intro(0),
        Mult(x, 0, one),
        Red(1, x + one),  # wrong
        Mult(y, 0, one),
        Red(3, y + one),  # also wrong
    ]
    verdict = verdict_of(raw("nil", gens, nodes, x + one, 2))
    assert verdict.node == 2


def test_sharing_and_duplication_agree():
    # one witness with a shared premise, one with the subtree copied
    b = DagBuilder(NIL, GeneratorSet((x * y,)))
    prem = b.mult(x * y, b.intro(0), one)
    shared = b.build(b.add(b.red(prem, x * y), b.red(prem, x * y)))
    assert check_certificate(certificate_from_dag(shared)).ok

    gens = GeneratorSet((x * y,))
    nodes = [
        Intro(0),
        Mult(x * y, 0, one),
        Red(1, x * y),
        Intro(0),
        Mult(x * y, 3, one),
        Red(4, x * y),
        Add(2, 5),
    ]
    unshared = raw("nil", gens, nodes, 2 * x * y, 6)
    assert verdict_of(unshared).ok

    # corrupting the shared node is caught exactly once, at its id
    bad = list(nodes)
    bad[1] = Mult(y * x, 0, one)
    verdict = verdict_of(raw("nil", gens, bad, 2 * x * y, 6))
    assert (verdict.reason, verdict.node) == (RED_SQUARE_MISMATCH, 2)
