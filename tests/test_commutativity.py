"""End-to-end commutativity certificates and their proof logs."""

from __future__ import annotations

import pathlib

import pytest

import oracle
from nilcert import (
    CentralConstants,
    DagBuilder,
    GeneratorSet,
    NIL,
    Poly,
    ProofLog,
    ProofStep,
    WitnessError,
    base_symbol,
    central_roots_witness,
    certificate_from_dag,
    check_certificate,
    commutator_factor_witness,
    deserialize,
    emit_proof_log,
    serialize,
    xn_demo,
)

x = Poly.symbol(base_symbol("x"))
y = Poly.symbol(base_symbol("y"))
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def test_central_constants_validation():
    assert CentralConstants((0, 1, -1)).constants == (0, 1, -1)
    with pytest.raises(ValueError, match="at least one"):
        CentralConstants(())
    with pytest.raises(ValueError, match="distinct"):
        CentralConstants((1, 1))
    with pytest.raises(ValueError, match="integers"):
        CentralConstants((1, "2"))


def test_central_constants_rejects_unhashable_entries():
    # the distinctness check hashed each entry before the integer check ran
    with pytest.raises(ValueError, match="integers"):
        CentralConstants(([1],))
    with pytest.raises(ValueError, match="integers"):
        CentralConstants((0, True))


def test_commutator_factor_witness_is_independent_of_the_shift():
    for c in range(-5, 6):
        dag = commutator_factor_witness(c, base_symbol("x"), base_symbol("y"))
        assert dag.conclusion == x * y - y * x
        assert dag.generators.elements == (x - Poly.constant(c),)
        assert len(dag) == 4
        assert check_certificate(certificate_from_dag(dag)).ok


def test_central_roots_witness_single_constant():
    cert = certificate_from_dag(central_roots_witness(CentralConstants((0,))), symbols=("x", "y"))
    assert cert.claim == x * y - y * x
    assert cert.generators.elements == (x,)
    assert cert.symbols == ("x", "y")
    assert check_certificate(cert).ok


def test_central_roots_witness_folds_the_factors():
    cert = certificate_from_dag(central_roots_witness(CentralConstants((0, 1))), symbols=("x", "y"))
    assert cert.generators.elements == (x * (x - Poly.one()),)
    assert check_certificate(cert).ok
    cert = certificate_from_dag(central_roots_witness(CentralConstants((0, 1, -1))),
                                symbols=("x", "y"))
    assert cert.generators.elements == (x ** 3 - x,)
    assert check_certificate(cert).ok


def test_central_roots_witness_folds_a_zero_root_first():
    # x - 0 is a monomial, so the fold squares less after it
    def shape(roots):
        cert = certificate_from_dag(central_roots_witness(CentralConstants(roots)))
        verdict = check_certificate(cert)
        assert verdict.ok, str(verdict)
        return cert.generators, len(cert.nodes), max(map(len, verdict.conclusions))

    for given, zero_first, size in (((-2, -1, 0, 1), (0, -2, -1, 1), (130, 16_384)),
                                    ((-1, 0, 1), (0, -1, 1), (50, 64))):
        want = shape(zero_first)
        assert want[1:] == size
        assert shape(given) == want


@pytest.mark.parametrize("n, gen", [(2, x ** 2 - x), (3, x ** 3 - x)])
def test_xn_demo_certificates(n, gen):
    cert, log = xn_demo(n)
    assert cert.setting == "nil"
    assert cert.claim == x * y - y * x
    assert cert.generators.elements == (gen,)
    assert check_certificate(cert).ok
    # the certificate is sound: wherever the generator dies in Z/30,
    # the commutator dies too
    assert oracle.soundness_counterexamples(serialize(cert)) == []


def test_xn_demo_log_shape():
    cert, log = xn_demo(3)
    steps = log.steps
    assert len(steps) == len(cert.nodes) + 3
    assert steps[0].kind == "narrative"
    assert "reduced" in steps[0].statement
    assert steps[-1].kind == "narrative"
    assert "commute" in steps[-1].statement
    summary = steps[-2]
    assert summary.kind == "certified"
    assert "intersection rule" in summary.statement
    assert summary.node == cert.root
    for i, step in enumerate(steps[1:-2]):
        assert step.kind == "certified"
        assert step.node == i
        assert "is in Nil(U)" in step.statement


def test_xn_demo_is_deterministic():
    c1, l1 = xn_demo(3)
    c2, l2 = xn_demo(3)
    assert serialize(c1) == serialize(c2)
    assert l1.render() == l2.render()


def test_xn_demo_rejects_other_exponents():
    for n in (1, 4, 5, 6):
        message = rf"no all-integer linear factorization of x\^{n} - x; supported: 2, 3"
        with pytest.raises(ValueError, match=message):
            xn_demo(n)


def test_render_writes_one_markdown_item_per_step():
    log = ProofLog(
        (
            ProofStep("alpha.", "narrative"),
            ProofStep("beta.", "certified", 0),
            ProofStep("gamma.", "certified", 5),
        )
    )
    assert log.render() == (
        "- **narrative.** alpha.\n"
        "- **certified.** beta. (node 0)\n"
        "- **certified.** gamma. (node 5)\n"
    )


def test_emit_proof_log_replays_every_node():
    cert, _ = xn_demo(2)
    md = emit_proof_log(cert)
    assert len(md.splitlines()) == len(cert.nodes)
    assert all(line.startswith("- **certified.**") for line in md.splitlines())


def test_emit_proof_log_of_a_sqrt_certificate_names_family_and_semiprime_steps():
    cert = deserialize((GOLDEN / "intersect_sqrt.cert.json").read_bytes())
    assert emit_proof_log(cert).splitlines() == [
        "- **certified.** x*y*z#0*x*y is in sqrt(U): introduction from family 0 at instance "
        "y*z#0*x. (node 0)",
        "- **certified.** x*y*z#0*x*y is in sqrt(U): two-sided multiple of node 0. (node 1)",
        "- **certified.** x*y*z#0*x*y is in sqrt(U): two-sided multiple of node 1. (node 2)",
        "- **certified.** x*y is in sqrt(U): semiprime rule on node 2, quantified over the "
        "schematic bound z#0. (node 3)",
    ]


def test_emit_proof_log_for_a_zero_only_certificate():
    b = DagBuilder(NIL, GeneratorSet())
    cert = certificate_from_dag(b.build(b.zero()))
    md = emit_proof_log(cert)
    assert md == "- **certified.** 0 is in Nil(U): zero is in every ideal. (node 0)\n"


def test_emit_proof_log_refuses_invalid_certificates():
    cert, _ = xn_demo(2)
    broken = cert._replace(claim=cert.claim + Poly.one())
    with pytest.raises(WitnessError, match="CLAIM_MISMATCH"):
        emit_proof_log(broken)
