"""Commutativity from membership certificates.

The pivot fact: for any integer c, the commutator x*y - y*x equals
(x-c)*y - y*(x-c), so it lies in Nil(x-c) for every c at once.
Intersecting over several constants places it in Nil of the product of
the linear factors; with the factors of x^n - x this certifies that a
reduced ring satisfying x^n = x is commutative.  Two inferences stay
outside the certificate (that x^n = x forces reducedness, and that the
free-ring certificate instantiates into any such ring); they appear in
the proof log as explicitly flagged narrative steps.  The log has one
format, a markdown list with one item per step, which ``nilcert demo``
writes and emit_proof_log returns.
"""

from __future__ import annotations

from nilcert.certificate import (
    Add,
    Certificate,
    GeneratorSet,
    Intro,
    IntroFamily,
    Mult,
    NIL,
    Red,
    Semiprime,
)
from nilcert.certio import certificate_from_dag
from nilcert.checker import check_certificate
from nilcert.lang import print_poly
from nilcert.record import Record
from nilcert.ring import Poly, Symbol, base_symbol
from nilcert.witness import DagBuilder, WitnessDag, WitnessError
from nilcert.transforms import nil_intersect

__all__ = [
    "CentralConstants",
    "ProofStep",
    "ProofLog",
    "commutator_factor_witness",
    "central_roots_witness",
    "xn_demo",
    "emit_proof_log",
]


class CentralConstants(Record):
    """Distinct integers c_1..c_n; integers are central in the free ring."""

    __slots__ = ()

    def __new__(cls, constants: tuple[int, ...]):
        constants = tuple(constants)
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in constants):
            raise ValueError("constants must be integers")
        if not constants:
            raise ValueError("need at least one constant")
        if len(set(constants)) != len(constants):
            raise ValueError("constants must be pairwise distinct")
        return tuple.__new__(cls, (constants,))


class ProofStep(Record):
    __slots__ = ()

    def __new__(cls, statement: str, kind: str, node: int | None = None):
        # kind is "certified" or "narrative"; node is the certificate node it cites
        return tuple.__new__(cls, (statement, kind, node))


class ProofLog(Record):
    __slots__ = ()

    def __new__(cls, steps: tuple[ProofStep, ...]):
        return tuple.__new__(cls, (steps,))

    def render(self) -> str:
        """The log as a markdown list, one item per step."""
        lines = []
        for step in self.steps:
            ref = "" if step.node is None else f" (node {step.node})"
            lines.append(f"- **{step.kind}.** {step.statement}{ref}")
        return "\n".join(lines) + "\n"


def commutator_factor_witness(c: int, x: Symbol, y: Symbol) -> WitnessDag:
    """Witness that x*y - y*x lies in Nil(x - c).

    (x-c)*y - y*(x-c) collapses to the commutator because the constant
    cancels, so two Mult nodes and one Add over Intro(x-c) suffice.
    """
    xp = Poly.symbol(x)
    yp = Poly.symbol(y)
    factor = xp - Poly.constant(c)
    builder = DagBuilder(NIL, GeneratorSet((factor,)))
    gen = builder.intro(0)
    left = builder.mult(Poly.one(), gen, yp)
    right = builder.mult(-yp, gen, Poly.one())
    return builder.build(builder.add(left, right))


def central_roots_witness(cs: CentralConstants) -> WitnessDag:
    """Witness that x*y - y*x lies in Nil((x-c_1)*...*(x-c_n)).

    Folds nil_intersect left to right over the per-factor witnesses, a zero
    root first: x - 0 is a monomial, so each later level squares less (roots
    -2, -1, 0, 1 reach 16,384 terms, not 4,194,304 as given).  The other
    roots keep their order, so output bytes are reproducible.
    certificate_from_dag(dag, symbols=("x", "y")) writes it out.
    """
    x, y = base_symbol("x"), base_symbol("y")
    dag, *rest = [commutator_factor_witness(c, x, y) for c in sorted(cs.constants, key=bool)]
    for other in rest:
        dag = nil_intersect(dag, other)
    return dag


# n -> (the roots of x^n - x, the chain z = ... = 0 that follows from z^2 = 0)
_DEMOS = {2: ((0, 1), "z^2"), 3: ((0, 1, -1), "z^3 = z*z^2")}


def xn_demo(n: int) -> tuple[Certificate, ProofLog]:
    """Certificate and proof log for: rings with x^n = x are commutative.

    Only n = 2 and n = 3 are offered; those are the exponents for which
    x^n - x splits into linear factors with integer roots, which the
    construction needs.  (Already x^5 - x carries the factor x^2 + 1.)
    """
    if n not in _DEMOS:
        raise ValueError(
            f"no all-integer linear factorization of x^{n} - x; supported: 2, 3"
        )
    # the certificate keeps the DAG's node ids, so its conclusions apply
    roots, chain = _DEMOS[n]
    dag = central_roots_witness(CentralConstants(roots))
    cert = certificate_from_dag(dag, symbols=("x", "y"))
    generator = print_poly(cert.generators.elements[0], cert.symbols)
    claim = print_poly(cert.claim, cert.symbols)
    reduced = (
        f"In a ring where z^{n} = z for every z, suppose z^2 = 0; "
        f"then z = {chain} = 0. So the ring is reduced."
    )
    steps = (
        ProofStep(reduced, "narrative"),
        *_replay_steps(cert, dag.conclusions),
        ProofStep(
            f"{claim} is in Nil({generator}) by the intersection rule "
            "Nil(U,a) & Nil(U,b) <= Nil(U,a*b), folded over the linear factors "
            f"of {generator}.",
            "certified",
            cert.root,
        ),
        ProofStep(
            f"In a ring where z^{n} = z for every element z, the generator "
            f"{generator} vanishes at every element, so Nil({generator}) "
            f"instantiates to the zero ideal and {claim} = 0: "
            "any two elements commute.",
            "narrative",
        ),
    )
    return cert, ProofLog(steps)


def emit_proof_log(cert: Certificate) -> str:
    """The step-by-step replay of a valid certificate, as ProofLog.render writes it."""
    verdict = check_certificate(cert)
    if not verdict:
        raise WitnessError(str(verdict))
    return ProofLog(_replay_steps(cert, verdict.conclusions)).render()


def _replay_steps(cert: Certificate, concl: tuple[Poly, ...]) -> tuple[ProofStep, ...]:
    ideal = "Nil" if cert.setting == NIL else "sqrt"
    steps = []
    for i, node in enumerate(cert.nodes):
        if isinstance(node, Intro):
            rule = f"introduction of generator {node.gen}"
        elif isinstance(node, IntroFamily):
            rule = (
                f"introduction from family {node.family} at instance "
                f"{print_poly(node.instance, cert.symbols)}"
            )
        elif isinstance(node, Add):
            rule = f"sum of nodes {node.left} and {node.right}"
        elif isinstance(node, Mult):
            rule = f"two-sided multiple of node {node.inner}"
        elif isinstance(node, Red):
            rule = f"reduced-ideal rule on node {node.premise}, whose conclusion is the square"
        elif isinstance(node, Semiprime):
            rule = (
                f"semiprime rule on node {node.premise}, quantified over "
                f"the schematic bound {node.bound.encode()}"
            )
        else:
            rule = "zero is in every ideal"
        statement = f"{print_poly(concl[i], cert.symbols)} is in {ideal}(U): {rule}."
        steps.append(ProofStep(statement, "certified", i))
    return tuple(steps)
