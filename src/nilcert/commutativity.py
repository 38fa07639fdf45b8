"""Commutativity from membership certificates.

The pivot fact: for any integer c, the commutator x*y - y*x equals
(x-c)*y - y*(x-c), so it lies in Nil(x-c) for every c at once.
Intersecting over several constants places it in Nil of the product of
the linear factors; with the factors of x^n - x this certifies that a
reduced ring satisfying x^n = x is commutative.  Two inferences stay
outside the certificate (that x^n = x forces reducedness, and that the
free-ring certificate instantiates into any such ring); they appear in
the proof log as explicitly flagged narrative steps.
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
from nilcert.witness import DEFAULT_MAX_NODES, DagBuilder, WitnessDag, WitnessError
from nilcert.transforms import nil_intersect

__all__ = [
    "CentralConstants",
    "UnsupportedExponentError",
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


class UnsupportedExponentError(ValueError):
    pass


class ProofStep(Record):
    __slots__ = ()

    def __new__(cls, statement: str, kind: str, cert_ref: tuple[int, int] | None = None):
        # kind is "certified" or "narrative"
        return tuple.__new__(cls, (statement, kind, cert_ref))


class ProofLog(Record):
    __slots__ = ()

    def __new__(cls, steps: tuple[ProofStep, ...]):
        return tuple.__new__(cls, (steps,))

    def render(self, style: str = "text") -> str:
        if style not in ("text", "markdown"):
            raise ValueError(f"unknown style {style!r}")
        lines = []
        for step in self.steps:
            ref = ""
            if step.cert_ref is not None:
                lo, hi = step.cert_ref
                ref = f" (node {lo})" if lo == hi else f" (nodes {lo}..{hi})"
            if style == "markdown":
                lines.append(f"- **{step.kind}.** {step.statement}{ref}")
            else:
                lines.append(f"[{step.kind}] {step.statement}{ref}")
        return "\n".join(lines) + "\n"


def commutator_factor_witness(c: int, x: Symbol, y: Symbol,
                              max_nodes: int = DEFAULT_MAX_NODES) -> WitnessDag:
    """Witness that x*y - y*x lies in Nil(x - c).

    (x-c)*y - y*(x-c) collapses to the commutator because the constant
    cancels, so two Mult nodes and one Add over Intro(x-c) suffice.
    """
    xp = Poly.symbol(x)
    yp = Poly.symbol(y)
    factor = xp - Poly.constant(c)
    builder = DagBuilder(NIL, GeneratorSet((factor,)), max_nodes)
    gen = builder.intro(0)
    left = builder.mult(Poly.one(), gen, yp)
    right = builder.mult(-yp, gen, Poly.one())
    return builder.build(builder.add(left, right))


def central_roots_witness(cs: CentralConstants) -> Certificate:
    """Certificate that x*y - y*x lies in Nil((x-c_1)*...*(x-c_n)).

    Folds nil_intersect left to right over the per-factor witnesses;
    the fold order is fixed only so output bytes are reproducible.
    """
    return certificate_from_dag(_central_roots_dag(cs), symbols=("x", "y"))


def _central_roots_dag(cs: CentralConstants, max_nodes: int = DEFAULT_MAX_NODES) -> WitnessDag:
    x, y = base_symbol("x"), base_symbol("y")
    dag = commutator_factor_witness(cs.constants[0], x, y, max_nodes)
    for c in cs.constants[1:]:
        dag = nil_intersect(dag, commutator_factor_witness(c, x, y, max_nodes), max_nodes)
    return dag


# n -> (the roots of x^n - x, the chain z = ... = 0 that follows from z^2 = 0)
_DEMOS = {2: ((0, 1), "z^2"), 3: ((0, 1, -1), "z^3 = z*z^2")}


def xn_demo(n: int, max_nodes: int = DEFAULT_MAX_NODES) -> tuple[Certificate, ProofLog]:
    """Certificate and proof log for: rings with x^n = x are commutative.

    Only n = 2 and n = 3 are offered; those are the exponents for which
    x^n - x splits into linear factors with integer roots, which the
    construction needs.  (Already x^5 - x carries the factor x^2 + 1.)
    """
    if n not in _DEMOS:
        raise UnsupportedExponentError(
            f"no all-integer linear factorization of x^{n} - x; supported: 2, 3"
        )
    # the certificate keeps the DAG's node ids, so its conclusions apply
    roots, chain = _DEMOS[n]
    dag = _central_roots_dag(CentralConstants(roots), max_nodes)
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
            (cert.root, cert.root),
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


def emit_proof_log(cert: Certificate, style: str = "text") -> str:
    """Render the step-by-step replay of a valid certificate."""
    verdict = check_certificate(cert)
    if not verdict:
        raise WitnessError(str(verdict))
    return ProofLog(_replay_steps(cert, verdict.conclusions)).render(style)


def _replay_steps(cert: Certificate, concl: tuple[Poly, ...]) -> tuple[ProofStep, ...]:
    ideal = "Nil" if cert.setting == NIL else "sqrt"
    steps = []
    for i, node in enumerate(cert.nodes):
        if isinstance(node, Intro):
            rule = f"introduction of generator {node.gen_index}"
        elif isinstance(node, IntroFamily):
            rule = (
                f"introduction from family {node.family_index} at instance "
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
        steps.append(ProofStep(statement, "certified", (i, i)))
    return tuple(steps)
