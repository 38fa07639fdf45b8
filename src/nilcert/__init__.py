"""Certified membership witnesses for the smallest reduced ideal Nil U
and the smallest semiprime ideal sqrt U of the free noncommutative ring
over the integers.

The package splits into a small trusted kernel and everything else.
The kernel is four modules: ``ring`` (arithmetic), ``record`` (value
records), ``certificate`` (node kinds and the certificate reader and
writer) and ``checker``; they import no other module of the package.
Builders and transforms may be arbitrarily clever because their outputs
are re-verified from scratch by the checker.
"""

from nilcert.certificate import (
    NIL,
    SQRT,
    Certificate,
    GeneratorSet,
    MalformedCertificateError,
    UnsupportedVersionError,
    deserialize,
    serialize,
)
from nilcert.certio import certificate_from_dag, dag_from_certificate
from nilcert.checker import Verdict, check_certificate
from nilcert.commutativity import (
    CentralConstants,
    ProofLog,
    ProofStep,
    central_roots_witness,
    commutator_factor_witness,
    emit_proof_log,
    xn_demo,
)
from nilcert.lang import (
    ParseError,
    ProblemError,
    ProblemFile,
    UndeclaredIdentifierError,
    parse_poly,
    parse_problem,
    print_poly,
)
from nilcert.ring import (
    Poly,
    Symbol,
    base_symbol,
    commutator,
    fresh_schematic,
    substitute,
)
from nilcert.transforms import (
    Permutation,
    TransformError,
    insert,
    nil_intersect,
    nil_product,
    permute,
    rotate,
    sqrt_intersect,
    sqrt_product,
)
from nilcert.witness import (
    BudgetExceededError,
    DagBuilder,
    WitnessDag,
    WitnessError,
    conclusion_of,
    substitute_schematic,
)

__version__ = "0.1.0"

__all__ = [
    "NIL",
    "SQRT",
    "Poly",
    "Symbol",
    "base_symbol",
    "fresh_schematic",
    "commutator",
    "substitute",
    "ParseError",
    "ProblemError",
    "UndeclaredIdentifierError",
    "ProblemFile",
    "parse_poly",
    "print_poly",
    "parse_problem",
    "GeneratorSet",
    "WitnessDag",
    "DagBuilder",
    "WitnessError",
    "BudgetExceededError",
    "conclusion_of",
    "substitute_schematic",
    "Certificate",
    "MalformedCertificateError",
    "UnsupportedVersionError",
    "serialize",
    "deserialize",
    "certificate_from_dag",
    "dag_from_certificate",
    "Verdict",
    "check_certificate",
    "Permutation",
    "TransformError",
    "rotate",
    "insert",
    "permute",
    "nil_product",
    "nil_intersect",
    "sqrt_product",
    "sqrt_intersect",
    "CentralConstants",
    "ProofStep",
    "ProofLog",
    "commutator_factor_witness",
    "central_roots_witness",
    "xn_demo",
    "emit_proof_log",
    "__version__",
]
