"""Certified membership witnesses for the smallest reduced ideal Nil U
and the smallest semiprime ideal sqrt U of the free noncommutative ring
over the integers.

The package splits into a small trusted kernel and everything else.
The kernel is four modules: ``ring`` (arithmetic), ``record`` (value
records), ``certificate`` (node kinds and the certificate reader and
writer) and ``checker``; they import no other module of the package.
Builders and transforms may be arbitrarily clever because their outputs
are re-verified from scratch by the checker.

Each public name loads its module on first use, so ``import nilcert``
(and ``nilcert check``) compiles no more of the package than it runs.
"""

from importlib import import_module as _import_module

# each public name, in ``__all__`` order, and the module that defines it;
# the module is imported when the name is first read
_HOME = {
    "NIL": "certificate", "SQRT": "certificate",
    "Poly": "ring", "Symbol": "ring", "base_symbol": "ring", "fresh_schematic": "ring",
    "ParseError": "lang", "ProblemError": "lang",
    "ProblemFile": "lang", "parse_poly": "lang", "print_poly": "lang", "parse_problem": "lang",
    "GeneratorSet": "certificate", "node_budget": "certificate",
    "WitnessDag": "witness", "DagBuilder": "witness", "WitnessError": "witness",
    "BudgetExceededError": "witness", "substitute_schematic": "witness",
    "Certificate": "certificate", "MalformedCertificateError": "certificate",
    "serialize": "certificate", "deserialize": "certificate",
    "certificate_from_dag": "certio", "dag_from_certificate": "certio",
    "Verdict": "checker", "check_certificate": "checker",
    "Permutation": "transforms", "TransformError": "transforms",
    "insert": "transforms", "permute": "transforms", "nil_product": "transforms",
    "nil_intersect": "transforms", "sqrt_product": "transforms", "sqrt_intersect": "transforms",
    "fresh_middle": "transforms",
    "CentralConstants": "commutativity", "ProofStep": "commutativity",
    "ProofLog": "commutativity", "commutator_factor_witness": "commutativity",
    "central_roots_witness": "commutativity", "xn_demo": "commutativity",
    "emit_proof_log": "commutativity",
}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Resolve a public name from its defining module (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"nilcert.{module}"), name)
    return value
