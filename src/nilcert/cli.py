"""Command-line surface.

Exit codes: 0 success, 1 a certificate or input combination is
semantically invalid (diagnostic on stderr), 2 parse/IO/usage trouble.
Certificates contain no timestamps, so every command's output is
byte-reproducible.  NILCERT_MAX_NODES overrides the node budget.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from nilcert.certificate import Certificate, GeneratorSet, deserialize, serialize
from nilcert.certio import certificate_from_dag, dag_from_certificate
from nilcert.checker import check_certificate
from nilcert.commutativity import xn_demo
from nilcert.lang import parse_poly, parse_problem
from nilcert.ring import _NUMERAL, Poly, fresh_schematic
from nilcert.transforms import (
    Permutation,
    TransformError,
    nil_intersect,
    nil_product,
    permute,
    sqrt_intersect,
    sqrt_product,
)
from nilcert.witness import DEFAULT_MAX_NODES, WitnessDag, WitnessError, dag_symbols

__all__ = ["main"]


def _fail(code: int, message: str) -> int:
    print(f"nilcert: {message}", file=sys.stderr)
    return code


def _numeral(text: str) -> int:
    """An ASCII decimal numeral, as certificates spell numbers; int()
    would also take other scripts' digits and underscores."""
    text = text.strip()
    if not _NUMERAL.match(text):
        raise ValueError(f"not a numeral: {text!r}")
    return int(text)


def _load(path: str, max_nodes: int) -> Certificate:
    """Read and parse a certificate file.

    A certificate with more nodes than the budget is refused before the
    checker evaluates anything.
    """
    with open(path, "rb") as handle:
        cert = deserialize(handle.read())
    if len(cert.nodes) > max_nodes:
        raise _InvalidInput(f"{path}: {len(cert.nodes)} nodes exceed the node budget {max_nodes}")
    return cert


def _load_dag(path: str, max_nodes: int) -> tuple[Certificate, WitnessDag]:
    """Read a certificate file and build its DAG, checking it once."""
    cert = _load(path, max_nodes)
    try:
        return cert, dag_from_certificate(cert, max_nodes)
    except WitnessError as err:
        raise _InvalidInput(f"{path}: {err}") from None


class _InvalidInput(Exception):
    """Semantically bad input; maps to exit code 1."""


def _require_valid(cert: Certificate, context: str) -> None:
    # the verdict's conclusions are freed on return, before any writing
    verdict = check_certificate(cert)
    if not verdict:
        raise _InvalidInput(f"{context}: {verdict}")


def _write_cert(cert: Certificate, path: str) -> None:
    _require_valid(cert, "produced certificate failed validation")
    with open(path, "wb") as handle:
        handle.write(serialize(cert))
    print(path)


def _cmd_check(args, max_nodes: int) -> int:
    cert = _load(args.certificate, max_nodes)
    _require_valid(cert, args.certificate)
    print(f"{args.certificate}: valid ({len(cert.nodes)} nodes, setting {cert.setting})")
    return 0


def _cmd_demo(args, max_nodes: int) -> int:
    n = {"x2": 2, "x3": 3}[args.name]
    cert, log = xn_demo(n)
    out = args.out or f"{args.name}.cert.json"
    log_out = args.log or f"{args.name}.log.md"
    _write_cert(cert, out)
    with open(log_out, "w", encoding="utf-8") as handle:
        handle.write(log.render("markdown"))
    print(log_out)
    return 0


def _split_product_generators(problem):
    gens = problem.generator_polys()
    if len(gens) < 2:
        raise _InvalidInput(
            "problem must list the common generators followed by a and b"
        )
    return gens[:-2], gens[-2], gens[-1]


def _require_setting(flag: str | None, *settings: str) -> str:
    found = {s for s in settings if s is not None}
    if flag is not None:
        found.add(flag)
    if len(found) != 1:
        raise _InvalidInput(f"conflicting settings: {', '.join(sorted(found))}")
    return found.pop()


def _cmd_product(args, max_nodes: int) -> int:
    with open(args.problem, "r", encoding="utf-8") as handle:
        problem = parse_problem(handle.read())
    setting = _require_setting(args.setting, problem.setting)
    common, a, b = _split_product_generators(problem)
    families = problem.family_polys()
    p_cert, p_dag = _load_dag(args.p_certificate, max_nodes)
    q_cert, q_dag = _load_dag(args.q_certificate, max_nodes)
    _require_setting(setting, p_cert.setting, q_cert.setting)
    expect_p = GeneratorSet(common + (a,), families)
    expect_q = GeneratorSet(common + (b,), families)
    if p_cert.generators != expect_p:
        raise _InvalidInput(f"{args.p_certificate}: generators do not match the problem's U, a")
    if q_cert.generators != expect_q:
        raise _InvalidInput(f"{args.q_certificate}: generators do not match the problem's U, b")
    if setting == "nil":
        if args.m is not None:
            raise _InvalidInput("--m only applies to the sqrt setting")
        out_dag = nil_product(p_dag, q_dag, max_nodes)
    else:
        if args.m is not None:
            middle = parse_poly(args.m, problem.symbols)
        else:
            middle = Poly.symbol(fresh_schematic("z", dict.fromkeys(dag_symbols(p_dag, q_dag))))
        out_dag = sqrt_product(p_dag, q_dag, middle, max_nodes)
    out_cert = certificate_from_dag(out_dag, symbols=problem.symbols)
    _write_cert(out_cert, args.out or "product.cert.json")
    return 0


def _cmd_permute(args, max_nodes: int) -> int:
    cert, dag = _load_dag(args.certificate, max_nodes)
    factor_srcs = [s.strip() for s in args.factors.split(";") if s.strip()]
    factors = [parse_poly(src, cert.symbols) for src in factor_srcs]
    try:
        images = tuple(_numeral(part) for part in args.sigma.split(","))
    except ValueError:
        raise ValueError(f"--sigma must be a comma-separated list of integers: {args.sigma!r}")
    sigma = Permutation(images)  # ValueError (exit 2) if not a bijection
    if sigma.n != len(factors):
        raise ValueError(f"--sigma has {sigma.n} entries for {len(factors)} factors")
    out_dag = permute(dag, factors, sigma, max_nodes)
    out_cert = certificate_from_dag(out_dag, symbols=cert.symbols)
    _write_cert(out_cert, args.out or "permuted.cert.json")
    return 0


def _cmd_intersect(args, max_nodes: int) -> int:
    p_cert, p_dag = _load_dag(args.p_certificate, max_nodes)
    q_cert, q_dag = _load_dag(args.q_certificate, max_nodes)
    setting = _require_setting(args.setting, p_cert.setting, q_cert.setting)
    if p_cert.claim != q_cert.claim:
        raise _InvalidInput("the two certificates claim different elements")
    if setting == "nil":
        out_dag = nil_intersect(p_dag, q_dag, max_nodes)
    else:
        out_dag = sqrt_intersect(p_dag, q_dag, max_nodes)
    symbols = p_cert.symbols + tuple(
        name for name in q_cert.symbols if name not in p_cert.symbols
    )
    out_cert = certificate_from_dag(out_dag, symbols=symbols)
    _write_cert(out_cert, args.out or "intersect.cert.json")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and reused by later main() calls
    parser = argparse.ArgumentParser(
        prog="nilcert",
        description="Build and check membership certificates for Nil/sqrt ideals "
        "of the free noncommutative ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a certificate file")
    p_check.add_argument("certificate")
    p_check.set_defaults(func=_cmd_check)

    p_demo = sub.add_parser("demo", help="emit a commutativity certificate and proof log")
    p_demo.add_argument("name", choices=("x2", "x3"))
    p_demo.add_argument("-o", "--out", help="certificate path (default NAME.cert.json)")
    p_demo.add_argument("--log", help="proof log path (default NAME.log.md)")
    p_demo.set_defaults(func=_cmd_demo)

    p_product = sub.add_parser(
        "product", help="combine witnesses over U+a and U+b into one over the product"
    )
    p_product.add_argument("problem", help="problem file listing U, a, b as generators")
    p_product.add_argument("p_certificate")
    p_product.add_argument("q_certificate")
    p_product.add_argument("--setting", choices=("nil", "sqrt"))
    p_product.add_argument("--m", help="middle element (sqrt only; default the least unused z#uid)")
    p_product.add_argument("-o", "--out", help="output path (default product.cert.json)")
    p_product.set_defaults(func=_cmd_product)

    p_permute = sub.add_parser("permute", help="permute the factors of a witnessed product")
    p_permute.add_argument("certificate")
    p_permute.add_argument("--factors", required=True, help="factor expressions, ';'-separated")
    p_permute.add_argument("--sigma", required=True, help="images sigma(1..n), comma-separated")
    p_permute.add_argument("-o", "--out", help="output path (default permuted.cert.json)")
    p_permute.set_defaults(func=_cmd_permute)

    p_intersect = sub.add_parser(
        "intersect", help="combine two witnesses of the same element"
    )
    p_intersect.add_argument("p_certificate")
    p_intersect.add_argument("q_certificate")
    p_intersect.add_argument("--setting", choices=("nil", "sqrt"))
    p_intersect.add_argument("-o", "--out", help="output path (default intersect.cert.json)")
    p_intersect.set_defaults(func=_cmd_intersect)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    raw_budget = os.environ.get("NILCERT_MAX_NODES")
    if raw_budget is None:
        max_nodes = DEFAULT_MAX_NODES
    else:
        try:
            max_nodes = _numeral(raw_budget)
        except ValueError:
            max_nodes = 0
        if max_nodes < 1:
            return _fail(2, f"NILCERT_MAX_NODES must be a positive integer, got {raw_budget!r}")
    try:
        return args.func(args, max_nodes)
    except (_InvalidInput, WitnessError, TransformError) as err:
        return _fail(1, str(err))
    except (OSError, ValueError) as err:
        return _fail(2, str(err))


if __name__ == "__main__":
    sys.exit(main())
