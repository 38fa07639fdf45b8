"""Regenerate the golden certificates.

Run from the repository root in a fresh interpreter (the checkout's
``src/`` is used when no ``nilcert`` is importable)::

    python3 tests/golden/regen.py            # rewrite the three files
    python3 tests/golden/regen.py --check    # write nothing; exit 1 if any differs

A fresh interpreter matters for intersect_sqrt.cert.json: its schematic
uids come from a process-global counter, so regenerating after other
library calls would shift them.  The stored bytes are what a clean run
produces.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

try:
    import nilcert  # noqa: F401  (the copy on the path wins, as under pytest)
except ModuleNotFoundError:  # run from a checkout with nothing on the path
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))

from nilcert import (
    DagBuilder,
    GeneratorSet,
    Poly,
    SQRT,
    base_symbol,
    certificate_from_dag,
    serialize,
    sqrt_intersect,
    xn_demo,
)

HERE = pathlib.Path(__file__).parent


def sqrt_intersect_example() -> bytes:
    x = Poly.symbol(base_symbol("x"))
    y = Poly.symbol(base_symbol("y"))
    pb = DagBuilder(SQRT, GeneratorSet((x,)))
    p = pb.build(pb.mult(Poly.one(), pb.intro(0), y))
    qb = DagBuilder(SQRT, GeneratorSet((y,)))
    q = qb.build(qb.mult(x, qb.intro(0), Poly.one()))
    out = sqrt_intersect(p, q)
    return serialize(certificate_from_dag(out, symbols=("x", "y")))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden certificates.")
    parser.add_argument(
        "--check",
        action="store_true",
        help="regenerate in memory, write nothing, exit 1 on any byte difference",
    )
    args = parser.parse_args(argv)
    status = 0
    for name, data in (
        ("x2.cert.json", serialize(xn_demo(2)[0])),
        ("x3.cert.json", serialize(xn_demo(3)[0])),
        ("intersect_sqrt.cert.json", sqrt_intersect_example()),
    ):
        path = HERE / name
        if not args.check:
            path.write_bytes(data)
            print(f"wrote {path} ({len(data)} bytes)")
        elif path.exists() and path.read_bytes() == data:
            print(f"unchanged {path}")
        else:
            print(f"differs {path}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
