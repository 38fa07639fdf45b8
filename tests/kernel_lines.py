"""Count the package lines that a verdict executes.

Run from the repository root (the checkout's ``src/`` is used when no
``nilcert`` is importable)::

    python3 tests/kernel_lines.py

Reads each golden certificate with ``deserialize`` and checks it with
``check_certificate`` under ``sys.settrace``, then prints, per file of
the package, how many distinct lines ran, and their total.  Code run at
import time is not counted.  Every file should be one of KERNEL;
``tests/test_kernel.py`` asserts that on the same trace, and that the
total of a fresh process stays within its bound.
"""

from __future__ import annotations

import os
import pathlib
import sys

try:
    import nilcert
except ModuleNotFoundError:  # run from a checkout with nothing on the path
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    import nilcert

from nilcert import check_certificate, deserialize

KERNEL = ("ring.py", "record.py", "certificate.py", "checker.py")
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def verdict_lines() -> dict[str, set[int]]:
    """File name -> the distinct lines of the package run by deserialize
    and check_certificate over the golden certificates."""
    package = os.path.join(os.path.dirname(nilcert.__file__), "")
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    datas = [path.read_bytes() for path in sorted(GOLDEN.glob("*.cert.json"))]
    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        verdicts = [check_certificate(deserialize(data)) for data in datas]
    finally:
        sys.settrace(previous)
    if len(verdicts) != 3 or not all(verdicts):
        raise AssertionError(f"expected three valid goldens, got {verdicts}")
    return {pathlib.Path(name).name: lines for name, lines in ran.items()}


def main() -> int:
    lines = verdict_lines()
    for name, ran in sorted(lines.items()):
        note = "" if name in KERNEL else "  (outside the kernel)"
        print(f"{name:<16}{len(ran):>5}{note}")
    print(f"{'total':<16}{sum(map(len, lines.values())):>5}")
    return 0 if set(lines) <= set(KERNEL) else 1


if __name__ == "__main__":
    sys.exit(main())
