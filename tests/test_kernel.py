"""The trusted kernel stands alone: four modules decide every verdict."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import kernel_lines
import nilcert

PACKAGE = pathlib.Path(nilcert.__file__).parent


def package_imports(path: pathlib.Path) -> set[str]:
    """The modules of the package that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    return {name for name in found if name.startswith(("nilcert", "."))}


def test_kernel_modules_import_only_each_other():
    kernel = {"nilcert." + name.removesuffix(".py") for name in kernel_lines.KERNEL}
    for name in kernel_lines.KERNEL:
        assert package_imports(PACKAGE / name) <= kernel, name


@pytest.fixture(scope="module")
def fresh_trace() -> tuple[dict[str, int], str]:
    """Lines per file a verdict runs, from ``kernel_lines.py`` in a new
    process (a warm one skips lines that run on first use only), and its
    output."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, kernel_lines.__file__], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    counts = {line.split()[0]: int(line.split()[1]) for line in done.stdout.splitlines()}
    assert done.returncode in (0, 1) and "total" in counts, done.stdout + done.stderr
    return counts, done.stdout


def test_a_verdict_runs_only_kernel_lines(fresh_trace):
    counts, stdout = fresh_trace
    files = set(counts) - {"total"}
    assert {"certificate.py", "checker.py", "ring.py"} <= files, stdout
    assert files <= set(kernel_lines.KERNEL), stdout


# Distinct lines a verdict runs in a fresh process; the kernel must not
# grow to buy speed, so lower this bound whenever the kernel shrinks.
KERNEL_LINES = 237


def test_the_kernel_does_not_grow(fresh_trace):
    counts, stdout = fresh_trace
    assert counts["total"] <= KERNEL_LINES, stdout
