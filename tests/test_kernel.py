"""The trusted kernel stands alone: four modules decide every verdict."""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

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


def test_a_verdict_runs_only_kernel_lines():
    lines = kernel_lines.verdict_lines()
    assert {"certificate.py", "checker.py", "ring.py"} <= set(lines)
    assert set(lines) <= set(kernel_lines.KERNEL)


# Distinct lines a verdict runs in a fresh process; the kernel must not
# grow to buy speed, so lower this bound whenever the kernel shrinks.
KERNEL_LINES = 237


def test_the_kernel_does_not_grow():
    # a new process, since a warm one skips lines that run on first use only
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, kernel_lines.__file__], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    assert int(done.stdout.split()[-1]) <= KERNEL_LINES, done.stdout
