"""The trusted kernel stands alone: four modules decide every verdict."""

from __future__ import annotations

import ast
import pathlib

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
