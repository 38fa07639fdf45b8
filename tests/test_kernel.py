"""The trusted kernel stands alone: four modules decide every verdict,
and ``nilcert check`` loads no other module of the package."""

from __future__ import annotations

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import types

import pytest

import kernel_lines
import nilcert
import nilcert.cli

PACKAGE = pathlib.Path(nilcert.__file__).parent
KERNEL_MODULES = {"nilcert." + name.removesuffix(".py") for name in kernel_lines.KERNEL}


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
    for name in kernel_lines.KERNEL:
        assert package_imports(PACKAGE / name) <= KERNEL_MODULES, name


def fresh_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run this checkout's package in a new interpreter."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path))


LOADED = "print(*sorted(name for name in sys.modules if name.split('.')[0] == 'nilcert'))"


def test_importing_the_cli_loads_only_the_kernel():
    done = fresh_python("-c", f"import sys, nilcert.cli\n{LOADED}")
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) == {"nilcert", "nilcert.cli"} | KERNEL_MODULES


def test_check_runs_on_the_kernel_alone():
    probe = "\n".join([
        "import sys, nilcert.cli",
        "codes = [nilcert.cli.main(['check', path]) for path in sys.argv[1:]]",
        "print(*codes)",
        LOADED,
    ])
    goldens = sorted(map(str, kernel_lines.GOLDEN.glob("*.cert.json")))
    done = fresh_python("-c", probe, *goldens)
    *_, codes, loaded = done.stdout.splitlines()
    assert len(goldens) == 3 and codes.split() == ["0"] * 3, done.stdout + done.stderr
    assert set(loaded.split()) == {"nilcert", "nilcert.cli"} | KERNEL_MODULES


def test_the_other_commands_load_their_layers_in_a_fresh_process(tmp_path):
    x, y = (nilcert.Poly.symbol(nilcert.base_symbol(name)) for name in "xy")
    for name, generator in (("p", x), ("q", y)):
        builder = nilcert.DagBuilder(nilcert.NIL, nilcert.GeneratorSet((generator,)))
        dag = builder.build(builder.intro(0))
        cert = nilcert.certificate_from_dag(dag, symbols=("x", "y"))
        (tmp_path / f"{name}.json").write_bytes(nilcert.serialize(cert))
    (tmp_path / "prob.txt").write_text("setting: nil\nsymbols: x; y\ngenerators: x; y\n")
    for argv in (["demo", "x2"],
                 ["product", "prob.txt", "p.json", "q.json"],
                 ["permute", "product.cert.json", "--factors", "x; y", "--sigma", "2,1"],
                 ["intersect", "p.json", "p.json"]):
        done = fresh_python("-m", "nilcert", *argv, cwd=tmp_path)
        assert done.returncode == 0, (argv, done.stderr)


# -- the package namespace ----------------------------------------------------


def test_each_public_name_is_its_defining_modules_object():
    for name in set(nilcert.__all__) - {"__version__"}:
        home = importlib.import_module("nilcert." + nilcert._HOME[name])
        value = getattr(nilcert, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from nilcert import *", namespace)
    for name in nilcert.__all__:
        assert namespace[name] is getattr(nilcert, name), name


@pytest.mark.parametrize("module", [nilcert, nilcert.cli], ids=["package", "cli"])
def test_unknown_names_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {module.__name__} import no_such_name", {})


@pytest.fixture(scope="module")
def fresh_trace() -> tuple[dict[str, int], str]:
    """Lines per file a verdict runs, from ``kernel_lines.py`` in a new
    process (a warm one skips lines that run on first use only), and its
    output."""
    done = fresh_python(kernel_lines.__file__)
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
KERNEL_LINES = 233


def test_the_kernel_does_not_grow(fresh_trace):
    counts, stdout = fresh_trace
    assert counts["total"] <= KERNEL_LINES, stdout
