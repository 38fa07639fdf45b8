"""The trusted kernel stands alone: four modules decide every verdict,
and ``nilcert check`` loads no other module of the package."""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys
import types
import typing

import pytest

import kernel_lines
import nilcert
import nilcert.cli

PACKAGE = pathlib.Path(nilcert.__file__).parent
KERNEL_MODULES = {"nilcert." + name.removesuffix(".py") for name in kernel_lines.KERNEL}


def source(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(), name)


def package_imports(tree: ast.AST) -> set[str]:
    """The modules of the package that a parsed file, or a part of one, imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    return {name for name in found if name.startswith(("nilcert", "."))}


def test_kernel_modules_import_only_each_other():
    for name in kernel_lines.KERNEL:
        assert package_imports(source(name)) <= KERNEL_MODULES, name


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


def test_check_stays_on_the_kernel_along_its_error_exits(tmp_path):
    # an except clause that names the transform errors loads their modules when an
    # exception reaches it, so check's own errors must be caught before that clause
    golden = (kernel_lines.GOLDEN / "x2.cert.json").read_bytes()
    # a root past the last node (BAD_REF), then a cut that leaves no JSON value
    (tmp_path / "invalid.json").write_bytes(golden.replace(b'"root":', b'"root":1', 1))
    (tmp_path / "truncated.json").write_bytes(golden[: len(golden) // 2])
    probe = "\n".join([
        "import sys, nilcert.cli",
        "codes = [nilcert.cli.main(['check', path]) for path in sys.argv[1:]]",
        "print(*codes)",
        LOADED,
    ])
    done = fresh_python("-c", probe, "invalid.json", "truncated.json", "missing.json",
                        cwd=tmp_path)
    *_, codes, loaded = done.stdout.splitlines()
    assert codes.split() == ["1", "2", "2"], done.stdout + done.stderr
    assert set(loaded.split()) == {"nilcert", "nilcert.cli"} | KERNEL_MODULES


def test_no_cli_function_imports_a_package_module():
    # commands read their layers as nilcert.<name>, so nilcert._HOME alone maps names to modules
    for node in ast.walk(source("cli.py")):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            assert not package_imports(node), node.name


def test_cli_annotations_resolve_without_loading_other_layers_at_import():
    for value in vars(nilcert.cli).values():
        if inspect.isfunction(value) and value.__module__ == "nilcert.cli":
            typing.get_type_hints(value)  # NameError for a name the module cannot see
    hints = typing.get_type_hints(nilcert.cli._load_dag)
    assert hints["return"] == tuple[nilcert.Certificate, nilcert.WitnessDag]


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


MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("__"))


@pytest.mark.parametrize("module", MODULES)
def test_every_modules_star_import_binds_its_all(module):
    namespace: dict = {}
    exec(f"from nilcert.{module} import *", namespace)
    listed = importlib.import_module(f"nilcert.{module}").__all__
    assert [name for name in listed if name not in namespace] == []


def module_level(body: list[ast.stmt]):
    """The statements of ``body`` and of the blocks in it, outside functions and classes."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                yield from module_level(getattr(node, block, []))


def test_every_module_level_import_is_used_or_exported():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        module = "nilcert" if path.stem == "__init__" else f"nilcert.{path.stem}"
        kept = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        kept |= set(getattr(importlib.import_module(module), "__all__", ()))
        imported = [
            (alias.asname or alias.name).partition(".")[0]
            for statement in module_level(tree.body)
            if isinstance(statement, (ast.Import, ast.ImportFrom))
            and getattr(statement, "module", None) != "__future__"
            for alias in statement.names
        ]
        assert [name for name in imported if name not in kept] == [], path.name


def test_no_public_callable_takes_a_node_budget():
    # the budget is scoped by node_budget, never passed down through signatures
    found = [getattr(nilcert, name) for name in nilcert.__all__]
    found += [member for _, member in inspect.getmembers(nilcert.DagBuilder, callable)]
    for value in filter(callable, found):
        try:
            parameters = inspect.signature(value).parameters
        except ValueError:  # a builtin without a signature
            continue
        assert "max_nodes" not in parameters, value


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
KERNEL_LINES = 225


def test_the_kernel_does_not_grow(fresh_trace):
    counts, stdout = fresh_trace
    assert counts["total"] <= KERNEL_LINES, stdout


# -- writing files ------------------------------------------------------------


def calls_by_function(node: ast.AST, owner: str | None = None):
    """Each call in a parsed file, with the name of the function it is in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls_by_function(child, child.name)
            continue
        if isinstance(child, ast.Call):
            yield owner, child
        yield from calls_by_function(child, owner)


def writes_a_file(call: ast.Call) -> bool:
    """An ``open(...)`` whose mode writes (a mode that is not a literal
    counts), or a ``write_bytes`` or ``write_text`` call."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr in ("write_bytes", "write_text")
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    modes = call.args[1:2] + [word.value for word in call.keywords if word.arg == "mode"]
    return bool(modes) and (not isinstance(modes[0], ast.Constant)
                            or any(flag in modes[0].value for flag in "wax+"))


def test_every_output_is_written_by_the_one_in_place_writer():
    # an open with O_TRUNC costs far more than one without, so cli._write alone opens for writing
    descriptor_opens, writing_opens = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, call in calls_by_function(ast.parse(path.read_text(), path.name)):
            where = (path.name, owner)
            if ast.unparse(call.func) in ("os.open", "os.fdopen", "io.open"):
                descriptor_opens.append((where, call))
            elif writes_a_file(call):
                writing_opens.append((where, call))
    assert [where for where, _ in descriptor_opens] == [("cli.py", "_write")]
    assert ast.unparse(descriptor_opens[0][1].func) == "os.open"
    assert "O_TRUNC" not in ast.unparse(descriptor_opens[0][1])
    assert [where for where, _ in writing_opens] == [("cli.py", "_write")]
    (write,) = [node for node in source("cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "_write"]
    assigned = {ast.unparse(node.value): node.targets[0].id
                for node in ast.walk(write) if isinstance(node, ast.Assign)}
    assert ast.unparse(writing_opens[0][1].args[0]) == assigned[ast.unparse(descriptor_opens[0][1])]
