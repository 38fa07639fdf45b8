"""The command-line interface, exercised in real subprocesses.

Exit codes: 0 for success, 1 for semantically invalid input or failed
construction, 2 for usage, parse, and I/O errors.  Every written file
must pass `nilcert check` in a fresh process.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import nilcert
import nilcert.certio as certio
import nilcert.cli as cli
from nilcert import (
    DagBuilder,
    GeneratorSet,
    NIL,
    Poly,
    SQRT,
    base_symbol,
    certificate_from_dag,
    serialize,
)

x, y, z = (Poly.symbol(base_symbol(n)) for n in "xyz")
one = Poly.one()

# The directory holding the nilcert this process imported, so the children
# run the same code as the in-process tests.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(nilcert.__file__)))


def python(*args, cwd=None, env_extra=None):
    env = dict(os.environ)
    # An absolute path: a relative PYTHONPATH breaks imports in children
    # that start in another directory.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run(*argv, **kwargs):
    return python("-m", "nilcert", *argv, **kwargs)


def write_intro_cert(path, setting, gens, families=(), symbols=None):
    b = DagBuilder(setting, GeneratorSet(gens, families))
    dag = b.build(b.intro(len(gens) - 1))
    cert = certificate_from_dag(dag, symbols=symbols)
    path.write_bytes(serialize(cert))
    return cert


def write_product_cert(path, setting, gens, root_left, root_right, families=()):
    b = DagBuilder(setting, GeneratorSet(gens, families))
    dag = b.build(b.mult(root_left, b.intro(len(gens) - 1), root_right))
    cert = certificate_from_dag(dag)
    path.write_bytes(serialize(cert))
    return cert


# -- check / demo -----------------------------------------------------------


def test_demo_then_check_round_trip(tmp_path):
    cert_path = tmp_path / "x3.cert.json"
    log_path = tmp_path / "x3.log.md"
    result = run("demo", "x3", "-o", str(cert_path), "--log", str(log_path))
    assert result.returncode == 0, result.stderr
    assert str(cert_path) in result.stdout and str(log_path) in result.stdout
    assert log_path.read_text().startswith("- **narrative.**")

    checked = run("check", str(cert_path))
    assert checked.returncode == 0
    assert checked.stdout.strip().endswith("setting nil)")
    assert ": valid (" in checked.stdout


def test_demo_default_output_names(tmp_path):
    result = run("demo", "x2", cwd=tmp_path)
    assert result.returncode == 0
    assert (tmp_path / "x2.cert.json").exists()
    assert (tmp_path / "x2.log.md").exists()


def test_demo_output_is_reproducible_across_processes(tmp_path):
    one, two = tmp_path / "a", tmp_path / "b"
    one.mkdir(), two.mkdir()
    assert run("demo", "x3", cwd=one).returncode == 0
    assert run("demo", "x3", cwd=two).returncode == 0
    assert (one / "x3.cert.json").read_bytes() == (two / "x3.cert.json").read_bytes()
    assert (one / "x3.log.md").read_text() == (two / "x3.log.md").read_text()


def test_demo_rejects_unknown_exponents():
    result = run("demo", "x5")
    assert result.returncode == 2  # argparse usage error
    assert "invalid choice" in result.stderr


def test_check_rejects_corrupted_certificates(tmp_path):
    cert_path = tmp_path / "x2.cert.json"
    assert run("demo", "x2", "-o", str(cert_path), "--log",
               str(tmp_path / "l.md")).returncode == 0
    obj = json.loads(cert_path.read_bytes())
    red = next(n for n in obj["nodes"] if n["op"] == "red")
    red["conclusion"][0][0] = "5"
    cert_path.write_bytes(json.dumps(obj).encode())
    result = run("check", str(cert_path))
    assert result.returncode == 1
    assert "RED_SQUARE_MISMATCH" in result.stderr
    assert result.stderr.startswith("nilcert:")
    assert result.stdout == ""


def test_check_exit_codes_for_bad_files(tmp_path):
    missing = run("check", str(tmp_path / "nope.json"))
    assert missing.returncode == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_bytes(b'{"version": 1, "setting"')
    assert run("check", str(garbled)).returncode == 2

    not_json = tmp_path / "plain.txt"
    not_json.write_text("hello\n")
    assert run("check", str(not_json)).returncode == 2


def test_check_deeply_nested_json_is_malformed(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 200_000 + b"]" * 200_000)
    result = run("check", str(deep))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "nested too deeply" in result.stderr


def test_check_non_string_coefficient_is_malformed(tmp_path):
    write_intro_cert(tmp_path / "ok.json", "nil", (x,))
    obj = json.loads((tmp_path / "ok.json").read_bytes())
    obj["claim"] = [[[1], ["x"]]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    result = run("check", str(bad))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "claim[0]: coefficient must be a decimal string" in result.stderr


def test_golden_checker_runs_from_a_checkout_without_pythonpath():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, os.path.join("tests", "golden", "regen.py"), "--check"],
        capture_output=True, text=True, cwd=root, env=env,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("unchanged") == 3


def test_golden_files_regenerate_in_a_fresh_interpreter(tmp_path):
    # intersect_sqrt's schematic uids depend on the process's history, so
    # only a fresh interpreter reproduces the stored bytes
    regen = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "regen.py")
    result = python(regen, "--check", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("unchanged") == 3


def test_usage_errors():
    assert run().returncode == 2
    assert run("frobnicate").returncode == 2


def main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def test_a_reused_parser_answers_like_a_fresh_one(tmp_path, monkeypatch):
    monkeypatch.delenv("NILCERT_MAX_NODES", raising=False)
    path = str(make_three_factor_cert(tmp_path))
    script = [["demo", "x5"], ["check", path], ["--help"], ["check", path]]
    fresh = []
    for argv in script:
        cli._build_parser.cache_clear()
        fresh.append(main_in_process(argv))
    cli._build_parser.cache_clear()
    reused = [main_in_process(argv) for argv in script]
    assert cli._build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0, 0]
    assert "invalid choice" in reused[0][2]
    assert reused[1][1] == reused[3][1] == f"{path}: valid (1 nodes, setting nil)\n"
    assert reused[2][1].startswith("usage: nilcert")


def test_importing_the_cli_builds_no_parser():
    probe = "\n".join([
        "import argparse",
        "made = []",
        "init = argparse.ArgumentParser.__init__",
        "def counting(self, *args, **kwargs):",
        "    made.append(self)",
        "    init(self, *args, **kwargs)",
        "argparse.ArgumentParser.__init__ = counting",
        "import nilcert.cli",
        "at_import = len(made)",
        "nilcert.cli._build_parser()",
        "built = len(made)",
        "nilcert.cli._build_parser()",
        "print(at_import, built, len(made))",
    ])
    result = python("-c", probe)
    assert result.returncode == 0, result.stderr
    at_import, built, again = map(int, result.stdout.split())
    assert at_import == 0
    assert built > 0 and again == built


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every CLI call pays for this import, and loading those two modules
    # made up about a third of it
    probe = "\n".join([
        "import sys",
        "bare = set(sys.modules)",
        "import nilcert.cli",
        "print(*sorted(set(sys.modules) - bare))",
    ])
    result = python("-c", probe)
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "nilcert.cli" in added
    assert not added & {"dataclasses", "inspect"}


# -- product -----------------------------------------------------------------


NIL_PROBLEM = "setting: nil\nsymbols: x; y\ngenerators: x; y\n"
SQRT_PROBLEM = "setting: sqrt\nsymbols: x; y\ngenerators: x; y\n"


def test_product_nil(tmp_path):
    (tmp_path / "prob.txt").write_text(NIL_PROBLEM)
    write_intro_cert(tmp_path / "p.json", NIL, (x,), symbols=("x", "y"))
    write_intro_cert(tmp_path / "q.json", NIL, (y,), symbols=("x", "y"))
    out = tmp_path / "prod.json"
    result = run("product", str(tmp_path / "prob.txt"), str(tmp_path / "p.json"),
                 str(tmp_path / "q.json"), "-o", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == str(out)

    obj = json.loads(out.read_bytes())
    assert obj["setting"] == "nil"
    assert obj["claim"] == [["1", ["x", "y"]]]
    assert obj["generators"] == [[["1", ["x", "y"]]]]
    assert run("check", str(out)).returncode == 0


def test_product_sqrt_with_explicit_middle(tmp_path):
    (tmp_path / "prob.txt").write_text(SQRT_PROBLEM)
    write_intro_cert(tmp_path / "p.json", SQRT, (x,), symbols=("x", "y"))
    write_intro_cert(tmp_path / "q.json", SQRT, (y,), symbols=("x", "y"))
    out = tmp_path / "prod.json"
    result = run("product", str(tmp_path / "prob.txt"), str(tmp_path / "p.json"),
                 str(tmp_path / "q.json"), "--m", "x*y - 3", "-o", str(out))
    assert result.returncode == 0, result.stderr
    obj = json.loads(out.read_bytes())
    assert obj["families"] == [{"left": [["1", ["x"]]], "right": [["1", ["y"]]]}]
    # claim = x*(x*y - 3)*y
    assert obj["claim"] == [["1", ["x", "x", "y", "y"]], ["-3", ["x", "y"]]]
    assert run("check", str(out)).returncode == 0


def test_product_sqrt_default_middle_is_schematic_and_reproducible(tmp_path):
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        (d / "prob.txt").write_text(SQRT_PROBLEM)
        write_intro_cert(d / "p.json", SQRT, (x,), symbols=("x", "y"))
        write_intro_cert(d / "q.json", SQRT, (y,), symbols=("x", "y"))
        result = run("product", "prob.txt", "p.json", "q.json", cwd=d)
        assert result.returncode == 0, result.stderr
        obj = json.loads((d / "product.cert.json").read_bytes())
        claim_symbols = [s for _, word in obj["claim"] for s in word]
        assert any("#" in s for s in claim_symbols)
        assert run("check", "product.cert.json", cwd=d).returncode == 0
    assert (tmp_path / "a" / "product.cert.json").read_bytes() == (
        tmp_path / "b" / "product.cert.json"
    ).read_bytes()


def test_product_rejects_mismatched_generators(tmp_path):
    (tmp_path / "prob.txt").write_text(NIL_PROBLEM)
    write_intro_cert(tmp_path / "p.json", NIL, (x * x,), symbols=("x", "y"))
    write_intro_cert(tmp_path / "q.json", NIL, (y,), symbols=("x", "y"))
    result = run("product", str(tmp_path / "prob.txt"), str(tmp_path / "p.json"),
                 str(tmp_path / "q.json"))
    assert result.returncode == 1
    assert "generators do not match" in result.stderr


def test_product_rejects_m_in_the_nil_setting(tmp_path):
    (tmp_path / "prob.txt").write_text(NIL_PROBLEM)
    write_intro_cert(tmp_path / "p.json", NIL, (x,), symbols=("x", "y"))
    write_intro_cert(tmp_path / "q.json", NIL, (y,), symbols=("x", "y"))
    result = run("product", str(tmp_path / "prob.txt"), str(tmp_path / "p.json"),
                 str(tmp_path / "q.json"), "--m", "x")
    assert result.returncode == 1
    assert "--m" in result.stderr


def test_product_rejects_conflicting_settings(tmp_path):
    (tmp_path / "prob.txt").write_text(NIL_PROBLEM)
    write_intro_cert(tmp_path / "p.json", SQRT, (x,), symbols=("x", "y"))
    write_intro_cert(tmp_path / "q.json", SQRT, (y,), symbols=("x", "y"))
    result = run("product", str(tmp_path / "prob.txt"), str(tmp_path / "p.json"),
                 str(tmp_path / "q.json"))
    assert result.returncode == 1
    assert "conflicting settings" in result.stderr


def test_product_requires_two_distinguished_generators(tmp_path):
    (tmp_path / "prob.txt").write_text("setting: nil\nsymbols: x\ngenerators: x\n")
    write_intro_cert(tmp_path / "p.json", NIL, (x,))
    result = run("product", str(tmp_path / "prob.txt"), str(tmp_path / "p.json"),
                 str(tmp_path / "p.json"))
    assert result.returncode == 1
    assert "followed by a and b" in result.stderr


def test_product_problem_file_errors_are_usage_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("setting: nope\n")
    p = tmp_path / "p.json"
    write_intro_cert(p, NIL, (x,))
    assert run("product", str(bad), str(p), str(p)).returncode == 2
    assert run("product", str(tmp_path / "missing.txt"), str(p), str(p)).returncode == 2


# -- permute ------------------------------------------------------------------


def make_three_factor_cert(tmp_path):
    path = tmp_path / "w.json"
    b = DagBuilder(NIL, GeneratorSet((x * y * z,)))
    cert = certificate_from_dag(b.build(b.intro(0)), symbols=("x", "y", "z"))
    path.write_bytes(serialize(cert))
    return path


def test_permute_cycles_the_factors(tmp_path):
    path = make_three_factor_cert(tmp_path)
    out = tmp_path / "rotated.json"
    result = run("permute", str(path), "--factors", "x; y; z",
                 "--sigma", "3,1,2", "-o", str(out))
    assert result.returncode == 0, result.stderr
    obj = json.loads(out.read_bytes())
    assert obj["claim"] == [["1", ["z", "x", "y"]]]
    assert run("check", str(out)).returncode == 0


def test_permute_argument_validation(tmp_path):
    path = make_three_factor_cert(tmp_path)
    bad_sigma = run("permute", str(path), "--factors", "x; y; z", "--sigma", "1,1,2")
    assert bad_sigma.returncode == 2
    not_ints = run("permute", str(path), "--factors", "x; y; z", "--sigma", "a,b,c")
    assert not_ints.returncode == 2
    wrong_len = run("permute", str(path), "--factors", "x; y; z", "--sigma", "2,1")
    assert wrong_len.returncode == 2
    wrong_product = run("permute", str(path), "--factors", "y; x; z",
                        "--sigma", "2,1,3")
    assert wrong_product.returncode == 1
    undeclared = run("permute", str(path), "--factors", "x; y; q",
                     "--sigma", "2,1,3")
    assert undeclared.returncode == 2


def test_permute_sigma_takes_ascii_digits_only(tmp_path, monkeypatch):
    monkeypatch.delenv("NILCERT_MAX_NODES", raising=False)
    path = str(make_three_factor_cert(tmp_path))
    out = tmp_path / "out.json"
    for bad in ("\u0663,\u0661,\u0662", "3,1,2_0", "3,+1,2"):
        code, _, err = main_in_process(
            ["permute", path, "--factors", "x; y; z", "--sigma", bad, "-o", str(out)])
        assert (code, err) == (
            2, f"nilcert: --sigma must be a comma-separated list of integers: {bad!r}\n")
    assert not out.exists()
    code, _, err = main_in_process(
        ["permute", path, "--factors", "x; y; z", "--sigma", "2, 1, 3", "-o", str(out)])
    assert code == 0, err
    assert json.loads(out.read_bytes())["claim"] == [["1", ["y", "x", "z"]]]


# -- intersect ----------------------------------------------------------------


def test_intersect_nil(tmp_path):
    write_product_cert(tmp_path / "p.json", NIL, (x,), Poly.one(), y)
    write_product_cert(tmp_path / "q.json", NIL, (y,), x, Poly.one())
    out = tmp_path / "both.json"
    result = run("intersect", str(tmp_path / "p.json"), str(tmp_path / "q.json"),
                 "-o", str(out))
    assert result.returncode == 0, result.stderr
    obj = json.loads(out.read_bytes())
    assert obj["setting"] == "nil"
    assert obj["claim"] == [["1", ["x", "y"]]]
    assert obj["generators"] == [[["1", ["x", "y"]]]]
    assert run("check", str(out)).returncode == 0


def test_intersect_sqrt_quantifies_the_conclusion(tmp_path):
    write_product_cert(tmp_path / "p.json", SQRT, (x,), Poly.one(), y)
    write_product_cert(tmp_path / "q.json", SQRT, (y,), x, Poly.one())
    out = tmp_path / "both.json"
    result = run("intersect", str(tmp_path / "p.json"), str(tmp_path / "q.json"),
                 "-o", str(out))
    assert result.returncode == 0, result.stderr
    obj = json.loads(out.read_bytes())
    assert obj["nodes"][obj["root"]]["op"] == "semiprime"
    assert obj["families"] == [{"left": [["1", ["x"]]], "right": [["1", ["y"]]]}]
    assert run("check", str(out)).returncode == 0


def test_intersect_rejects_different_claims(tmp_path):
    write_intro_cert(tmp_path / "p.json", NIL, (x,), symbols=("x", "y"))
    write_intro_cert(tmp_path / "q.json", NIL, (y,), symbols=("x", "y"))
    result = run("intersect", str(tmp_path / "p.json"), str(tmp_path / "q.json"))
    assert result.returncode == 1
    assert "different elements" in result.stderr


# -- node budget ---------------------------------------------------------------


def test_budget_env_validation(tmp_path):
    for bad in ("abc", "0", "-5"):
        result = run("demo", "x2", cwd=tmp_path, env_extra={"NILCERT_MAX_NODES": bad})
        assert result.returncode == 2
        assert "NILCERT_MAX_NODES" in result.stderr


def test_budget_env_takes_ascii_digits_only(tmp_path, monkeypatch):
    # int() would read the Arabic-Indic "10" and "1_0" as 10
    path = str(make_three_factor_cert(tmp_path))
    for bad in ("\u0661\u0660", "1_0", "+10", "\uff11\uff10"):
        monkeypatch.setenv("NILCERT_MAX_NODES", bad)
        assert main_in_process(["check", path]) == (
            2, "", f"nilcert: NILCERT_MAX_NODES must be a positive integer, got {bad!r}\n")
    monkeypatch.setenv("NILCERT_MAX_NODES", " 10\n")
    code, out, err = main_in_process(["check", path])
    assert (code, err) == (0, ""), err
    assert "valid (1 nodes" in out


def test_budget_env_caps_construction(tmp_path):
    (tmp_path / "prob.txt").write_text(NIL_PROBLEM)
    write_product_cert(tmp_path / "p.json", NIL, (x,), y, y)
    write_product_cert(tmp_path / "q.json", NIL, (y,), x, x)
    result = run("product", "prob.txt", "p.json", "q.json", cwd=tmp_path,
                 env_extra={"NILCERT_MAX_NODES": "3"})
    assert result.returncode == 1
    assert "budget" in result.stderr

    relaxed = run("product", "prob.txt", "p.json", "q.json", cwd=tmp_path)
    assert relaxed.returncode == 0


def test_budget_env_caps_loaded_certificates(tmp_path, monkeypatch):
    b = DagBuilder(NIL, GeneratorSet((x,)))
    cert = certificate_from_dag(b.build(b.mult(y, b.mult(y, b.intro(0), one), one)))
    assert len(cert.nodes) == 3
    path = tmp_path / "three.json"
    path.write_bytes(serialize(cert))
    result = run("check", str(path), env_extra={"NILCERT_MAX_NODES": "2"})
    assert result.returncode == 1
    assert "budget" in result.stderr and "Traceback" not in result.stderr
    assert run("check", str(path), env_extra={"NILCERT_MAX_NODES": "3"}).returncode == 0

    # every other load is refused before the checker evaluates anything
    def no_check(cert):
        raise AssertionError("checked a certificate over the budget")

    monkeypatch.setattr(cli, "check_certificate", no_check)
    monkeypatch.setattr(certio, "check_certificate", no_check)
    monkeypatch.setenv("NILCERT_MAX_NODES", "2")
    code, out, err = main_in_process(
        ["permute", str(path), "--factors", "y; y; x", "--sigma", "1,2,3",
         "-o", str(tmp_path / "out.json")])
    assert (code, out) == (1, "")
    assert "budget" in err


def test_each_loaded_certificate_is_verified_once(tmp_path, monkeypatch):
    monkeypatch.delenv("NILCERT_MAX_NODES", raising=False)
    path = make_three_factor_cert(tmp_path)
    write_product_cert(tmp_path / "p.json", NIL, (x,), Poly.one(), y)
    write_product_cert(tmp_path / "q.json", NIL, (y,), x, Poly.one())
    checked, admitted, admitted_before_transform = [], [], []

    def counting_check(cert, check=cli.check_certificate):
        checked.append(cert)
        return check(cert)

    def counting_admit(builder, node, admit=DagBuilder._admit):
        admitted.append(node)
        return admit(builder, node)

    def after_loading(transform):
        def wrapper(*args, **kwargs):
            admitted_before_transform.append(len(admitted))
            return transform(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "check_certificate", counting_check)
    monkeypatch.setattr(certio, "check_certificate", counting_check)
    monkeypatch.setattr(DagBuilder, "_admit", counting_admit)
    monkeypatch.setattr(cli, "permute", after_loading(cli.permute))
    monkeypatch.setattr(cli, "nil_intersect", after_loading(cli.nil_intersect))

    code, _, err = main_in_process(
        ["permute", str(path), "--factors", "x; y; z", "--sigma", "1,2,3",
         "-o", str(tmp_path / "same.json")])
    assert code == 0, err
    assert len(checked) == 2  # the input, then the output before writing
    assert admitted_before_transform == [0]

    checked.clear()
    admitted.clear()
    code, _, err = main_in_process(
        ["intersect", str(tmp_path / "p.json"), str(tmp_path / "q.json"),
         "-o", str(tmp_path / "both.json")])
    assert code == 0, err
    assert len(checked) == 3
    assert admitted_before_transform == [0, 0]
