"""Workload generation, fingerprints, percentile choice and verification helpers."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

GOLDEN = BENCH.parent / "tests" / "golden"


def test_same_seed_same_inputs_other_seed_other_inputs():
    for name in ("central_roots", "products", "check_corpus"):
        build = workloads.WORKLOADS[name]
        first, again, other = build(7, GOLDEN), build(7, GOLDEN), build(8, GOLDEN)
        assert first.files == again.files
        assert first.fingerprint() == again.fingerprint()
        assert first.fingerprint() != other.fingerprint()
        # the seed picks contents, never the size of the script
        assert len(first.commands) == len(other.commands)


def test_fingerprint_covers_every_input_byte_and_the_script():
    work = workloads.central_roots(3, GOLDEN)
    base = work.fingerprint()
    path = sorted(work.files)[0]
    work.files[path] = work.files[path] + b" "
    assert work.fingerprint() != base
    work.files[path] = work.files[path][:-1]
    assert work.fingerprint() == base
    work.commands[0]["argv"] = work.commands[0]["argv"] + ["--extra"]
    assert work.fingerprint() != base


def test_central_roots_draws_four_distinct_nonzero_constants():
    for seed in range(1, 30):
        work = workloads.central_roots(seed, GOLDEN)
        generators = [json.loads(work.files[f"f{i}.json"])["generators"][0] for i in range(4)]
        constants = [dict((tuple(w), int(c)) for c, w in g).get((), 0) for g in generators]
        assert 0 not in constants and len(set(constants)) == 4
    argv = [c["argv"][:2] for c in work.commands]
    assert argv == [["demo", "x3"], ["check", "x3.cert.json"], ["demo", "x2"],
                    ["check", "x2.cert.json"], ["intersect", "f0.json"],
                    ["intersect", "f2.json"], ["intersect", "a.json"], ["check", "c.json"]]


def test_check_corpus_known_answers():
    work = workloads.check_corpus(5, GOLDEN)
    kinds = [c["expect"]["kind"] for c in work.commands]
    assert kinds.count("malformed") == workloads.MUTATED_BASES
    reasons = sorted(c["expect"]["reason"] for c in work.commands if c["expect"]["kind"] == "invalid")
    assert reasons == sorted(["BAD_REF", "CLAIM_MISMATCH", "CYCLE", "RED_SQUARE_MISMATCH"]
                             * workloads.MUTATED_BASES)
    for name in workloads.GOLDEN:
        assert work.files[f"golden-{name}"] == (GOLDEN / name).read_bytes()
    assert all(c["argv"][0] == "check" for c in work.commands)
    for command in work.commands:
        if command["expect"]["kind"] == "malformed":
            data = work.files[command["argv"][1]]
            try:
                json.loads(data)
            except ValueError:
                continue
            raise AssertionError("a truncated certificate still parses")


def test_problem_text_parses_back_to_the_same_generators():
    from nilcert import parse_problem

    work = workloads.products(4, GOLDEN)
    for path, data in work.files.items():
        if not path.endswith("problem.txt"):
            continue
        problem = parse_problem(data.decode())
        p = json.loads(work.files[path.replace("problem.txt", "p.json")])
        q = json.loads(work.files[path.replace("problem.txt", "q.json")])
        wanted = [verify.terms(g) for g in p["generators"]] + [verify.terms(q["generators"][-1])]
        got = [workloads_terms(g) for g in problem.generator_polys()]
        assert got == wanted


def workloads_terms(poly):
    return {tuple(s.name for s in word): c for word, c in poly.terms.items()}


def test_tail_percentile_keeps_ten_commands_beyond():
    assert run.tail_percentile(10000) == 99.9
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 95
    assert run.tail_percentile(132) == 90
    assert run.tail_percentile(101) == 90
    assert run.tail_percentile(99) == 75
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(39) == 100
    assert run.tail_percentile(8) == 100
    for count in range(40, 30000, 7):
        p = run.tail_percentile(count)
        assert count - math.ceil(p * count / 100) >= 10
        higher = [q for q in run.TAIL_LADDER if q > p]
        assert all(count - math.ceil(q * count / 100) < 10 for q in higher)


def _result(per_command: list[float], passes: int) -> dict:
    """A worker result whose commands take their given time in every pass
    but one slow pass and one fast pass, so the medians are exactly given."""
    scale = [1.0] * passes
    scale[0], scale[-1] = 3.0, 0.5
    return {
        "peak_rss_kb": 1024,
        "passes": [{"pass_s": sum(per_command) * f, "written_bytes": 1,
                    "commands": [{"s": t * f} for t in per_command]} for f in scale],
    }


def test_tail_statistic_does_not_depend_on_the_pass_count():
    for commands in (8, 81, 101, 132):
        per_command = [0.001 * (k % 17 + 1) + 0.0001 * k for k in range(commands)]
        runs = [run.end_to_end_metrics(_result(per_command, passes), [0.1]) for passes in
                (5, 6, 12, 14, 120)]
        tails = {values["cmd_tail_s"] for values, _ in runs}
        percentiles = {notes["cmd_tail_percentile"] for _, notes in runs}
        assert len(tails) == 1 and len(percentiles) == 1
        assert tails == {run.percentile(per_command, run.tail_percentile(commands))}
        assert {values["cmd_p50_s"] for values, _ in runs} == {sorted(per_command)[commands // 2]}


def test_compare_refuses_other_inputs_or_another_tail_percentile(tmp_path):
    base = {"workload": "products", "fingerprint": "ab" * 32, "cmd_tail_percentile": 90,
            "result": {"metrics": {"pass_s": {"value": 1.0, "unit": "s"}}}}
    records = {
        "a": base,
        "same": dict(base),
        "inputs": {**base, "fingerprint": "cd" * 32},
        "tail": {**base, "cmd_tail_percentile": 99},
    }
    for name, record in records.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(record))
    paths = {name: str(tmp_path / f"{name}.json") for name in records}
    assert run.compare(paths["a"], paths["same"]) == 0
    assert run.compare(paths["a"], paths["inputs"]) == 2
    assert run.compare(paths["a"], paths["tail"]) == 2


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 99) == 99.0
    assert run.percentile([3.0], 90) == 3.0


def test_rename_uids_ignores_only_uid_numbering():
    a = b'{"claim":[["1",["x","z#17","y"]]],"b":"w#3","c":"z#17"}'
    b = b'{"claim":[["1",["x","z#90","y"]]],"b":"w#4","c":"z#90"}'
    c = b'{"claim":[["1",["x","z#90","y"]]],"b":"w#4","c":"z#91"}'
    assert verify.rename_uids(a) == verify.rename_uids(b)
    assert verify.rename_uids(a) != verify.rename_uids(c)


def test_benchmark_json_matches_the_metrics_a_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["central_roots", "products"]
    assert set(workloads.WORKLOADS) == {"central_roots", "products", "check_corpus"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
