"""End-to-end and per-layer benchmark of the nilcert CLI.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke
    python3 bench/run.py --compare A.json B.json

A run generates the workload's inputs from the seed, times a fresh
interpreter importing ``nilcert.cli`` (``setup_s``), and starts one
single-threaded worker process that replays the workload's command
script through ``nilcert.cli.main`` for S seconds.  Afterwards every
output is compared with a known answer that does not come from the
program under test.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer breakdown of a traced worker.  The last
line printed is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where ``attempted`` counts command executions and ``failed`` those
that differed from the known answer (``failed / attempted`` is the
failed share).  The full record, with run metadata, the input
fingerprint and the chosen tail percentile, is written under
``.bench_out/``.  The exit code is non-zero if anything mismatched.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import HOOKS, LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLE = ROOT / "tests" / "oracle.py"
GOLDEN = ROOT / "tests" / "golden"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 24  # even: half on each CPU of the rotation
DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
}

RING_OPS = ("mul", "add", "sub", "neg", "pow", "eq", "substitute")
TRANSFORMS = ("nil_product", "nil_intersect", "sqrt_product", "sqrt_intersect", "permute")


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}

    def span(name: str, calls: bool = True) -> None:
        if calls:
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"

    for op in RING_OPS:
        span(f"ring.{op}")
    units["ring.mul.term_pairs"] = "count"
    units["ring.mul.unit_side"] = "count"
    span("certio.deserialize")
    units["certio.deserialize.bytes"] = "bytes"
    span("certio.serialize")
    units["certio.serialize.bytes"] = "bytes"
    span("certio.dag_from_certificate")
    span("certio.certificate_from_dag")
    units["certio.output_drift_passes"] = "count"
    span("checker.check")
    units["checker.check.nodes"] = "count"
    units["checker.verifications_per_cert"] = "ratio"
    units["checker.verification_base"] = "count"
    span("witness.add_node")
    units["witness.share_ratio"] = "ratio"
    span("witness.substitute_schematic")
    for name in TRANSFORMS:
        span(f"transforms.{name}")
    units["transforms.out_nodes"] = "count"
    span("lang.parse")
    span("lang.print")
    span("commutativity.xn_demo", calls=False)
    span("commutativity.render", calls=False)
    span("cli.main")
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.command_s"] = "s"
    units["trace.self_sum_s"] = "s"
    units["trace.hooks_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


# -- statistics ---------------------------------------------------------------


# Candidate tail percentiles.  The rung is chosen from the number of
# commands in the script, which the input fingerprint fixes, so the
# statistic reads the same command rank however many passes a run fits.
TAIL_LADDER = (99.9, 99, 95, 90, 75)


def tail_percentile(commands: int) -> float:
    """Highest ladder percentile (nearest rank) with >= 10 commands above it.

    A script too short for any rung (under 40 commands) reports its
    slowest command, p100.
    """
    for p in TAIL_LADDER:
        if commands - math.ceil(p * commands / 100) >= 10:
            return p
    return 100


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


# -- metadata -----------------------------------------------------------------


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # An absolute path: a relative PYTHONPATH breaks imports in children
    # that start in another directory.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


# -- one run ------------------------------------------------------------------


_IMPORT_TIMER = (
    "import os, sys, time\n"
    "cpu = int(sys.argv[1])\n"
    "if cpu >= 0: os.sched_setaffinity(0, {cpu})\n"
    "start = time.perf_counter()\n"
    "import nilcert.cli\n"
    "print(time.perf_counter() - start)\n"
)


def measure_setup(repeats: int) -> list[float]:
    """Seconds a fresh interpreter spends importing nilcert.cli.

    The interpreters alternate between the CPUs the worker rotates over
    (see worker.py), half on each.
    """
    from worker import rotation_cpus

    cpus = rotation_cpus() or [-1]
    env = child_env()

    def once(cpu: int) -> float:
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(cpu)], env=env,
                              cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
        return float(done.stdout)

    once(cpus[0])  # writes bytecode on a fresh checkout
    return [once(cpus[i % len(cpus)]) for i in range(repeats)]


def run_worker(work: Path, commands: list[dict], seconds: float, trace: bool,
               timeout: float) -> dict:
    job = work / "job.json"
    job.write_text(json.dumps({"commands": commands, "seconds": seconds, "trace": trace}))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job)],
        cwd=work / "in", env=child_env(), check=True, timeout=timeout,
    )
    return json.loads((work / "result.json").read_text())


def end_to_end_metrics(result: dict, setup: list[float]) -> tuple[dict, dict]:
    passes = result["passes"]
    samples = sum(len(p["commands"]) for p in passes)
    # Each command of the script at its median over the passes.  A script
    # of a few very different commands (central_roots has eight) puts any
    # percentile of the raw samples on the edge between two commands,
    # where it reads one command's fastest or slowest pass; the median of
    # each command keeps the statistic on one command's typical time.
    per_command = [
        statistics.median(p["commands"][k]["s"] for p in passes)
        for k in range(len(passes[0]["commands"]))
    ]
    tail = tail_percentile(len(per_command))
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "cmd_p50_s": statistics.median_high(per_command),
        "cmd_tail_s": percentile(per_command, tail),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "output_bytes": passes[0]["written_bytes"],
    }
    notes = {
        "command_samples": samples,
        "cmd_tail_percentile": tail,
        "per_command_s": per_command,
        "latency_samples": {
            "setup_s": {"statistic": "median", "samples": len(setup)},
            "pass_s": {"statistic": "median", "samples": len(passes)},
            "cmd_p50_s": {"statistic": "upper median of per-command medians",
                          "commands": len(per_command), "samples": samples},
            "cmd_tail_s": {"statistic": f"p{tail:g} of per-command medians",
                           "commands": len(per_command), "samples": samples},
        },
    }
    return values, notes


def per_layer_metrics(result: dict, commands_per_pass: int) -> tuple[dict, list[str]]:
    """Per traced pass: call counts, self times and counters by layer."""
    trace = result["trace"]
    passes = result["passes"]
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    index = {name: i for i, name in enumerate(trace["names"])}
    counters = trace["counters"]
    values: dict[str, float] = {}
    for name, i in index.items():
        values[f"{name}.calls"] = trace["calls"][i] / n
        values[f"{name}.self_s"] = trace["self_s"][i] / n
    for key, amount in counters.items():
        values[key] = amount / n
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            trace["self_s"][i] for name, i in index.items() if name.startswith(layer + ".")
        ) / n

    def calls(name: str) -> float:
        return trace["calls"][index[name]] if name in index else 0

    verifications = calls("checker.check") + calls("certio.dag_from_certificate")
    base = calls("certio.deserialize") + calls("certio.serialize")
    values["checker.verifications_per_cert"] = verifications / base if base else 0.0
    values["checker.verification_base"] = base / n
    added = calls("witness.add_node")
    values["witness.share_ratio"] = counters.get("witness.add_node.shared", 0) / added if added else 0.0
    values["certio.output_drift_passes"] = result["drift_passes"]
    self_sum = sum(trace["self_s"])
    command_s = sum(c["s"] for p in traced for c in p["commands"])
    values["trace.command_s"] = command_s / n
    values["trace.self_sum_s"] = self_sum / n
    values["trace.hooks_s"] = trace["self_s"][index[HOOKS]] / n if HOOKS in index else 0.0
    values["trace.overhead_s"] = (
        statistics.median(p["pass_s"] for p in traced) - statistics.median(p["pass_s"] for p in plain)
    )

    problems = []
    if abs(self_sum - trace["root_s"]) > 1e-6 * max(1.0, trace["root_s"]):
        problems.append(f"self times sum to {self_sum}, root spans to {trace['root_s']}")
    if self_sum > command_s:
        problems.append(f"self times {self_sum} exceed traced command time {command_s}")
    if calls("cli.main") != n * commands_per_pass:
        problems.append(f"cli.main ran {calls('cli.main')} times in {n} traced passes")
    out = {name: values.get(name, 0.0) for name in PER_LAYER}
    return out, problems


def preflight() -> str | None:
    for needed in (SRC / "nilcert" / "cli.py", ORACLE, *(GOLDEN / g for g in
                   ("x2.cert.json", "x3.cert.json", "intersect_sqrt.cert.json"))):
        if not needed.is_file():
            return f"missing {needed.relative_to(ROOT)}: run from a full checkout"
    return None


def run(workload: str, seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """One benchmark run; returns (final line, full record)."""
    began = time.monotonic()
    sys.path.insert(0, str(SRC))
    import verify
    import workloads

    record: dict = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": loadavg(),
    }
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    try:
        load = workloads.WORKLOADS[workload](seed, GOLDEN)
        for path, data in load.files.items():
            target = work / "in" / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
        record["fingerprint"] = load.fingerprint()
        record["commands_per_pass"] = len(load.commands)
        setup = [] if trace else measure_setup(setup_repeats)
        remaining = DEADLINE_S - (time.monotonic() - began)
        result = run_worker(work, load.commands, seconds, trace, remaining)
        checker = verify.Verifier(verify.load_oracle(ORACLE), work, load.commands, result)
        attempted, failed = checker.run()
        problems = list(checker.mismatches)
        if trace:
            values, trace_problems = per_layer_metrics(result, len(load.commands))
            problems += trace_problems
            units = PER_LAYER
            spans = OUT / f"spans-{workload}-seed{seed}.json"
            OUT.mkdir(exist_ok=True)
            spans.write_text(json.dumps({"names": result["trace"]["names"],
                                         "fields": ["name", "start", "end", "parent", "command"],
                                         "spans": result["trace"]["records"]}))
            record["spans_file"] = str(spans.relative_to(ROOT))
        else:
            values, notes = end_to_end_metrics(result, setup)
            record.update(notes)
            record["setup_samples_s"] = setup
            units = END_TO_END
        record["passes"] = len(result["passes"])
        record["end_rss_mb"] = result["end_rss_kb"] / 1024
        record["pass_s_all"] = [p["pass_s"] for p in result["passes"]]
        record["traced_passes"] = sum(p["traced"] for p in result["passes"])
        record["output_drift_passes"] = result["drift_passes"]
        record["sound_checked"] = checker.sound_checked
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_after"] = loadavg()
    record["problems"] = problems[:50]
    record["failed_share"] = failed / attempted
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = line
    return line, record


def save(record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1))
    return path


def summary(record: dict) -> str:
    keys = ("workload", "seed", "fingerprint", "passes", "traced_passes", "command_samples",
            "cmd_tail_percentile", "output_drift_passes", "failed_share",
            "git_sha", "python", "nproc", "loadavg_before", "loadavg_after")
    return "run: " + json.dumps({k: record.get(k) for k in keys})


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    if (a["workload"], a["fingerprint"]) != (b["workload"], b["fingerprint"]):
        print(f"refusing to compare: inputs differ ({a['workload']} {a['fingerprint'][:12]} "
              f"vs {b['workload']} {b['fingerprint'][:12]})", file=sys.stderr)
        return 2
    if a.get("cmd_tail_percentile") != b.get("cmd_tail_percentile"):
        print(f"refusing to compare: cmd_tail_s is p{a.get('cmd_tail_percentile')} in one record "
              f"and p{b.get('cmd_tail_percentile')} in the other", file=sys.stderr)
        return 2
    for name, metric in a["result"]["metrics"].items():
        other = b["result"]["metrics"].get(name)
        if other is None:
            continue
        old, new = metric["value"], other["value"]
        change = f"{(new - old) / old:+.1%}" if old else "n/a"
        print(f"{name:40s} {old:14.6g} {new:14.6g} {metric['unit']:6s} {change}")
    return 0


def smoke() -> int:
    """Every workload briefly, untraced and traced; all answers must match."""
    bad = 0
    for name in ("central_roots", "products", "check_corpus"):
        for trace in (False, True):
            line, record = run(name, seed=1, seconds=1, trace=trace, setup_repeats=4)
            ok = line["correct"] and record["failed_share"] == 0
            bad += not ok
            print(f"smoke {name} trace={int(trace)}: {'ok' if ok else 'FAILED'} "
                  f"({line['attempted']} commands, failed share {record['failed_share']})")
            for problem in record["problems"][:5]:
                print(f"  {problem}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("central_roots", "products", "check_corpus"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="short run of every workload")
    parser.add_argument("--compare", nargs=2, metavar="RECORD", help="compare two saved records")
    args = parser.parse_args(argv)

    problem = preflight()
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = save(record)
    for problem in record["problems"][:20]:
        print(f"mismatch: {problem}")
    print(summary(record))
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
