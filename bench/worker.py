"""Benchmark worker: replays a command script through nilcert.cli.main.

Run as ``python3 bench/worker.py JOB.json`` in a fresh interpreter with
``src/`` on ``PYTHONPATH``; the working directory must be the job's
input directory, because the script uses paths relative to it.  The
worker is single-threaded.  It repeats the script (one *pass*) until
the job's time budget would be exceeded and writes ``result.json``
next to the job file.  It checks nothing itself: the parent compares
everything against known answers after this process has exited.

Passes rotate over (at most two of) the CPUs this process may use, and
the number of passes is a whole number of rotations.  On a shared host
one CPU is often slowed by a neighbour while the other is not, and a
process left alone stays on one of them, so a run would otherwise
measure whichever CPU it happened to land on.

With ``"trace": true`` the passes alternate between untraced and
traced, starting untraced, so the tracing overhead is measured inside
one process; each untraced/traced pair runs on the same CPU.  Span
records are kept for the first traced pass only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

_clock = time.perf_counter


def _run_command(main, argv: list[str]) -> tuple[object, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    start = _clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as stop:  # argparse usage errors
        code = stop.code
    except Exception:  # a traceback is a wrong answer, never a crash of the run
        code = "exception"
        err.write(traceback.format_exc())
    elapsed = _clock() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def rotation_cpus() -> list[int]:
    """Up to two CPUs to alternate between, or none to leave placement alone."""
    try:
        allowed = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []
    return allowed[:2] if len(allowed) > 1 else []


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as handle:
        job = json.load(handle)
    job_dir = os.path.dirname(os.path.abspath(job_path))
    keep_dir = os.path.join(job_dir, "kept")
    os.makedirs(keep_dir, exist_ok=True)

    import nilcert.cli as cli

    tracer = patches = None
    if job["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()

    commands = job["commands"]
    budget = job["seconds"]
    passes: list[dict] = []
    first_digests: list[dict[str, str | None]] = []
    kept: dict[str, str] = {}  # sha256 -> file name under kept/
    drift_passes = 0
    began = _clock()
    cpus = rotation_cpus()
    group = 2 if tracer is not None else 1  # passes per CPU visit

    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1
        if cpus:
            os.sched_setaffinity(0, {cpus[(index // group) % len(cpus)]})
        if traced:
            patches = tracing.install(tracer)
            tracer.recording = not tracer.records
        records = []
        pass_start = _clock()
        for cmd_id, command in enumerate(commands):
            if traced:
                tracer.command = cmd_id
            code, elapsed, out, err = _run_command(cli.main, command["argv"])
            records.append({"code": code, "s": elapsed, "stdout": out, "stderr": err})
        pass_s = _clock() - pass_start
        if traced:
            patches.remove()
            tracer.recording = False

        digests = [
            {path: _digest(path) for path in command.get("outputs", ())}
            for command in commands
        ]
        if index == 0:
            first_digests = digests
            first_pass_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for got in digests:
            for path, digest in got.items():
                if digest is None or digest in kept:
                    continue
                name = f"{len(kept)}.out"
                shutil.copyfile(path, os.path.join(keep_dir, name))
                kept[digest] = name
        drifted = digests != first_digests
        drift_passes += drifted
        written = sum(
            os.path.getsize(path)
            for command in commands
            for path in command.get("outputs", ())
            if os.path.exists(path)
        )
        console = sum(len(r["stdout"].encode()) + len(r["stderr"].encode()) for r in records)
        passes.append(
            {
                "traced": traced,
                "pass_s": pass_s,
                "commands": records,
                "digests": digests,
                "drifted": drifted,
                "written_bytes": written + console,
            }
        )
        elapsed = _clock() - began
        typical = sorted(p["pass_s"] for p in passes)[len(passes) // 2]
        rotation = group * max(1, len(cpus))
        if len(passes) % rotation == 0 and elapsed + typical > budget:
            break

    result = {
        "passes": passes,
        "kept": kept,
        "drift_passes": drift_passes,
        # a CLI user runs one command per process, so the peak through one
        # pass is what they see; it also does not grow with the pass count
        "peak_rss_kb": first_pass_rss_kb,
        "end_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cpus": cpus,
    }
    if tracer is not None:
        result["trace"] = {
            "names": tracer.names,
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "counters": tracer.counters,
            "root_s": tracer.root_s,
            "records": tracer.records,
        }
    with open(os.path.join(job_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
