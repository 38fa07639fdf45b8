"""Compare a worker's outputs with known answers.

Nothing here uses nilcert.  Expected claims are recomputed from the raw
input JSON with the naive term arithmetic of ``tests/oracle.py``
(``expand``), and every distinct output certificate goes through that
module's mod-30 soundness search, all outside the timed region.

A command execution counts as failed when its exit code, verdict,
reason code, console text or output differs from the known answer.
Later passes must repeat the first pass; an output whose bytes drift
(fresh schematic uids) is accepted only if it equals the first pass's
output after renaming uids in order of first occurrence, or else passes
the full check itself.
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

_SCHEMATIC = re.compile(rb"([A-Za-z][A-Za-z0-9_]*)#([0-9]+)")


def load_oracle(path: Path):
    spec = importlib.util.spec_from_file_location("nilcert_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def terms(poly_json) -> dict[tuple[str, ...], int]:
    return {tuple(word): int(coeff) for coeff, word in poly_json}


def rename_uids(data: bytes) -> bytes:
    """Renumber schematic uids as 0, 1, ... in order of first occurrence."""
    seen: dict[bytes, int] = {}

    def sub(match: re.Match) -> bytes:
        key = match.group(0)
        if key not in seen:
            seen[key] = len(seen)
        return match.group(1) + b"#" + str(seen[key]).encode()

    return _SCHEMATIC.sub(sub, data)


class Verifier:
    def __init__(self, oracle, work_dir: Path, commands: list[dict], result: dict):
        self.oracle = oracle
        self.work_dir = work_dir
        self.commands = commands
        self.result = result
        self.kept = result["kept"]
        self.producer = {  # output path -> index of the command writing it
            path: k for k, command in enumerate(commands) for path in command["outputs"]
        }
        self.mismatches: list[str] = []
        self.sound_checked = 0
        self._full_ok: dict[str, bool] = {}

    # -- reading ----------------------------------------------------------

    def _kept_bytes(self, digest: str | None) -> bytes | None:
        if digest is None or digest not in self.kept:
            return None
        return (self.work_dir / "kept" / self.kept[digest]).read_bytes()

    def _input(self, path: str, digests: list[dict]) -> bytes:
        k = self.producer.get(path)
        if k is not None:
            return self._kept_bytes(digests[k][path]) or b""
        return (self.work_dir / "in" / path).read_bytes()

    # -- known answers ----------------------------------------------------

    def _expected(self, expect: dict, digests: list[dict]) -> dict:
        """Claim, generators and families a derived certificate must carry."""
        expand = self.oracle.expand
        p = json.loads(self._input(expect["p"], digests))
        if expect["op"] == "permute":
            return {
                "claim": expand(*({(name,): 1} for name in (
                    expect["factors"][i - 1] for i in expect["sigma"]))),
                "generators": [terms(g) for g in p["generators"]],
                "families": [(terms(f["left"]), terms(f["right"])) for f in p["families"]],
            }
        q = json.loads(self._input(expect["q"], digests))
        a, b = terms(p["generators"][-1]), terms(q["generators"][-1])
        common = [terms(g) for g in p["generators"][:-1]]
        families = [(terms(f["left"]), terms(f["right"])) for f in p["families"]]
        setting = p["setting"]
        if expect["op"] == "intersect":
            claim = terms(p["claim"])
        elif setting == "nil":
            claim = expand(terms(p["claim"]), terms(q["claim"]))
        elif expect["middle"] is not None:
            claim = expand(terms(p["claim"]), terms(expect["middle"]), terms(q["claim"]))
        else:
            claim = None  # x*z*y for one fresh schematic z; matched below
        if setting == "nil":
            return {"claim": claim, "generators": common + [expand(a, b)], "families": families}
        return {"claim": claim, "generators": common, "families": families + [(a, b)],
                "x": terms(p["claim"]), "y": terms(q["claim"])}

    def _check_derived(self, expect: dict, data: bytes, digests: list[dict]) -> str | None:
        try:
            out = json.loads(data)
        except ValueError:
            return "output is not JSON"
        want = self._expected(expect, digests)
        claim = terms(out["claim"])
        if want["claim"] is None:
            names = sorted({n for word in claim for n in word if "#" in n})
            if not names and not (want["x"] and want["y"]):
                want["claim"] = {}  # x*z*y vanishes with x or y
            elif len(names) != 1:
                return f"expected one schematic middle, found {names}"
            else:
                want["claim"] = self.oracle.expand(want["x"], {(names[0],): 1}, want["y"])
        if claim != want["claim"]:
            return "claim differs from the recomputed product"
        if [terms(g) for g in out["generators"]] != want["generators"]:
            return "generators differ from the expected ones"
        families = [(terms(f["left"]), terms(f["right"])) for f in out["families"]]
        if families != want["families"]:
            return "families differ from the expected ones"
        self.sound_checked += 1
        if self.oracle.soundness_counterexamples(data):
            return "soundness counterexample mod 30"
        return None

    def _check_first(self, expect: dict, record: dict, digests: dict, all_digests) -> str | None:
        code, out, err = record["code"], record["stdout"], record["stderr"]
        kind = expect["kind"]
        if kind == "malformed":
            return None if code == 2 and err.startswith("nilcert: ") else f"exit {code}"
        if kind == "invalid":
            where = f"node {expect['node']}" if expect["node"] is not None else "certificate"
            prefix = f"nilcert: {expect['path']}: invalid: {where}: {expect['reason']}: "
            if code != 1 or not err.startswith(prefix) or out:
                return f"exit {code}, stderr {err.strip()!r}, wanted {prefix!r}"
            return None
        if code != 0 or err:
            return f"exit {code}, stderr {err.strip()[-300:]!r}"
        if kind == "valid":
            line = f"{expect['path']}: valid ({expect['nodes']} nodes, setting {expect['setting']})\n"
            return None if out == line else f"stdout {out!r}, wanted {line!r}"
        if kind == "valid_any":
            pattern = rf"{re.escape(expect['path'])}: valid \(\d+ nodes, setting {expect['setting']}\)\n"
            return None if re.fullmatch(pattern, out) else f"stdout {out!r}"
        if kind == "demo":
            if out != f"{expect['cert']}\n{expect['log']}\n":
                return f"stdout {out!r}"
            cert = self._kept_bytes(digests[expect["cert"]])
            if cert != Path(expect["golden"]).read_bytes():
                return "certificate differs from the golden bytes"
            if not self._kept_bytes(digests[expect["log"]]):
                return "empty proof log"
            return None
        if kind == "derived":
            if out != f"{expect['out']}\n":
                return f"stdout {out!r}"
            data = self._kept_bytes(digests[expect["out"]])
            if data is None:
                return "no output written"
            return self._check_derived(expect, data, all_digests)
        return f"unknown expectation {kind!r}"

    def _drift_ok(self, k: int, first: str, digest: str | None, digests) -> bool:
        if digest is None:
            return False
        if digest not in self._full_ok:
            data = self._kept_bytes(digest)
            same = rename_uids(data) == rename_uids(self._kept_bytes(first))
            expect = self.commands[k]["expect"]
            self._full_ok[digest] = same or (
                expect["kind"] == "derived" and self._check_derived(expect, data, digests) is None
            )
        return self._full_ok[digest]

    def run(self) -> tuple[int, int]:
        """Return (attempted, failed) over every command of every pass."""
        passes = self.result["passes"]
        first = passes[0]
        first_ok = []
        for k, (command, record) in enumerate(zip(self.commands, first["commands"])):
            problem = self._check_first(command["expect"], record, first["digests"][k], first["digests"])
            if problem:
                self.mismatches.append(f"pass 0 command {k} {command['argv'][:2]}: {problem}")
            first_ok.append(problem is None)
        failed = first_ok.count(False)
        for n, later in enumerate(passes[1:], start=1):
            for k, record in enumerate(later["commands"]):
                ref = first["commands"][k]
                ok = first_ok[k] and all(record[key] == ref[key] for key in ("code", "stdout", "stderr"))
                for path, digest in later["digests"][k].items():
                    want = first["digests"][k][path]
                    if ok and digest != want:
                        ok = self._drift_ok(k, want, digest, later["digests"])
                if not ok:
                    failed += 1
                    if first_ok[k]:
                        self.mismatches.append(f"pass {n} command {k}: differs from pass 0")
        attempted = len(passes) * len(self.commands)
        return attempted, failed
