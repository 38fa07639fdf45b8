"""The tracer's arithmetic and its patching of nilcert."""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracer as tracing  # noqa: E402


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_root_wall_time_and_counts_are_exact():
    tracer = tracing.Tracer()
    tracer.recording = True

    leaf = tracer.wrap("ring.leaf", lambda: _spin(0.002))

    def middle():
        _spin(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("witness.middle", middle)

    def root():
        _spin(0.001)
        middle()
        leaf()
        middle()

    root = tracer.wrap("cli.root", root)
    start = time.perf_counter()
    root()
    root()
    wall = time.perf_counter() - start

    totals = tracer.totals()
    assert {name: t["calls"] for name, t in totals.items()} == {
        "ring.leaf": 10,
        "witness.middle": 4,
        "cli.root": 2,
    }
    self_sum = sum(t["self_s"] for t in totals.values())
    assert abs(self_sum - tracer.root_s) < 1e-9
    assert tracer.root_s <= wall
    assert all(t["self_s"] > 0 for t in totals.values())
    # every leaf spins 2 ms; its self time cannot be below that
    assert totals["ring.leaf"]["self_s"] >= 10 * 0.002

    # the records give the same self times as the running totals
    from_records = tracing.self_times_from_records(tracer.records, tracer.names)
    for name, t in totals.items():
        assert abs(from_records[name] - t["self_s"]) < 1e-9
    roots = [r for r in tracer.records if r[3] == -1]
    assert len(roots) == 2 and len(tracer.records) == 16


def test_hook_time_stays_out_of_every_layer():
    tracer = tracing.Tracer()
    tracer.recording = True
    leaf = tracer.wrap("ring.leaf", lambda: _spin(0.001),
                       before=lambda: _spin(0.003), after=lambda state, result: _spin(0.003))

    def parent():
        _spin(0.001)
        leaf()
        leaf()

    tracer.wrap("cli.parent", parent)()
    totals = tracer.totals()
    assert totals[tracing.HOOKS]["calls"] == 4
    assert totals[tracing.HOOKS]["self_s"] >= 4 * 0.003
    # the parent spins 1 ms itself; four 3 ms hooks would show if counted
    assert totals["cli.parent"]["self_s"] < 0.006
    assert totals["ring.leaf"]["self_s"] < 0.006
    self_sum = sum(t["self_s"] for t in totals.values())
    assert abs(self_sum - tracer.root_s) < 1e-9
    from_records = tracing.self_times_from_records(tracer.records, tracer.names)
    for name, t in totals.items():
        assert abs(from_records.get(name, 0.0) - t["self_s"]) < 1e-9


def test_exception_closes_its_span():
    tracer = tracing.Tracer()

    def fail():
        raise ValueError("boom")

    fail = tracer.wrap("lang.fail", fail)
    outer = tracer.wrap("cli.outer", lambda: _swallow(fail))
    outer()
    totals = tracer.totals()
    assert totals["lang.fail"]["calls"] == 1 and totals["cli.outer"]["calls"] == 1
    assert abs(sum(t["self_s"] for t in totals.values()) - tracer.root_s) < 1e-9


def _swallow(fn):
    with contextlib.suppress(ValueError):
        fn()


def test_patches_reach_copies_bound_by_name_and_are_removed():
    import nilcert
    import nilcert.certio
    import nilcert.cli
    import nilcert.commutativity
    from nilcert.ring import Poly
    from nilcert.witness import DagBuilder

    originals = {
        "cli.deserialize": nilcert.cli.deserialize,
        "cli.check_certificate": nilcert.cli.check_certificate,
        "cli.dag_from_certificate": nilcert.cli.dag_from_certificate,
        "cli.nil_intersect": nilcert.cli.nil_intersect,
        "commutativity.nil_intersect": nilcert.commutativity.nil_intersect,
        "commutativity.check_certificate": nilcert.commutativity.check_certificate,
        "mul": Poly.__mul__,
        "add_node": DagBuilder.add_node,
    }
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert nilcert.cli.deserialize is not originals["cli.deserialize"]
        assert nilcert.cli.check_certificate is not originals["cli.check_certificate"]
        assert nilcert.cli.dag_from_certificate is not originals["cli.dag_from_certificate"]
        assert nilcert.cli.nil_intersect is not originals["cli.nil_intersect"]
        assert nilcert.commutativity.nil_intersect is not originals["commutativity.nil_intersect"]
        assert nilcert.commutativity.check_certificate is not originals["commutativity.check_certificate"]
        assert nilcert.certio.deserialize is nilcert.cli.deserialize
        assert nilcert.deserialize is nilcert.cli.deserialize
        assert Poly.__mul__ is not originals["mul"]
        assert DagBuilder.add_node is not originals["add_node"]

        golden = BENCH.parent / "tests" / "golden" / "x2.cert.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert nilcert.cli.main(["check", str(golden)]) == 0
    finally:
        patches.remove()

    assert nilcert.cli.deserialize is originals["cli.deserialize"]
    assert nilcert.commutativity.nil_intersect is originals["commutativity.nil_intersect"]
    assert Poly.__mul__ is originals["mul"]
    assert DagBuilder.add_node is originals["add_node"]

    calls = {name: t["calls"] for name, t in tracer.totals().items()}
    assert calls["cli.main"] == 1
    assert calls["certio.deserialize"] == 1
    assert calls["checker.check"] == 1
    assert calls["certio.dag_from_certificate"] == 0
    assert calls["witness.add_node"] == 0
    assert calls["transforms.nil_product"] == 0
    assert calls["ring.mul"] > 0
    assert tracer.counters["checker.check.nodes"] == 20
    assert tracer.counters["certio.deserialize.bytes"] == len(golden.read_bytes())
    self_sum = sum(t["self_s"] for t in tracer.totals().values())
    assert abs(self_sum - tracer.root_s) < 1e-9
