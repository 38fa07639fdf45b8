"""Acceptance gate: one test per release criterion, one verdict line each.

The first five criteria exercise the headline flows (both demos, random
products in each setting, factor permutations) and stash every
certificate they produce in a module-level pool.  Criterion 6 replays
that pool through the mod-30 soundness oracle, criterion 7 drives a
fixed 50-entry corpus of corrupted certificates through the checker,
and criteria 8 and 9 pin down serialization and sharing behaviour.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import random
import time

import oracle
import witgen
from nilcert import (
    Certificate,
    DagBuilder,
    GeneratorSet,
    NIL,
    Permutation,
    Poly,
    Symbol,
    base_symbol,
    certificate_from_dag,
    check_certificate,
    commutator,
    deserialize,
    nil_product,
    parse_poly,
    permute,
    print_poly,
    serialize,
    sqrt_product,
    xn_demo,
)
from nilcert.checker import (
    BAD_REF,
    CLAIM_MISMATCH,
    CYCLE,
    GEN_INDEX,
    RED_SQUARE_MISMATCH,
    SEMIPRIME_CAPTURE,
    SEMIPRIME_SHAPE,
    WRONG_SETTING,
)
from nilcert.certificate import Intro, Mult, Semiprime

GOLDEN = pathlib.Path(__file__).parent / "golden"

x = Poly.symbol(base_symbol("x"))
y = Poly.symbol(base_symbol("y"))
one = Poly.one()

# Certificates produced by criteria 1-5, replayed by criterion 6.
_ORACLE_POOL: list[tuple[str, bytes]] = []


def _checked(dag) -> Certificate:
    cert = certificate_from_dag(dag)
    verdict = check_certificate(cert)
    assert verdict.ok, str(verdict)
    return cert


def _demo(n: int, generator: Poly) -> None:
    start = time.perf_counter()
    cert, log = xn_demo(n)
    verdict = check_certificate(cert)
    elapsed = time.perf_counter() - start
    assert verdict.ok, str(verdict)
    assert elapsed < 1.0
    assert len(cert.nodes) <= 10_000
    assert cert.setting == NIL
    assert cert.claim == commutator(x, y)
    assert cert.generators.elements == (generator,)
    assert len(log.steps) == len(cert.nodes) + 3
    _ORACLE_POOL.append((f"x{n} demo", serialize(cert)))


def test_criterion_1_cube_law_demo():
    _demo(3, x * x * x - x)


def test_criterion_2_square_law_demo():
    _demo(2, x * x - x)


def test_criterion_3_random_nil_products():
    rng = random.Random(35_001)
    alphabets = (("x", "y"), ("x", "y"), ("x", "y", "z"))
    for trial in range(500):
        p, q = witgen.nil_pair(rng, alphabets[trial % 3], rng.randint(0, 6))
        out = nil_product(p, q)
        assert out.conclusion == p.conclusion * q.conclusion
        assert len(out) <= 8 * (len(p) + 1) * (len(q) + 1)
        common = p.generators.elements[:-1]
        ab = p.generators.elements[-1] * q.generators.elements[-1]
        assert out.generators.elements == common + (ab,)
        cert = _checked(out)
        _ORACLE_POOL.append((f"nil product {trial}", serialize(cert)))


def test_criterion_4_random_sqrt_products():
    rng = random.Random(45_001)
    semiprime_nodes = 0
    for trial in range(200):
        names = ("x", "y") if trial % 3 else ("x", "y", "z")
        p, q = witgen.sqrt_pair(
            rng, names, rng.randint(0, 5), force_semiprime=trial % 2 == 0
        )
        mid = witgen.rand_poly(rng, names, max_terms=2)
        out = sqrt_product(p, q, mid)
        assert out.conclusion == p.conclusion * mid * q.conclusion
        a = p.generators.elements[-1]
        b = q.generators.elements[-1]
        assert out.generators.families == p.generators.families + ((a, b),)
        assert out.generators.elements == p.generators.elements[:-1]
        # Re-quantification draws a fresh bound per Semiprime node, so
        # bounds never collide and the checker never sees a capture.
        bounds = [node.bound for node in out.nodes if isinstance(node, Semiprime)]
        assert len(set(bounds)) == len(bounds)
        semiprime_nodes += len(bounds)
        cert = _checked(out)
        _ORACLE_POOL.append((f"sqrt product {trial}", serialize(cert)))
    assert semiprime_nodes > 0


def _linear_witness(names: tuple[str, ...]):
    poly = one
    for name in names:
        poly = poly * Poly.symbol(base_symbol(name))
    builder = DagBuilder(NIL, GeneratorSet((poly,)))
    return builder.build(builder.intro(0))


def _permuted(w, factors, image) -> None:
    out = permute(w, factors, Permutation(tuple(image)))
    expected = one
    for i in image:
        expected = expected * factors[i - 1]
    assert out.conclusion == expected
    cert = _checked(out)
    _ORACLE_POOL.append((f"permute {image}", serialize(cert)))


def test_criterion_5_factor_permutations():
    names = ("x", "y", "z", "s")
    checked = 0
    for n in range(1, 5):
        w = _linear_witness(names[:n])
        factors = tuple(Poly.symbol(base_symbol(m)) for m in names[:n])
        for image in itertools.permutations(range(1, n + 1)):
            _permuted(w, factors, image)
            checked += 1
    assert checked == 1 + 2 + 6 + 24
    # Random five-letter words, repeats allowed, under random images.
    rng = random.Random(55_001)
    for _ in range(100):
        word = tuple(rng.choice(("x", "y", "z")) for _ in range(5))
        w = _linear_witness(word)
        factors = tuple(Poly.symbol(base_symbol(m)) for m in word)
        image = list(range(1, 6))
        rng.shuffle(image)
        _permuted(w, factors, image)


def test_criterion_6_soundness_oracle_mod_30():
    pool = list(_ORACLE_POOL)
    # Regenerated here as well so this test stands alone.
    for n in (2, 3):
        pool.append((f"x{n} demo standalone", serialize(xn_demo(n)[0])))
    floor = 100 if _ORACLE_POOL else 2
    seen: set[bytes] = set()
    replayed = 0
    for label, data in pool:
        if data in seen:
            continue
        seen.add(data)
        obj = json.loads(data)
        if len(obj["symbols"]) > 2:
            continue
        schematics = {s for _, word in obj["claim"] for s in word if "#" in s}
        if len(schematics) > 2:
            continue
        assert oracle.soundness_counterexamples(data) == [], label
        replayed += 1
    assert replayed >= floor


# -- criterion 7: adversarial corpus ----------------------------------------
#
# Fifty single-field corruptions of valid certificates.  Each entry must
# still deserialize (the damage is semantic, not syntactic) and must be
# rejected with exactly the expected reason at the expected node.


def _capture_bases() -> dict[str, bytes]:
    """Two valid sqrt certificates with an unused generator or family.

    Mutating the unused slot to mention the bound w#0 is the one way a
    single field edit can reach the capture check.
    """
    w = Symbol.decode("w#0")
    px, pw, py = x, Poly.symbol(w), y
    nodes = (Intro(0), Mult(px * pw, 0, one), Semiprime(w, 1, px))
    by_gen = Certificate(
        setting="sqrt",
        symbols=("x", "y"),
        generators=GeneratorSet((px, py)),
        claim=px,
        nodes=nodes,
        root=2,
    )
    by_family = Certificate(
        setting="sqrt",
        symbols=("x", "y"),
        generators=GeneratorSet((px,), [(py, py)]),
        claim=px,
        nodes=nodes,
        root=2,
    )
    assert check_certificate(by_gen).ok and check_certificate(by_family).ok
    return {"cap_gen": serialize(by_gen), "cap_fam": serialize(by_family)}


def _node(o, i, field, value):
    o["nodes"][i][field] = value


def _coeff(poly, i, value):
    poly[i][0] = value


def _corpus():
    entries = []

    def ent(base, reason, node, label, fn):
        entries.append((base, reason, node, label, fn))

    # x2 is a 20-node nil certificate: intro 0, mults, reds at
    # 2/4/7/11/13/16/19, adds at 9 and 18, root 19 claiming [x, y].
    ent("x2", BAD_REF, None, "root far out of range", lambda o: o.update(root=999))
    ent("x2", BAD_REF, None, "negative root", lambda o: o.update(root=-1))
    ent("x2", BAD_REF, 9, "add left dangles", lambda o: _node(o, 9, "left", 998))
    ent("x2", BAD_REF, 9, "add right negative", lambda o: _node(o, 9, "right", -7))
    ent("x2", BAD_REF, 1, "mult inner dangles", lambda o: _node(o, 1, "inner", 997))
    ent("x2", BAD_REF, 2, "red premise dangles", lambda o: _node(o, 2, "premise", 996))
    ent("x2", CYCLE, 9, "add left self-loop", lambda o: _node(o, 9, "left", 9))
    ent("x2", CYCLE, 9, "add right self-loop", lambda o: _node(o, 9, "right", 9))
    ent("x2", CYCLE, 1, "mult inner self-loop", lambda o: _node(o, 1, "inner", 1))
    ent("x2", CYCLE, 2, "red premise self-loop", lambda o: _node(o, 2, "premise", 2))
    ent("x2", CYCLE, 19, "root red self-loop", lambda o: _node(o, 19, "premise", 19))
    ent("x2", GEN_INDEX, 0, "intro index high", lambda o: _node(o, 0, "gen", 5))
    ent("x2", GEN_INDEX, 0, "intro index negative", lambda o: _node(o, 0, "gen", -1))
    ent("x2", GEN_INDEX, 0, "intro index off by one", lambda o: _node(o, 0, "gen", 1))
    ent("x2", RED_SQUARE_MISMATCH, 2, "red conclusion coefficient",
        lambda o: _coeff(o["nodes"][2]["conclusion"], 0, "5"))
    ent("x2", RED_SQUARE_MISMATCH, 2, "red conclusion truncated",
        lambda o: _node(o, 2, "conclusion", o["nodes"][2]["conclusion"][:1]))
    ent("x2", RED_SQUARE_MISMATCH, 4, "second red conclusion",
        lambda o: _coeff(o["nodes"][4]["conclusion"], 0, "9"))
    # Negating a conclusion keeps its square, so the red still checks
    # and the mismatch only surfaces against the claim.
    ent("x2", CLAIM_MISMATCH, 19, "root conclusion negated",
        lambda o: _node(o, 19, "conclusion", [["-1", ["x", "y"]], ["1", ["y", "x"]]]))
    ent("x2", RED_SQUARE_MISMATCH, 19, "root conclusion doubled",
        lambda o: _node(o, 19, "conclusion", [["2", ["x", "y"]], ["-2", ["y", "x"]]]))
    ent("x2", CLAIM_MISMATCH, 19, "claim coefficient",
        lambda o: _coeff(o["claim"], 0, "3"))
    ent("x2", CLAIM_MISMATCH, 19, "claim negated term",
        lambda o: _coeff(o["claim"], 0, "-1"))
    ent("x2", CLAIM_MISMATCH, 19, "claim extra constant",
        lambda o: o["claim"].append(["17", []]))
    ent("x2", CLAIM_MISMATCH, 19, "claim zeroed", lambda o: o.update(claim=[]))
    ent("x2", WRONG_SETTING, 2, "nil flipped to sqrt",
        lambda o: o.update(setting="sqrt"))
    ent("x2", RED_SQUARE_MISMATCH, 2, "generator coefficient",
        lambda o: _coeff(o["generators"][0], 0, "2"))
    ent("x2", RED_SQUARE_MISMATCH, 2, "generator extra term",
        lambda o: o["generators"][0].append(["3", []]))
    ent("x2", RED_SQUARE_MISMATCH, 2, "mult left coefficient",
        lambda o: _coeff(o["nodes"][1]["left"], 0, "2"))
    ent("x2", RED_SQUARE_MISMATCH, 11, "add rerouted to intro",
        lambda o: _node(o, 9, "left", 0))
    ent("x2", CLAIM_MISMATCH, 18, "root moved to the square",
        lambda o: o.update(root=18))

    # The sqrt base has intro_family 0, identity mults 1 and 2, and a
    # semiprime root 3 with bound z#0; its one family is (x, y).
    ent("sqrt", WRONG_SETTING, None, "sqrt flipped to nil",
        lambda o: o.update(setting="nil"))
    ent("sqrt", SEMIPRIME_SHAPE, 3, "bound is a base symbol",
        lambda o: _node(o, 3, "bound", "x"))
    ent("sqrt", SEMIPRIME_SHAPE, 3, "bound swapped for q#77",
        lambda o: _node(o, 3, "bound", "q#77"))
    ent("sqrt", SEMIPRIME_SHAPE, 3, "bound swapped for z#5",
        lambda o: _node(o, 3, "bound", "z#5"))
    ent("sqrt", SEMIPRIME_SHAPE, 3, "semiprime conclusion scaled",
        lambda o: _coeff(o["nodes"][3]["conclusion"], 0, "3"))
    ent("sqrt", SEMIPRIME_SHAPE, 3, "semiprime conclusion zeroed",
        lambda o: _node(o, 3, "conclusion", []))
    ent("sqrt", CYCLE, 3, "semiprime premise self-loop",
        lambda o: _node(o, 3, "premise", 3))
    ent("sqrt", SEMIPRIME_SHAPE, 3, "family left scaled",
        lambda o: _coeff(o["families"][0]["left"], 0, "2"))
    ent("sqrt", GEN_INDEX, 0, "families emptied",
        lambda o: o.update(families=[]))
    ent("sqrt", GEN_INDEX, 0, "family index high",
        lambda o: _node(o, 0, "family", 3))
    ent("sqrt", SEMIPRIME_SHAPE, 3, "instance extra term",
        lambda o: o["nodes"][0]["instance"].append(["7", []]))
    ent("sqrt", SEMIPRIME_SHAPE, 3, "mult right extra term",
        lambda o: o["nodes"][1]["right"].append(["1", ["x"]]))
    ent("sqrt", CLAIM_MISMATCH, 3, "claim extra constant",
        lambda o: o["claim"].append(["7", []]))
    ent("sqrt", CLAIM_MISMATCH, 0, "root moved to the family intro",
        lambda o: o.update(root=0))
    ent("sqrt", CLAIM_MISMATCH, 1, "root moved to a wrapper",
        lambda o: o.update(root=1))

    # Capture bases: the unused slot starts clean of the bound w#0.
    ent("cap_gen", SEMIPRIME_CAPTURE, 2, "spare generator captures bound",
        lambda o: o["generators"].__setitem__(1, [["1", ["w#0"]]]))
    ent("cap_gen", SEMIPRIME_CAPTURE, 2, "spare generator mentions bound",
        lambda o: o["generators"].__setitem__(1, [["2", ["w#0", "x"]]]))
    ent("cap_gen", GEN_INDEX, 0, "intro past generator list",
        lambda o: _node(o, 0, "gen", 2))
    ent("cap_gen", BAD_REF, 1, "mult inner dangles",
        lambda o: _node(o, 1, "inner", 9))
    ent("cap_fam", SEMIPRIME_CAPTURE, 2, "spare family left captures bound",
        lambda o: o["families"][0].__setitem__("left", [["1", ["w#0"]]]))
    ent("cap_fam", SEMIPRIME_CAPTURE, 2, "spare family right captures bound",
        lambda o: o["families"][0].__setitem__("right", [["3", ["x", "w#0"]]]))

    return entries


def test_criterion_7_adversarial_corpus():
    bases = {
        "x2": (GOLDEN / "x2.cert.json").read_bytes(),
        "sqrt": (GOLDEN / "intersect_sqrt.cert.json").read_bytes(),
    }
    bases.update(_capture_bases())
    entries = _corpus()
    assert len(entries) == 50
    rejected = 0
    for base, reason, node, label, corrupt in entries:
        obj = json.loads(bases[base])
        corrupt(obj)
        data = (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
        cert = deserialize(data)  # the corpus is structurally well formed
        verdict = check_certificate(cert)
        assert not verdict.ok, f"false accept: {base}: {label}"
        assert verdict.reason == reason, f"{base}: {label}: {verdict}"
        assert verdict.node == node, f"{base}: {label}: {verdict}"
        rejected += 1
    assert rejected == 50


def test_criterion_8_round_trips():
    for name in ("x2.cert.json", "x3.cert.json", "intersect_sqrt.cert.json"):
        data = (GOLDEN / name).read_bytes()
        cert = deserialize(data)
        assert check_certificate(cert).ok
        assert serialize(cert) == data
    # The demos are schematic-free, so regeneration is byte-stable even
    # in a long-running interpreter.
    assert serialize(xn_demo(2)[0]) == (GOLDEN / "x2.cert.json").read_bytes()
    assert serialize(xn_demo(3)[0]) == (GOLDEN / "x3.cert.json").read_bytes()
    rng = random.Random(85_001)
    names = ("x", "y", "z")
    table = {n: base_symbol(n) for n in names}
    for _ in range(1000):
        p = witgen.rand_poly(rng, names, max_terms=5, max_word=4)
        assert parse_poly(print_poly(p), table) == p


def test_schematics_are_identified_by_their_spelling():
    # w#0 and z#0 share a uid but are distinct indeterminates: loading
    # one first must not rename the other, and only the bound's own
    # spelling in a generator is a capture.
    golden = (GOLDEN / "intersect_sqrt.cert.json").read_bytes()
    renamed = golden.replace(b'"z#0"', b'"w#0"')
    assert renamed != golden
    assert serialize(deserialize(renamed)) == renamed
    assert serialize(deserialize(golden)) == golden
    cap_gen = _capture_bases()["cap_gen"]
    for spelling, ok in (("w#0", False), ("z#0", True)):
        obj = json.loads(cap_gen)
        obj["generators"][1] = [["1", [spelling]]]
        verdict = check_certificate(deserialize(json.dumps(obj).encode()))
        assert verdict.ok is ok, f"{spelling}: {verdict}"
        if not ok:
            assert (verdict.reason, verdict.node) == (SEMIPRIME_CAPTURE, 2)


def _red_chain(element: Poly, depth: int = 20):
    """A witness for `element` wrapped in `depth` nested Red steps."""
    builder = DagBuilder(NIL, GeneratorSet((element,)))
    w = builder.intro(0)
    for _ in range(depth):
        w = builder.red(builder.mult(element, w, one), element)
    return builder.build(w)


def test_criterion_9_product_of_deep_red_chains():
    # Naive recursion over two depth-20 Red chains visits ~2^20 node
    # pairs; memoized products must stay polynomial in the arena sizes.
    start = time.perf_counter()
    p = _red_chain(x)
    q = _red_chain(y)
    assert len(p) == 41 and len(q) == 41
    out = nil_product(p, q)  # default budget of 10**6 nodes
    cert = certificate_from_dag(out)
    verdict = check_certificate(cert)
    elapsed = time.perf_counter() - start
    assert verdict.ok, str(verdict)
    assert elapsed < 1.0
    assert out.conclusion == x * y
    assert out.generators.elements == (x * y,)
    assert len(out) <= 8 * (len(p) + 1) * (len(q) + 1)
    data = serialize(cert)
    again = deserialize(data)
    assert serialize(again) == data
    assert check_certificate(again).ok
