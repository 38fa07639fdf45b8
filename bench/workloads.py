"""Seeded inputs and command scripts for the three workloads.

Every input is made here from ``--seed`` before the program under test
runs; the CLI only ever sees the files written out.  Witnesses are
grown through the public ``DagBuilder`` (never through ``transforms``),
so each generated certificate is valid by construction.  Alongside each
command the workload records what a correct run must produce, in terms
the verifier can check without nilcert's own arithmetic.

Sizes are fixed per workload and the seed only picks contents, so two
seeds cost about the same: the benchmark compares medians across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from nilcert import (
    NIL,
    SQRT,
    DagBuilder,
    GeneratorSet,
    Poly,
    base_symbol,
    certificate_from_dag,
    commutator_factor_witness,
    serialize,
)
from nilcert.certio import Certificate
from nilcert.ring import SCHEMATIC, Symbol
from nilcert.witness import Intro, Mult

NAMES = ("x", "y")  # the soundness oracle brute-forces at most two base symbols
# Semiprime bounds are numbered from here.  The ring treats schematic
# symbols with equal uids as equal whatever their names, so the inputs
# keep clear of the small uids the program and its tests hand out.
FIRST_UID = 900_000
SYMBOLS = {name: base_symbol(name) for name in NAMES}
ONE = Poly.one()
GOLDEN = ("x2.cert.json", "x3.cert.json", "intersect_sqrt.cert.json")


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, bytes] = field(default_factory=dict)
    commands: list[dict] = field(default_factory=list)

    def add(self, argv: list[str], expect: dict, outputs: tuple[str, ...] = ()) -> None:
        self.commands.append({"argv": argv, "outputs": list(outputs), "expect": expect})

    def fingerprint(self) -> str:
        """sha256 over every input file and the command script."""
        digest = hashlib.sha256()
        for path in sorted(self.files):
            digest.update(path.encode() + b"\0")
            digest.update(hashlib.sha256(self.files[path]).digest())
        script = [{"argv": c["argv"], "outputs": c["outputs"]} for c in self.commands]
        digest.update(json.dumps(script, sort_keys=True).encode())
        return digest.hexdigest()


# -- polynomials ---------------------------------------------------------


def poly_of(terms: dict[tuple[str, ...], int]) -> Poly:
    return Poly({tuple(SYMBOLS[n] for n in word): c for word, c in terms.items()})


def poly_text(terms) -> str:
    """Render [[coeff, [names]], ...] or a term dict in the CLI's syntax."""
    items = terms.items() if isinstance(terms, dict) else ((tuple(w), int(c)) for c, w in terms)
    chunks = []
    for word, coeff in items:
        body = "*".join(([str(abs(coeff))] if abs(coeff) != 1 or not word else []) + list(word))
        if not chunks:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    return "".join(chunks) or "0"


def rand_terms(rng: random.Random, max_terms: int, max_word: int) -> dict:
    terms: dict[tuple[str, ...], int] = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(NAMES) for _ in range(rng.randint(0, max_word)))
        terms[word] = rng.choice((-2, -1, 1, 2))
    return terms


def rand_poly(rng: random.Random, max_terms: int = 2, max_word: int = 2) -> Poly:
    return poly_of(rand_terms(rng, max_terms, max_word))


def monomial(rng: random.Random, max_word: int = 1) -> Poly:
    word = tuple(rng.choice(NAMES) for _ in range(rng.randint(1, max_word)))
    return poly_of({word: rng.choice((-1, 1))})


# -- witnesses grown through DagBuilder ------------------------------------

# Cap on a conclusion before a reduced-ideal step squares it.  The
# product transforms square conclusions again, so the cap bounds their cost.
_MAX_TERMS = 6


def grow_nil(rng: random.Random, builder: DagBuilder, depth: int) -> int:
    gens = len(builder.generators.elements)
    if depth <= 0:
        return builder.intro(rng.randrange(gens))
    kind = rng.choice(("intro", "add", "mult", "mult", "red", "red"))
    if kind == "intro":
        return builder.intro(rng.randrange(gens))
    if kind == "add":
        return builder.add(grow_nil(rng, builder, depth - 1), grow_nil(rng, builder, depth - 1))
    if kind == "mult":
        return builder.mult(monomial(rng), grow_nil(rng, builder, depth - 1), monomial(rng))
    # From n |- c, u*c*(v*u*c*v) = (u*c*v)^2, so Red derives u*c*v.
    inner = grow_nil(rng, builder, depth - 1)
    c = builder.conclusion(inner)
    if not c or len(c) > _MAX_TERMS:
        return inner
    u, v = monomial(rng), monomial(rng)
    return builder.red(builder.mult(u, inner, v * u * c * v), u * c * v)


def grow_sqrt(rng: random.Random, builder: DagBuilder, depth: int, uids) -> int:
    gens = builder.generators
    if depth <= 0:
        if gens.families and rng.random() < 0.5:
            return builder.intro_family(rng.randrange(len(gens.families)), rand_poly(rng, 1))
        return builder.intro(rng.randrange(len(gens.elements)))
    kind = rng.choice(("add", "mult", "mult", "semiprime", "semiprime"))
    if kind == "add":
        return builder.add(grow_sqrt(rng, builder, depth - 1, uids),
                           grow_sqrt(rng, builder, depth - 1, uids))
    if kind == "mult":
        return builder.mult(rand_poly(rng, 1), grow_sqrt(rng, builder, depth - 1, uids),
                            rand_poly(rng, 1))
    return semiprime_over(builder, grow_sqrt(rng, builder, depth - 1, uids), uids)


def semiprime_over(builder: DagBuilder, inner: int, uids) -> int:
    """From n |- c, c*w*c is a two-sided multiple, so Semiprime derives c.

    Bounds take their uids from ``uids`` rather than the process-global
    counter, so the same seed gives the same bytes in any process.
    """
    c = builder.conclusion(inner)
    if not c or len(c) > _MAX_TERMS:
        return inner
    bound = Symbol("w", SCHEMATIC, next(uids))
    premise = builder.mult(c * Poly.symbol(bound), inner, ONE)
    return builder.semiprime(bound, premise, c)


def red_chain(element: Poly, depth: int) -> Certificate:
    """Criterion 9's shape: Intro(element) under `depth` Red(Mult(element, ., 1))."""
    builder = DagBuilder(NIL, GeneratorSet((element,)))
    node = builder.intro(0)
    for _ in range(depth):
        node = builder.red(builder.mult(element, node, ONE), element)
    return certificate_from_dag(builder.build(node), symbols=NAMES)


def cert_bytes(builder: DagBuilder, root: int) -> bytes:
    return serialize(certificate_from_dag(builder.build(root), symbols=NAMES))


def problem_text(setting: str, p: dict, q: dict) -> str:
    gens = [poly_text(g) for g in p["generators"]] + [poly_text(q["generators"][-1])]
    lines = [f"setting: {setting}", f"symbols: {'; '.join(NAMES)}", f"generators: {'; '.join(gens)}"]
    if p["families"]:
        fams = "; ".join(f"{poly_text(f['left'])} | {poly_text(f['right'])}" for f in p["families"])
        lines.append(f"families: {fams}")
    return "\n".join(lines) + "\n"


# -- central_roots -----------------------------------------------------------


def central_roots(seed: int, golden: Path) -> Workload:
    """demo x3, check, demo x2, check, then a balanced intersect tree."""
    rng = random.Random(seed)
    work = Workload("central_roots", seed)
    constants = rng.sample([c for c in range(-9, 10) if c != 0], 4)
    x, y = SYMBOLS["x"], SYMBOLS["y"]
    for i, c in enumerate(constants):
        dag = commutator_factor_witness(c, x, y)
        work.files[f"f{i}.json"] = serialize(certificate_from_dag(dag, symbols=NAMES))
    for name in ("x3", "x2"):
        cert, log = f"{name}.cert.json", f"{name}.log.md"
        work.add(["demo", name, "-o", cert, "--log", log],
                 {"kind": "demo", "golden": str(golden / cert), "cert": cert, "log": log},
                 outputs=(cert, log))
        nodes = len(json.loads((golden / cert).read_bytes())["nodes"])
        work.add(["check", cert], {"kind": "valid", "path": cert, "nodes": nodes, "setting": NIL})
    for p, q, out in (("f0.json", "f1.json", "a.json"), ("f2.json", "f3.json", "b.json"),
                      ("a.json", "b.json", "c.json")):
        work.add(["intersect", p, q, "-o", out],
                 {"kind": "derived", "op": "intersect", "p": p, "q": q, "out": out},
                 outputs=(out,))
    work.add(["check", "c.json"], {"kind": "valid_any", "path": "c.json", "setting": NIL})
    return work


# -- products ------------------------------------------------------------------

# Many small pairs rather than a few large ones: the seed then moves the
# summed cost of a pass by little.  148 commands a pass, so cmd_tail_s is
# p90: the 15th-slowest command.  The twenty Red-chain products are the
# slowest and their cost depends on the depth alone, so whatever the seed
# the tail is a chain product of depth about 30, well clear of the pairs.
NIL_PAIRS = 48
SQRT_PAIRS = 24
RED_CHAIN_DEPTHS = tuple(range(20, 60, 2))
PERMUTES = 32


_PAIR_TERMS = 4  # cap on every conclusion of a product input
_PAIR_SEMIPRIMES = 2  # nested Semiprime nodes multiply sqrt_product's work
# The product squares each conclusion of p times q's root (and a times
# each conclusion of q); the summed squared sizes predict its cost.
_PAIR_COST = 40


def _pair_cost(p, q) -> int:
    y, a = len(q.conclusion), len(p.generators.elements[-1])
    return sum((len(c) * y) ** 2 for c in p.conclusions) + sum(
        (a * len(c)) ** 2 for c in q.conclusions
    )


def _pair(rng: random.Random, setting: str, depth: int) -> tuple[bytes, bytes]:
    """Two witnesses over U + (a,) and U + (b,), drawn until both are small."""
    uids = itertools.count(FIRST_UID)
    while True:
        common = tuple(rand_poly(rng, 1) for _ in range(rng.randint(0, 2)))
        families = ()
        if setting == SQRT:
            families = tuple((rand_poly(rng, 1), rand_poly(rng, 1)) for _ in range(rng.randint(0, 1)))
        dags = []
        for extra in (rand_poly(rng), rand_poly(rng)):
            builder = DagBuilder(setting, GeneratorSet(common + (extra,), families))
            if setting == NIL:
                root = grow_nil(rng, builder, depth)
            else:
                root = semiprime_over(builder, grow_sqrt(rng, builder, depth, uids), uids)
            dags.append(builder.build(root))
        small = all(len(c) <= _PAIR_TERMS for dag in dags for c in dag.conclusions)
        semiprimes = sum(type(n).__name__ == "Semiprime" for dag in dags for n in dag.nodes)
        if small and semiprimes <= _PAIR_SEMIPRIMES and _pair_cost(*dags) <= _PAIR_COST:
            return tuple(serialize(certificate_from_dag(d, symbols=NAMES)) for d in dags)


def _product(work: Workload, tag: str, setting: str, p: bytes, q: bytes,
             middle: dict | None = None) -> None:
    pj, qj = json.loads(p), json.loads(q)
    work.files[f"{tag}/p.json"] = p
    work.files[f"{tag}/q.json"] = q
    work.files[f"{tag}/problem.txt"] = problem_text(setting, pj, qj).encode()
    args = ["product", f"{tag}/problem.txt", f"{tag}/p.json", f"{tag}/q.json"]
    runs = [None]
    if setting == SQRT:
        runs = [middle, None]  # an explicit middle, then the default fresh schematic
    for k, mid in enumerate(runs):
        out = f"{tag}/out{k}.json"
        extra = [f"--m={poly_text(mid)}"] if mid is not None else []  # text may start with '-'
        expect = {"kind": "derived", "op": "product", "setting": setting,
                  "p": f"{tag}/p.json", "q": f"{tag}/q.json", "out": out,
                  "middle": [[str(c), list(w)] for w, c in mid.items()] if mid else None}
        work.add(args + extra + ["-o", out], expect, outputs=(out,))


def products(seed: int, golden: Path) -> Workload:
    rng = random.Random(seed)
    work = Workload("products", seed)
    for i in range(NIL_PAIRS):
        p, q = _pair(rng, NIL, 2)
        _product(work, f"nil{i}", NIL, p, q)
    for i in range(SQRT_PAIRS):
        p, q = _pair(rng, SQRT, 2)
        _product(work, f"sqrt{i}", SQRT, p, q, middle=rand_terms(rng, 2, 2))
    for i, depth in enumerate(RED_CHAIN_DEPTHS):
        a, b = monomial(rng), monomial(rng)  # one letter each, so cost depends on depth only
        p = serialize(red_chain(a, depth))
        q = serialize(red_chain(b, depth))
        _product(work, f"chain{i}", NIL, p, q)
    for i in range(PERMUTES):
        word = [rng.choice(NAMES) for _ in range(rng.randint(3, 6))]
        generator = poly_of({tuple(word): 1})
        builder = DagBuilder(NIL, GeneratorSet((generator,)))
        path = f"perm{i}/w.json"
        work.files[path] = cert_bytes(builder, builder.intro(0))
        sigma = list(range(1, len(word) + 1))
        while sigma == sorted(sigma):
            rng.shuffle(sigma)
        out = f"perm{i}/out.json"
        work.add(["permute", path, "--factors", "; ".join(word),
                  "--sigma", ",".join(map(str, sigma)), "-o", out],
                 {"kind": "derived", "op": "permute", "p": path, "out": out,
                  "factors": word, "sigma": sigma},
                 outputs=(out,))
    return work


# -- check_corpus ----------------------------------------------------------------

# 101 checks a pass, so cmd_tail_s is p90: the 11th-slowest check.  The
# slow checks are the blow-up, one dense chain of a few hundred terms,
# the x3 golden and eleven dense chains over every word of length at
# most five (63 terms, so the seed picks only coefficients and each costs
# the same); the tail falls among those eleven, so it reads a ring-heavy
# check and never the edge between the slow group and the light ones.
NIL_CERTS = 36
SQRT_CERTS = 24
DENSE_CHAINS = ((63, 1),) * 11 + ((250, 1),)  # (generator terms, Red depth)
BLOWUP_NODES = 14
MUTATED_BASES = 5


def _dense(rng: random.Random, size: int) -> Poly:
    """`size` distinct words: every word up to some length, then a random
    choice of the next length, so the seed never changes the cost."""
    words: list[tuple[str, ...]] = []
    length = 0
    while True:
        layer = list(itertools.product(NAMES, repeat=length))
        if len(words) + len(layer) >= size:
            words += rng.sample(layer, size - len(words))
            break
        words += layer
        length += 1
    return poly_of({word: rng.choice((-3, -2, -1, 1, 2, 3)) for word in words})


def blowup(rng: random.Random, count: int) -> bytes:
    """ROADMAP E(i): a valid certificate whose unused Mult(g, ., 1) chain
    doubles its term count per node, so checking it costs 2^count."""
    g = poly_of({("x",): 1, ("y",): rng.choice((-1, 1))})
    nodes = (Intro(0),) + tuple(Mult(g, i, ONE) for i in range(count - 1))
    return serialize(Certificate(NIL, NAMES, GeneratorSet((g,)), g, nodes, 0))


def _canonical(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _mutants(rng: random.Random, tag: str, data: bytes) -> list[tuple[str, bytes, dict]]:
    """Damaged copies whose verdict is known by construction.

    Builder ids are topological, so nothing before the damaged node
    depends on it and the checker blames exactly that node.
    """
    base = json.loads(data)
    nodes = base["nodes"]
    refs = [i for i, n in enumerate(nodes) if n["op"] in ("add", "mult", "red")]
    reds = [i for i, n in enumerate(nodes) if n["op"] == "red" and n["conclusion"]]
    field_of = {"add": "left", "mult": "inner", "red": "premise"}
    out = []

    claim = json.loads(data)  # 2c != c for c != 0, and 1 != 0
    claim["claim"] = [[str(2 * int(c)), w] for c, w in claim["claim"]] or [["1", []]]
    out.append(("claim", _canonical(claim), {"reason": "CLAIM_MISMATCH", "node": base["root"]}))

    i = rng.choice(refs)
    dangling = json.loads(data)
    dangling["nodes"][i][field_of[nodes[i]["op"]]] = len(nodes) + rng.randint(0, 50)
    out.append(("dangling", _canonical(dangling), {"reason": "BAD_REF", "node": i}))

    i = rng.choice(refs)
    cycle = json.loads(data)
    cycle["nodes"][i][field_of[nodes[i]["op"]]] = i
    out.append(("cycle", _canonical(cycle), {"reason": "CYCLE", "node": i}))

    i = rng.choice(reds)  # (2c)^2 = 4c^2 differs from c^2 for c != 0
    red = json.loads(data)
    red["nodes"][i]["conclusion"] = [[str(2 * int(c)), w] for c, w in nodes[i]["conclusion"]]
    out.append(("red", _canonical(red), {"reason": "RED_SQUARE_MISMATCH", "node": i}))

    cut = rng.randint(len(data) // 4, len(data) - 3)  # drops the closing brace
    out.append(("truncated", data[:cut], {"kind": "malformed"}))
    return [(f"{tag}-{kind}.json", blob, expect) for kind, blob, expect in out]


def check_corpus(seed: int, golden: Path) -> Workload:
    rng = random.Random(seed)
    work = Workload("check_corpus", seed)
    valid: list[tuple[str, bytes]] = []
    bases: list[bytes] = []
    for i in range(NIL_CERTS):
        gens = tuple(rand_poly(rng) for _ in range(rng.randint(1, 3)))
        builder = DagBuilder(NIL, GeneratorSet(gens))
        data = cert_bytes(builder, grow_nil(rng, builder, 3 + i % 3))
        valid.append((f"nil{i}.json", data))
        obj = json.loads(data)
        has_red = any(n["op"] == "red" and n["conclusion"] for n in obj["nodes"])
        if has_red and len(bases) < MUTATED_BASES:
            bases.append(data)
    for i in range(SQRT_CERTS):
        gens = tuple(rand_poly(rng) for _ in range(rng.randint(1, 2)))
        families = tuple((rand_poly(rng), rand_poly(rng)) for _ in range(rng.randint(0, 1)))
        builder = DagBuilder(SQRT, GeneratorSet(gens, families))
        uids = itertools.count(FIRST_UID)
        root = semiprime_over(builder, grow_sqrt(rng, builder, 3 + i % 3, uids), uids)
        valid.append((f"sqrt{i}.json", cert_bytes(builder, root)))
    for i, (size, depth) in enumerate(DENSE_CHAINS):
        valid.append((f"dense{i}.json", serialize(red_chain(_dense(rng, size), depth))))
    valid.append(("blowup.json", blowup(rng, BLOWUP_NODES)))
    for name in GOLDEN:
        valid.append((f"golden-{name}", (golden / name).read_bytes()))
    if len(bases) < MUTATED_BASES:
        raise RuntimeError(f"seed {seed} grew too few nil certificates with a Red node")

    for path, data in valid:
        work.files[path] = data
        obj = json.loads(data)
        work.add(["check", path], {"kind": "valid", "path": path,
                                   "nodes": len(obj["nodes"]), "setting": obj["setting"]})
    for k, data in enumerate(bases):
        for path, blob, expect in _mutants(rng, f"bad{k}", data):
            work.files[path] = blob
            expect = {"kind": "invalid", "path": path, **expect} if "reason" in expect else {
                "kind": "malformed", "path": path}
            work.add(["check", path], expect)
    return work


WORKLOADS = {
    "central_roots": central_roots,
    "products": products,
    "check_corpus": check_corpus,
}
