"""Seeded mutational fuzzing of the certificate reader.

Mutations stay inside the reader's domain: value types, symbol
spellings, coefficients, object keys, truncated bytes, and references
that are out of range or of the wrong type.  Every mutant must either
be refused by ``deserialize`` with MalformedCertificateError, or be
decided by ``check_certificate`` with a Verdict; any other exception is
a bug.  Each decided mutant must get the same ``(ok, node, reason)``
from the reference checker in ``refcheck``.

A second stream moves references, and the root, to other *existing*
nodes, and renames Semiprime bounds to schematic symbols the certificate
already has.  It reaches cycles, wrong squares, wrong shapes and wrong
claims, and certificates with several faults, where only the blame order
picks the reason and the node.  A bound renamed to a symbol that its
conclusion holds breaks the shape as well as capture, and the shape must
be reported first.  This stream starts from small sources only (at most
SMALL nodes): a moved Mult reference can lengthen a chain of
multiplications, whose factors multiply conclusion sizes at each link,
and neither checker has a budget for that yet.
"""

from __future__ import annotations

import copy
import json
import pathlib
import random

import witgen
from refcheck import refcheck
from nilcert import (
    MalformedCertificateError,
    Poly,
    Verdict,
    certificate_from_dag,
    check_certificate,
    deserialize,
    fresh_middle,
    serialize,
    sqrt_product,
)

SEED = 20_261_018
CASES = 600
MOVES = 1_000
SMALL = 20  # nodes

REF_KEYS = {"gen", "family", "left", "right", "inner", "premise"}

JSON_VALUES = [
    None, True, False, 0, 1, -3, 2 ** 70, 1.5, -0.0, "", "x", "1", "z#0",
    [], [1], ["1"], [[1], ["x"]], [["1", ["x"]]], {}, {"a": 1}, {"left": []},
]
SPELLINGS = [
    "x", "y", "q", "z#0", "w#123456789", "3x", "", "x#", "x#y", "z#-1", "z#01",
    "z#١", "x y", "xé", "\ud800", "#1", "x" * 300, "x#1#2",
]
COEFFICIENTS = [
    "0", "-0", "007", "+1", "1e3", " 1", "1.0", "-", "", "--1", "١",
    "12345678901234567890123456789", "-" + "9" * 400, "1" * 5000, "2", "-1",
]


def sources() -> list[bytes]:
    golden = pathlib.Path(__file__).parent / "golden"
    out = [path.read_bytes() for path in sorted(golden.glob("*.cert.json"))]
    rng = random.Random(SEED)
    for _ in range(4):
        out.append(serialize(certificate_from_dag(witgen.nil_pair(rng, ("x", "y"), 3)[0])))
        p, _ = witgen.sqrt_pair(rng, ("x", "y"), 3, force_semiprime=True)
        out.append(serialize(certificate_from_dag(p)))
    return out


def small_sources() -> list[bytes]:
    """The sources of at most SMALL nodes, and four sqrt products, whose
    Semiprime conclusions can hold the product's schematic middle."""
    out = [data for data in sources() if len(json.loads(data)["nodes"]) <= SMALL]
    rng = random.Random(SEED)
    while len(out) < 14:
        p, q = witgen.sqrt_pair(rng, ("x", "y"), 1, force_semiprime=True)
        product = sqrt_product(p, q, Poly.symbol(fresh_middle(p, q)))
        if len(product) <= SMALL:
            out.append(serialize(certificate_from_dag(product)))
    return out


def slots(obj, path=()):
    """Every (container, key, path) below ``obj``, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield obj, key, path + (key,)
        if isinstance(value, (dict, list)):
            yield from slots(value, path + (key,))


def is_spelling(path) -> bool:
    # ... [term][1][j] inside a polynomial, or a Semiprime bound
    return (len(path) >= 3 and path[-2] == 1 and isinstance(path[-1], int)
            and isinstance(path[-3], int)) or path[-1] == "bound"


def is_coefficient(path) -> bool:
    return len(path) >= 2 and path[-1] == 0 and isinstance(path[-2], int) and (
        path[0] in ("generators", "claim", "families")
        or (path[0] == "nodes" and len(path) >= 4 and isinstance(path[2], str)))


def is_ref(path) -> bool:
    return path == ("root",) or (path[0] == "nodes" and len(path) == 3 and path[2] in REF_KEYS)


def mutate(rng: random.Random, data: bytes) -> bytes:
    obj = json.loads(data)
    if rng.random() < 0.1:
        return data[: rng.randrange(len(data))]
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        every = list(slots(obj))
        kind = rng.choice(("type", "spelling", "coefficient", "key", "ref"))
        if kind == "key":
            dicts = [obj] + [v for c, k, _ in every if isinstance(v := c[k], dict)]
            target = rng.choice(dicts)
            absent = [k for k in ("extra", "id", "op", "left", "bound") if k not in target]
            if target and rng.random() < 0.6:
                del target[rng.choice(sorted(target))]
            elif absent:  # a present key is never overwritten, so refs stay put
                target[rng.choice(absent)] = copy.deepcopy(rng.choice(JSON_VALUES))
            continue
        wanted = {"type": lambda p: True, "spelling": is_spelling,
                  "coefficient": is_coefficient, "ref": is_ref}[kind]
        chosen = [(c, k, p) for c, k, p in every if wanted(p)]
        if not chosen:
            continue
        container, key, path = rng.choice(chosen)
        old = container[key]
        if kind == "type":
            new = copy.deepcopy(rng.choice([v for v in JSON_VALUES if type(v) is not type(old)]))
            if is_ref(path) and isinstance(new, int) and not isinstance(new, bool):
                new = -1 - abs(new)  # an int in a reference slot stays out of range
        elif kind == "spelling":
            new = rng.choice(SPELLINGS)
        elif kind == "coefficient":
            new = rng.choice(COEFFICIENTS)
        else:
            n = len(obj["nodes"]) if isinstance(obj.get("nodes"), list) else 0
            new = rng.choice((n, n + 7, -1, -(10 ** 20), 10 ** 40, "0", 0.0, True, None, [0]))
        container[key] = new
    text = json.dumps(obj, sort_keys=rng.random() < 0.5, ensure_ascii=rng.random() < 0.5)
    return text.encode("utf-8", "surrogatepass")


def test_mutated_certificates_are_malformed_or_decided():
    rng = random.Random(SEED)
    bases = sources()
    outcomes = {"malformed": 0, "valid": 0, "invalid": 0}
    for _ in range(CASES):
        data = mutate(rng, rng.choice(bases))
        try:
            cert = deserialize(data)
        except MalformedCertificateError:
            outcomes["malformed"] += 1
            continue
        verdict = check_certificate(cert)
        assert isinstance(verdict, Verdict)
        assert verdict[:3] == refcheck(json.loads(data)), verdict
        outcomes["valid" if verdict else "invalid"] += 1
        # whatever reads also writes, and the written form reads back the same
        assert deserialize(serialize(cert)) == cert
    # the mutants reach every outcome, not only the reader's refusals
    assert all(outcomes.values()), outcomes


def move(rng: random.Random, data: bytes) -> bytes:
    """``data`` with one to three references or the root pointed at existing
    nodes, or Semiprime bounds renamed to schematic symbols it already has."""
    obj = json.loads(data)
    n = len(obj["nodes"])
    schematic = sorted({c[k] for c, k, _ in slots(obj) if isinstance(c[k], str) and "#" in c[k]})
    targets = [(obj, "root")] + [(node, key) for node in obj["nodes"]
                                 for key in ("left", "right", "inner", "premise", "bound")
                                 if isinstance(node.get(key), (int, str))]
    for _ in range(rng.choice((1, 1, 2, 3))):
        container, key = rng.choice(targets)
        container[key] = rng.choice(schematic) if key == "bound" else rng.randrange(n)
    return json.dumps(obj).encode()


def test_moved_references_get_the_reference_checkers_verdict():
    rng = random.Random(SEED)
    bases = small_sources()
    outcomes: dict[str | None, int] = {}
    for _ in range(MOVES):
        data = move(rng, rng.choice(bases))
        verdict = check_certificate(deserialize(data))
        assert verdict[:3] == refcheck(json.loads(data)), verdict
        outcomes[verdict.reason] = outcomes.get(verdict.reason, 0) + 1
    # each reason a moved reference can cause, and acceptance, is reached
    assert {None, "CYCLE", "RED_SQUARE_MISMATCH", "SEMIPRIME_SHAPE",
            "CLAIM_MISMATCH"} <= set(outcomes), outcomes
