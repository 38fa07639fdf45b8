"""Certificate wire format: round-trips, shape validation, DAG bridges."""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import sys
import typing

import pytest

import witgen
import nilcert.cli
from nilcert import (
    BudgetExceededError,
    Certificate,
    DagBuilder,
    GeneratorSet,
    MalformedCertificateError,
    NIL,
    Poly,
    SQRT,
    UnsupportedVersionError,
    WitnessError,
    base_symbol,
    certificate_from_dag,
    check_certificate,
    dag_from_certificate,
    deserialize,
    nil_product,
    serialize,
)
from nilcert.ring import SCHEMATIC, Symbol, sorted_terms
from nilcert.certificate import FIELDS, Add, Intro, IntroFamily, Mult, Node, Red, Semiprime, Zero

x = Poly.symbol(base_symbol("x"))
y = Poly.symbol(base_symbol("y"))


def small_cert() -> Certificate:
    b = DagBuilder(NIL, GeneratorSet((x ** 3 - x,)))
    prem = b.mult(x * y * x, b.mult(y, b.intro(0), Poly.one()), Poly.one())
    dag = b.build(b.add(prem, b.zero()))
    return certificate_from_dag(dag)


def sqrt_cert() -> Certificate:
    z = Symbol.decode("z#0")
    b = DagBuilder(SQRT, GeneratorSet((x,), [(x, y)]))
    fam = b.intro_family(0, y + Poly.one())
    prem = b.mult(x * Poly.symbol(z), b.intro(0), Poly.one())
    dag = b.build(b.add(fam, b.semiprime(z, prem, x)))
    return certificate_from_dag(dag)


def test_serialize_is_canonical_json():
    data = serialize(small_cert())
    assert data.endswith(b"\n")
    obj = json.loads(data)
    assert set(obj) == {
        "version", "setting", "symbols", "generators", "families",
        "claim", "nodes", "root",
    }
    assert obj["version"] == 1
    # compact separators, sorted keys, one line
    assert data.count(b"\n") == 1
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n" == data


def test_round_trip_preserves_everything():
    for cert in (small_cert(), sqrt_cert()):
        data = serialize(cert)
        back = deserialize(data)
        assert back == cert
        assert serialize(back) == data


def test_round_trip_random_witnesses():
    rng = random.Random(37)
    names = ("x", "y")
    for _ in range(40):
        p, q = witgen.nil_pair(rng, names, rng.randint(0, 4))
        for dag in (p, q):
            cert = certificate_from_dag(dag)
            assert deserialize(serialize(cert)) == cert


OPS = {Intro: "intro", IntroFamily: "intro_family", Zero: "zero", Add: "add",
       Mult: "mult", Red: "red", Semiprime: "semiprime"}
KEYS = {"gen_index": "gen", "family_index": "family"}


def reference_serialize(cert: Certificate) -> bytes:
    """The wire format written one polynomial at a time from the public API."""

    def poly(p):
        return [[str(c), [s.encode() for s in w]] for w, c in sorted_terms(p, cert.symbols)]

    def value(v):
        return poly(v) if isinstance(v, Poly) else v.encode() if isinstance(v, Symbol) else v

    nodes = [
        {"id": i, "op": OPS[type(n)],
         **{KEYS.get(name, name): value(getattr(n, name)) for name, _ in FIELDS[type(n)]}}
        for i, n in enumerate(cert.nodes)
    ]
    obj = {
        "version": cert.version,
        "setting": cert.setting,
        "symbols": list(cert.symbols),
        "generators": [poly(p) for p in cert.generators.elements],
        "families": [{"left": poly(l), "right": poly(r)} for l, r in cert.generators.families],
        "claim": poly(cert.claim),
        "nodes": nodes,
        "root": cert.root,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def test_serialize_matches_the_one_poly_reference_encoder():
    # Symbols registered in the table in reverse print order, so code
    # order and serialization order disagree; some declared (in a random
    # order), some base symbols left undeclared, some schematic.
    bases = [base_symbol(f"ser{i:03d}") for i in range(12, 0, -1)]
    schematics = [Symbol("ser", SCHEMATIC, 990_000 + i) for i in range(6, 0, -1)]
    for sym in bases + schematics:
        Poly.symbol(sym)
    pool = bases + schematics + [base_symbol("x"), base_symbol("y")]
    names = [s.name for s in pool if not s.is_schematic]
    rng = random.Random(1_729)

    huge = [int("9" * 300), -int("8" * 451), 10 ** 200 + 1, -(10 ** 299)]

    def rand_poly():
        p = Poly.zero()
        for _ in range(rng.randint(0, 5)):
            word = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
            p = p + Poly.word(word, rng.choice((-7, -1, 1, 2, 30, rng.choice(huge))))
        return p

    for _ in range(150):
        shared = [rand_poly() for _ in range(3)]

        def some_poly():
            # an equal value in a distinct object is still one value to the writer
            if rng.random() < 0.3:
                p = rng.choice(shared)
                return Poly(p.terms) if rng.random() < 0.5 else p
            return rand_poly()

        node_kinds = [
            lambda: Intro(rng.randrange(3)),
            lambda: IntroFamily(rng.randrange(3), some_poly()),
            lambda: Zero(),
            lambda: Add(rng.randrange(9), rng.randrange(9)),
            lambda: Mult(some_poly(), rng.randrange(9), some_poly()),
            lambda: Red(rng.randrange(9), some_poly()),
            lambda: Semiprime(rng.choice(schematics), rng.randrange(9), some_poly()),
        ]
        declared = tuple(rng.sample(names, rng.randint(0, len(names))))
        cert = Certificate(
            setting=rng.choice((NIL, SQRT)),
            symbols=declared,
            generators=GeneratorSet(
                [some_poly() for _ in range(rng.randint(0, 3))],
                [(some_poly(), some_poly()) for _ in range(rng.randint(0, 2))],
            ),
            claim=some_poly(),
            nodes=tuple(rng.choice(node_kinds)() for _ in range(rng.randint(0, 9))),
            root=rng.randrange(9),
        )
        assert serialize(cert) == reference_serialize(cert)

    golden = pathlib.Path(__file__).parent / "golden"
    for path in sorted(golden.glob("*.cert.json")):
        data = path.read_bytes()
        assert serialize(deserialize(data)) == data
        assert reference_serialize(deserialize(data)) == data

    rng = random.Random(1_730)
    p, q = witgen.nil_pair(rng, ("x", "y"), 3)
    product = serialize(certificate_from_dag(nil_product(p, q)))
    assert serialize(deserialize(product)) == product
    assert reference_serialize(deserialize(product)) == product


def test_deserialize_rejects_bad_bytes():
    with pytest.raises(MalformedCertificateError) as info:
        deserialize(b"\xff\xfe not json")
    assert info.value.offset == 0
    with pytest.raises(MalformedCertificateError) as info:
        deserialize(b'{"version": 1,')
    assert info.value.offset is not None
    assert "byte" in str(info.value)
    truncated = serialize(small_cert())[:-10]
    with pytest.raises(MalformedCertificateError):
        deserialize(truncated)
    with pytest.raises(MalformedCertificateError, match="top level"):
        deserialize(b"[1, 2]\n")


# 0 when the interpreter has no int/str digit limit (before Python 3.11)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(DIGIT_LIMIT == 0, reason="no int/str digit limit")
def test_deserialize_rejects_numbers_past_the_digit_limit():
    obj = json.loads(serialize(small_cert()))
    obj["claim"][0][0] = "7" * (DIGIT_LIMIT + 1)
    with pytest.raises(MalformedCertificateError, match=r"^claim\[0\]: "):
        deserialize(json.dumps(obj).encode())
    data = serialize(small_cert()).replace(b'"root":', b'"root":' + b"1" * (DIGIT_LIMIT + 1))
    with pytest.raises(MalformedCertificateError):
        deserialize(data)


def test_deserialize_rejects_deep_nesting():
    with pytest.raises(MalformedCertificateError, match="nested too deeply"):
        deserialize(b"[" * 200_000 + b"]" * 200_000)


def test_deserialize_rejects_unsupported_version():
    obj = json.loads(serialize(small_cert()))
    obj["version"] = 2
    with pytest.raises(UnsupportedVersionError):
        deserialize(json.dumps(obj).encode())


def mutate(field_path, value) -> bytes:
    obj = json.loads(serialize(small_cert()))
    target = obj
    for step in field_path[:-1]:
        target = target[step]
    target[field_path[-1]] = value
    return json.dumps(obj).encode()


@pytest.mark.parametrize(
    "path, value, fragment",
    [
        (("setting",), "radical", "setting must be"),
        (("symbols",), ["x", "x"], "duplicate symbol"),
        (("symbols",), ["z#0"], "base symbols"),
        (("symbols", 0), "3x", "symbol"),
        (("generators", 0, 0, 0), "0", "zero coefficient"),
        (("generators", 0, 0, 0), "007", "bad coefficient"),
        (("generators", 0, 0, 0), 7, "decimal string"),
        (("generators", 0, 0, 1), ["q"], "not declared"),
        (("claim",), [["1", []], ["2", []]], "duplicate word"),
        (("nodes", 0, "id"), 5, "dense ids"),
        (("nodes", 0, "op"), "frobnicate", "unknown op"),
        (("nodes", 0, "gen"), "zero", "expected an integer"),
        (("root",), "0", "expected an integer"),
        (("extra",), 1, "unexpected keys"),
    ],
)
def test_deserialize_rejects_bad_shapes(path, value, fragment):
    with pytest.raises(MalformedCertificateError, match=fragment):
        deserialize(mutate(path, value))


def test_repeated_bad_symbols_are_blamed_at_their_first_path():
    obj = json.loads(serialize(small_cert()))
    obj["generators"][0][0][1] = ["x", "q"]
    obj["claim"] = [["1", ["q"]], ["2", ["q", "x"]]]
    # a spelling that passed in another certificate proves nothing here
    deserialize(json.dumps({**obj, "symbols": ["q", "x", "y"]}).encode())
    with pytest.raises(MalformedCertificateError,
                       match=r"^generators\[0\]\[0\]\[1\]\[1\]: symbol 'q' not declared"):
        deserialize(json.dumps(obj).encode())
    obj["generators"][0][0][1] = ["x#y", "x"]
    obj["claim"] = [["1", ["x#y"]]]
    with pytest.raises(MalformedCertificateError,
                       match=r"^generators\[0\]\[0\]\[1\]\[0\]: invalid schematic symbol"):
        deserialize(json.dumps(obj).encode())


def every_site_cert() -> dict:
    """A well-shaped certificate (not a valid derivation) with every
    polynomial site.  Each site holds the same two terms, so past the
    generators a bad value in the second term follows remembered ones."""
    def poly():
        return [["1", ["x"]], ["-2", ["x", "y"]]]

    return {
        "version": 1, "setting": "sqrt", "symbols": ["x", "y"],
        "generators": [poly()], "families": [{"left": poly(), "right": poly()}],
        "claim": poly(),
        "nodes": [
            {"id": 0, "op": "intro_family", "family": 0, "instance": poly()},
            {"id": 1, "op": "mult", "left": poly(), "inner": 0, "right": poly()},
            {"id": 2, "op": "red", "premise": 1, "conclusion": poly()},
            {"id": 3, "op": "semiprime", "bound": "z#5", "premise": 2, "conclusion": poly()},
        ],
        "root": 3,
    }


# in reading order
POLY_SITES = [
    ("generators", 0), ("families", 0, "left"), ("families", 0, "right"), ("claim",),
    ("nodes", 0, "instance"), ("nodes", 1, "left"), ("nodes", 1, "right"),
    ("nodes", 2, "conclusion"), ("nodes", 3, "conclusion"),
]
NON_STRINGS = [[1], ["1"], {"a": 1}, {}, None, 1, 0, -2.5, True]


def json_path(site) -> str:
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in site).lstrip(".")


def at(obj, site):
    for step in site:
        obj = obj[step]
    return obj


def bad_value_cases():
    """(certificate object, expected error): a non-string value put in as a
    coefficient or a spelling of the second term at one site and at every
    later one."""
    placements = (
        (lambda term, value: term.__setitem__(0, value),
         "[1]: coefficient must be a decimal string"),
        (lambda term, value: term.__setitem__(1, ["x", value]),
         "[1][1][1]: expected a symbol string"),
    )
    for value in NON_STRINGS:
        for i, site in enumerate(POLY_SITES):
            for place, suffix in placements:
                obj = every_site_cert()
                for later in POLY_SITES[i:]:
                    place(at(obj, later)[1], value)
                yield obj, json_path(site) + suffix
        obj = every_site_cert()
        obj["nodes"][3]["bound"] = value
        yield obj, "nodes[3].bound: expected a symbol string"
    for site in POLY_SITES:  # the value that made a memo keyed on raw JSON raise
        obj = every_site_cert()
        at(obj, site[:-1])[site[-1]] = [[[1], ["x"]]]
        yield obj, f"{json_path(site)}[0]: coefficient must be a decimal string"


def test_non_string_values_at_every_polynomial_site_are_malformed(tmp_path):
    deserialize(json.dumps(every_site_cert()).encode())  # the base case reads
    path = tmp_path / "bad.json"
    cases = list(bad_value_cases())
    assert len(cases) == len(NON_STRINGS) * (2 * len(POLY_SITES) + 1) + len(POLY_SITES)
    for obj, expected in cases:
        data = json.dumps(obj).encode()
        with pytest.raises(MalformedCertificateError) as info:
            deserialize(data)
        assert str(info.value) == expected
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert nilcert.cli.main(["check", str(path)]) == 2
        assert expected in err.getvalue()


def test_deserialize_rejects_stray_node_keys():
    obj = json.loads(serialize(small_cert()))
    obj["nodes"][0]["bonus"] = 1
    with pytest.raises(MalformedCertificateError, match="unexpected keys"):
        deserialize(json.dumps(obj).encode())


def test_deserialize_keeps_semantic_problems_for_the_checker():
    # dangling references and wrong claims are not shape errors
    obj = json.loads(serialize(small_cert()))
    obj["root"] = 99
    deserialize(json.dumps(obj).encode())
    obj = json.loads(serialize(small_cert()))
    obj["claim"] = [["5", []]]
    deserialize(json.dumps(obj).encode())


# -- bridges ---------------------------------------------------------------


def test_certificate_from_dag_defaults():
    b = DagBuilder(NIL, GeneratorSet((y * x,)))
    dag = b.build(b.intro(0))
    cert = certificate_from_dag(dag)
    assert cert.symbols == ("x", "y")
    assert cert.claim == y * x
    with pytest.raises(WitnessError, match="claim differs"):
        certificate_from_dag(dag, claim=x)


def test_certificate_from_dag_completes_symbol_list():
    b = DagBuilder(NIL, GeneratorSet((x,)))
    dag = b.build(b.mult(y, b.intro(0), Poly.one()))
    cert = certificate_from_dag(dag, symbols=("x",))
    assert cert.symbols == ("x", "y")
    # and the written file reads back
    assert deserialize(serialize(cert)) == cert


def test_dag_from_certificate_reverifies():
    cert = small_cert()
    dag = dag_from_certificate(cert)
    assert dag.conclusion == cert.claim
    assert dag.setting == cert.setting

    broken = Certificate(
        setting=cert.setting,
        symbols=cert.symbols,
        generators=cert.generators,
        claim=cert.claim + Poly.one(),
        nodes=cert.nodes,
        root=cert.root,
    )
    with pytest.raises(WitnessError, match="claim differs"):
        dag_from_certificate(broken)


def test_dag_from_certificate_rejects_cycles_and_dangling_refs():
    cert = small_cert()
    obj = json.loads(serialize(cert))
    obj["nodes"][2]["inner"] = 2  # self reference
    looped = deserialize(json.dumps(obj).encode())
    with pytest.raises(WitnessError, match="cycle"):
        dag_from_certificate(looped)
    obj = json.loads(serialize(cert))
    obj["nodes"][2]["inner"] = 40
    dangling = deserialize(json.dumps(obj).encode())
    with pytest.raises(WitnessError, match="unknown node"):
        dag_from_certificate(dangling)


def test_dag_round_trip_preserves_conclusions():
    rng = random.Random(41)
    for _ in range(25):
        p, _ = witgen.sqrt_pair(rng, ("x", "y"), rng.randint(0, 4))
        cert = certificate_from_dag(p)
        back = dag_from_certificate(cert)
        assert back.conclusion == p.conclusion
        assert back.generators == p.generators


REFERENCE_FIELDS = ("left", "right", "inner", "premise")


def renumbered(node, new_id):
    """The node with every reference r replaced by new_id(r)."""
    refs = {
        name: new_id(getattr(node, name))
        for name in REFERENCE_FIELDS
        if isinstance(getattr(node, name, None), int)
    }
    return node._replace(**refs)


def readmitted(cert: Certificate):
    """Reference DAG: every node re-admitted through DagBuilder in the
    checker's order, so each side condition is verified a second time."""
    builder = DagBuilder(cert.setting, cert.generators)
    mapping: dict[int, int] = {}
    for ident in check_certificate(cert).order:
        mapping[ident] = builder.add_node(renumbered(cert.nodes[ident], mapping.__getitem__))
    return builder.build(mapping[cert.root])


def shuffled_with_duplicate(cert: Certificate, rng: random.Random) -> Certificate:
    """The same derivation with node ids permuted and one node repeated."""
    new_id = list(range(len(cert.nodes)))
    rng.shuffle(new_id)
    nodes = [None] * len(cert.nodes)
    for old, node in enumerate(cert.nodes):
        nodes[new_id[old]] = renumbered(node, new_id.__getitem__)
    nodes.append(rng.choice(nodes))
    return cert._replace(nodes=tuple(nodes), root=new_id[cert.root])


def test_dag_from_certificate_matches_a_readmitted_reference(tmp_path):
    rng = random.Random(43)
    golden = pathlib.Path(__file__).parent / "golden"
    certs = [deserialize(path.read_bytes()) for path in sorted(golden.glob("*.cert.json"))]
    for _ in range(15):
        certs.append(certificate_from_dag(witgen.nil_pair(rng, ("x", "y"), rng.randint(0, 4))[0]))
        p, _ = witgen.sqrt_pair(rng, ("x", "y"), rng.randint(0, 4), force_semiprime=True)
        certs.append(certificate_from_dag(p))
    certs += [shuffled_with_duplicate(cert, rng) for cert in certs]
    for cert in certs:
        got, want = dag_from_certificate(cert), readmitted(cert)
        assert (got.setting, got.generators) == (want.setting, want.generators)
        assert got.nodes == want.nodes
        assert got.conclusions == want.conclusions
        assert got.root == want.root
        assert len(dag_from_certificate(cert, len(want.nodes))) == len(want.nodes)
        with pytest.raises(BudgetExceededError):
            dag_from_certificate(cert, len(want.nodes) - 1)

    # the checker accepts a never-bound schematic generator; a DAG cannot hold one
    q = Poly.symbol(Symbol.decode("q#0"))
    cert = Certificate("sqrt", ("x",), GeneratorSet((q,)), q, (Intro(0),), 0)
    assert check_certificate(cert).ok
    with pytest.raises(WitnessError, match="schematic symbol"):
        dag_from_certificate(cert)

    path = tmp_path / "schematic.json"
    path.write_bytes(serialize(cert))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = nilcert.cli.main(["permute", str(path), "--factors", "x", "--sigma", "1",
                                 "-o", str(tmp_path / "out.json")])
    assert code == 1
    assert "schematic symbol" in err.getvalue()
    assert not (tmp_path / "out.json").exists()


# -- the node table ---------------------------------------------------------

# each op's wire keys in reading order, with the message a null value there gets
NODE_WIRE = {
    "intro": {"gen": "expected an integer"},
    "intro_family": {"family": "expected an integer",
                     "instance": "expected a polynomial term list"},
    "zero": {},
    "add": {"left": "expected an integer", "right": "expected an integer"},
    "mult": {"left": "expected a polynomial term list", "inner": "expected an integer",
             "right": "expected a polynomial term list"},
    "red": {"premise": "expected an integer",
            "conclusion": "expected a polynomial term list"},
    "semiprime": {"bound": "expected a symbol string", "premise": "expected an integer",
                  "conclusion": "expected a polynomial term list"},
}
GOOD_VALUE = {
    "expected an integer": 0,
    "expected a polynomial term list": [["1", ["x"]]],
    "expected a symbol string": "z#3",
}


def node_cert(node: dict) -> bytes:
    return json.dumps({
        "version": 1, "setting": "sqrt", "symbols": ["x"], "generators": [],
        "families": [], "claim": [], "nodes": [{"id": 0, "op": "zero"}, node], "root": 0,
    }).encode()


def read_error(data: bytes) -> str:
    with pytest.raises(MalformedCertificateError) as info:
        deserialize(data)
    return str(info.value)


def test_every_node_key_is_blamed_at_its_own_path():
    for op, wire in NODE_WIRE.items():
        good = {"id": 1, "op": op, **{key: GOOD_VALUE[msg] for key, msg in wire.items()}}
        deserialize(node_cert(good))
        for key in ("id", "op", *wire):
            rest = {k: v for k, v in good.items() if k != key}
            assert read_error(node_cert(rest)) == f"nodes[1]: missing key {key!r}"
        nulls = {"id": "expected an integer", "op": "unknown op None", **wire}
        for key, message in nulls.items():
            assert read_error(node_cert({**good, key: None})) == f"nodes[1].{key}: {message}"
            if message == "expected an integer":
                assert read_error(node_cert({**good, key: True})) == f"nodes[1].{key}: {message}"
        if wire:  # fields are read in constructor order
            first, message = next(iter(wire.items()))
            all_null = {**good, **dict.fromkeys(wire)}
            assert read_error(node_cert(all_null)) == f"nodes[1].{first}: {message}"
        assert read_error(node_cert({**good, "zz": 1})) == "nodes[1]: unexpected keys ['zz']"


def test_one_node_of_each_kind_round_trips():
    z = Symbol.decode("z#0")
    nodes = (Intro(0), IntroFamily(0, x - y), Zero(), Add(0, 2), Mult(x, 3, y * y),
             Red(4, x * y), Semiprime(z, 5, 2 * y))
    assert {type(node) for node in nodes} == set(typing.get_args(Node))
    cert = Certificate("sqrt", ("x", "y"), GeneratorSet((x,), [(x, y)]), x, nodes, 6)
    data = serialize(cert)
    assert [node["op"] for node in json.loads(data)["nodes"]] == list(NODE_WIRE)
    back = deserialize(data)
    assert back.nodes == nodes
    assert serialize(back) == data


# -- numerals ---------------------------------------------------------------


@pytest.mark.parametrize("spelling", ["z#01", "z#00", "z#١٢", "z#²", "z#0١"])
def test_only_canonical_ascii_uids_are_read(spelling, tmp_path):
    obj = every_site_cert()
    obj["generators"][0][1][1] = ["x", spelling]
    obj["claim"][1][1] = ["x", spelling]
    obj["nodes"][3]["bound"] = spelling
    expected = f"generators[0][1][1][1]: invalid schematic symbol: {spelling!r}"
    cases = [(obj, expected)]
    obj = every_site_cert()
    obj["nodes"][3]["bound"] = spelling
    cases.append((obj, f"nodes[3].bound: invalid schematic symbol: {spelling!r}"))
    for obj, expected in cases:
        assert_malformed(obj, expected, tmp_path)
    for good in ("z#0", "z#10"):
        obj = every_site_cert()
        obj["nodes"][3]["bound"] = good
        assert deserialize(json.dumps(obj).encode()).nodes[3].bound.encode() == good


@pytest.mark.parametrize("coeff", ["١٢", "²", "-١", "1٢"])
def test_only_ascii_coefficients_are_read(coeff, tmp_path):
    obj = every_site_cert()
    obj["nodes"][1]["left"][1][0] = coeff
    obj["nodes"][2]["conclusion"][0][0] = coeff
    assert_malformed(obj, f"nodes[1].left[1]: bad coefficient {coeff!r}", tmp_path)


def assert_malformed(obj: dict, expected: str, tmp_path) -> None:
    data = json.dumps(obj).encode()
    assert read_error(data) == expected
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert nilcert.cli.main(["check", str(path)]) == 2
    assert err.getvalue() == f"nilcert: {expected}\n"
