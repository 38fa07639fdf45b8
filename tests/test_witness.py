"""DagBuilder side conditions, budgets, and schematic substitution."""

from __future__ import annotations

import contextlib
import copy
import io
import pathlib
import pickle
import random
import typing

import pytest

import witgen
from nilcert import (
    NIL,
    SQRT,
    BudgetExceededError,
    CentralConstants,
    Certificate,
    DagBuilder,
    GeneratorSet,
    Permutation,
    Poly,
    ProofLog,
    ProofStep,
    Symbol,
    Verdict,
    WitnessDag,
    WitnessError,
    base_symbol,
    certificate_from_dag,
    check_certificate,
    deserialize,
    node_budget,
    parse_problem,
    serialize,
    substitute_schematic,
)
from nilcert.certificate import (
    DEFAULT_MAX_NODES, FIELDS, INDEX, POLY, REF, SYMBOL, Add, Intro, IntroFamily,
    Mult, Node, Red, Semiprime, Zero,
)
from nilcert.checker import (
    BAD_REF, GEN_INDEX, RED_SQUARE_MISMATCH, SEMIPRIME_CAPTURE, SEMIPRIME_SHAPE, WRONG_SETTING,
)

x = Poly.symbol(base_symbol("x"))
y = Poly.symbol(base_symbol("y"))
GENS = GeneratorSet((x ** 3 - x, y))


def test_generator_set_identity():
    assert GeneratorSet((x,)) == GeneratorSet((x,))
    assert GeneratorSet((x,)) != GeneratorSet((y,))
    assert GeneratorSet((x,), [(x, y)]) != GeneratorSet((x,))
    assert hash(GeneratorSet((x,))) == hash(GeneratorSet((x,)))


def test_builder_basics_and_sharing():
    b = DagBuilder(NIL, GENS)
    i = b.intro(0)
    assert b.conclusion(i) == x ** 3 - x
    z = b.zero()
    assert not b.conclusion(z)
    s = b.add(i, z)
    assert b.conclusion(s) == x ** 3 - x
    m = b.mult(2 * y, s, x)
    assert b.conclusion(m) == 2 * y * (x ** 3 - x) * x
    # re-adding an existing node returns the old id and allocates nothing
    before = len(b)
    assert b.intro(0) == i
    assert b.add(i, z) == s
    assert len(b) == before
    dag = b.build(m)
    assert dag.root == m and len(dag) == before
    assert dag.conclusion == b.conclusion(m)
    assert dag.conclusions[i] == x ** 3 - x


def test_the_readme_library_example_runs():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    source = readme.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    cert = deserialize(out.getvalue().encode())
    assert check_certificate(cert).ok
    assert (cert.claim, cert.generators) == (x, GeneratorSet((x * x,)))


def test_constructor_side_conditions():
    with pytest.raises(WitnessError, match="^WRONG_SETTING: unknown setting 'radical'$"):
        DagBuilder("radical", GENS)
    with pytest.raises(WitnessError, match="^WRONG_SETTING: families present in the nil setting$"):
        DagBuilder(NIL, GeneratorSet((x,), [(x, y)]))
    # a never-bound schematic generator is admitted, as the checker admits it
    z = Symbol.decode("z#0")
    b = DagBuilder(NIL, GeneratorSet((x + Poly.symbol(z),)))
    assert b.conclusion(b.intro(0)) == x + Poly.symbol(z)

    b = DagBuilder(NIL, GENS)
    with pytest.raises(WitnessError, match="^GEN_INDEX: generator index 2$"):
        b.intro(2)
    with pytest.raises(WitnessError, match="^GEN_INDEX: generator index -1$"):
        b.intro(-1)
    with pytest.raises(WitnessError, match="^WRONG_SETTING: IntroFamily outside sqrt setting$"):
        b.intro_family(0, x)
    with pytest.raises(WitnessError, match="^BAD_REF: reference to unknown node 0$"):
        b.add(0, 1)

    i = b.intro(0)
    with pytest.raises(WitnessError, match="^BAD_REF: reference to unknown node 1.0$"):
        b.mult(x, 1.0, x)  # a reference must be an int
    with pytest.raises(WitnessError, match="^RED_SQUARE_MISMATCH: "):
        b.red(i, x)
    with pytest.raises(WitnessError, match="^WRONG_SETTING: Semiprime outside sqrt setting$"):
        b.semiprime(z, b.mult(x * Poly.symbol(z), i, Poly.one()), x)
    with pytest.raises(WitnessError, match="^BAD_REF: root 9 out of range$"):
        b.build(9)

    s = DagBuilder(SQRT, GeneratorSet((x,), [(x, y)]))
    with pytest.raises(WitnessError, match="^WRONG_SETTING: Red outside nil setting$"):
        s.red(s.intro(0), x)
    with pytest.raises(WitnessError, match="^GEN_INDEX: family index 1$"):
        s.intro_family(1, x)
    with pytest.raises(WitnessError, match="^SEMIPRIME_SHAPE: bound symbol is not schematic$"):
        s.semiprime(base_symbol("x"), s.intro(0), x)


def test_red_accepts_exact_squares_only():
    b = DagBuilder(NIL, GENS)
    prem = b.mult(x * y * x, b.intro(1), Poly.one())  # (x*y)*(x*y)
    node = b.red(prem, x * y)
    assert b.conclusion(node) == x * y
    with pytest.raises(WitnessError, match="^RED_SQUARE_MISMATCH: "):
        b.red(prem, y * x)
    with pytest.raises(WitnessError, match="^RED_SQUARE_MISMATCH: "):
        b.red(prem, 2 * x * y)


def test_semiprime_shape_and_capture():
    s = DagBuilder(SQRT, GeneratorSet((x,)))
    z = Symbol.decode("z#0")
    zp = Poly.symbol(z)
    i = s.intro(0)
    good = s.mult(x * zp, i, Poly.one())  # x*z*x == c*z*c for c = x
    node = s.semiprime(z, good, x)
    assert s.conclusion(node) == x

    bad_shape = s.mult(zp, i, Poly.one())  # z*x, wrong shape
    with pytest.raises(WitnessError, match="^SEMIPRIME_SHAPE: "):
        s.semiprime(z, bad_shape, x)

    # premise (z*x)*z*(z*x) has the right shape but the bound occurs in
    # the would-be conclusion z*x
    cap = s.mult(zp, i, zp * zp * x)
    with pytest.raises(WitnessError, match="^SEMIPRIME_CAPTURE: bound occurs in the conclusion$"):
        s.semiprime(z, cap, zp * x)

    # a schematic generator may stand in the set, but not as the bound
    g = DagBuilder(SQRT, GeneratorSet((x, zp)))
    premise = g.mult(x * zp, g.intro(0), Poly.one())
    with pytest.raises(WitnessError, match="^SEMIPRIME_CAPTURE: bound occurs in the generators$"):
        g.semiprime(z, premise, x)


def test_the_builder_refuses_a_node_with_the_checkers_reason_and_detail():
    z = Symbol.decode("z#0")
    zp, one = Poly.symbol(z), Poly.one()
    sqrt_gens = GeneratorSet((x,), [(x, y)])
    cases = [  # reason, setting, generators, the nodes before, the refused node
        (WRONG_SETTING, NIL, GENS, [], IntroFamily(0, x)),
        (WRONG_SETTING, SQRT, sqrt_gens, [Intro(0)], Red(0, x)),
        (GEN_INDEX, NIL, GENS, [], Intro(2)),
        (GEN_INDEX, SQRT, sqrt_gens, [], IntroFamily(1, x)),
        # an index that is no int is out of range, as the reader refuses it
        (GEN_INDEX, NIL, GENS, [], Intro(None)),
        (GEN_INDEX, NIL, GENS, [], Intro("0")),
        (GEN_INDEX, NIL, GENS, [], Intro(0.0)),
        (GEN_INDEX, SQRT, sqrt_gens, [], IntroFamily("0", x)),
        (GEN_INDEX, SQRT, sqrt_gens, [], IntroFamily(0.0, x)),
        (BAD_REF, NIL, GENS, [Intro(0)], Add(0, 5)),
        (BAD_REF, NIL, GENS, [Intro(0)], Mult(x, -1, x)),
        (SEMIPRIME_SHAPE, SQRT, sqrt_gens, [Intro(0)], Semiprime(base_symbol("x"), 0, x)),
        (SEMIPRIME_SHAPE, SQRT, sqrt_gens, [Intro(0), Mult(zp, 0, one)], Semiprime(z, 1, x)),
        (RED_SQUARE_MISMATCH, NIL, GENS, [Intro(0)], Red(0, x)),
        (SEMIPRIME_CAPTURE, SQRT, sqrt_gens, [Intro(0), Mult(zp, 0, zp * zp * x)],
         Semiprime(z, 1, zp * x)),
        (SEMIPRIME_CAPTURE, SQRT, GeneratorSet((x, zp)), [Intro(0), Mult(x * zp, 0, one)],
         Semiprime(z, 1, x)),
    ]
    for reason, setting, gens, before, refused in cases:
        b = DagBuilder(setting, gens)
        assert [b.add_node(node) for node in before] == list(range(len(before)))
        with pytest.raises(WitnessError) as err:
            b.add_node(refused)
        cert = Certificate(setting, ("x", "y"), gens, x, (*before, refused), len(before))
        verdict = check_certificate(cert)
        assert (verdict.node, verdict.reason) == (len(before), reason), verdict
        assert str(err.value) == f"{verdict.reason}: {verdict.detail}"
        assert len(b) == len(before)


@pytest.mark.parametrize("before, held, refused, reason", [
    ([], Intro(0), Intro(0.0), "GEN_INDEX: generator index 0.0"),
    ([Intro(0), Intro(1)], Add(0, 1), Add(0.0, 1), "BAD_REF: reference to unknown node 0.0"),
])
def test_the_builder_refuses_a_float_field_whatever_it_holds(before, held, refused, reason):
    # Intro(0.0) == Intro(0), so the hash-cons index alone would hand back the held id
    for held_first in (False, True):
        b = DagBuilder(NIL, GENS)
        for node in before + [held] * held_first:
            b.add_node(node)
        size = len(b)
        with pytest.raises(WitnessError) as err:
            b.add_node(refused)
        assert (str(err.value), len(b)) == (reason, size)
        assert b.add_node(held) == len(before)


def test_node_budget():
    with node_budget(2):
        b = DagBuilder(NIL, GENS)
    b.zero()
    b.intro(0)
    b.zero()  # shared, costs nothing
    with pytest.raises(BudgetExceededError):
        b.intro(1)
    with node_budget(0), pytest.raises(WitnessError, match="positive"):
        DagBuilder(NIL, GENS)


def test_node_budgets_nest_and_restore_the_outer_one():
    def budget() -> int:
        return DagBuilder(NIL, GENS).max_nodes

    assert budget() == DEFAULT_MAX_NODES
    with node_budget(5):
        with node_budget(2):
            assert budget() == 2
        assert budget() == 5
        with pytest.raises(BudgetExceededError), node_budget(1):
            b = DagBuilder(NIL, GENS)
            b.zero()
            b.intro(0)
        assert budget() == 5
        with pytest.raises(KeyError), node_budget(3):
            raise KeyError("not a budget fault")
        assert budget() == 5
    assert budget() == DEFAULT_MAX_NODES


def test_build_checks_root():
    b = DagBuilder(NIL, GENS)
    b.zero()
    with pytest.raises(WitnessError):
        b.build(7)
    # a root that is no int is refused by the builder and the checker alike
    for root in ("0", 0.0, None):
        with pytest.raises(WitnessError) as err:
            b.build(root)
        verdict = check_certificate(Certificate(NIL, ("x", "y"), GENS, Poly.zero(), (Zero(),), root))
        assert (verdict.node, verdict.reason) == (None, BAD_REF), verdict
        assert str(err.value) == f"{verdict.reason}: {verdict.detail}"


def test_from_dag_resumes_in_place():
    b = DagBuilder(NIL, GENS)
    dag = b.build(b.add(b.intro(0), b.zero()))
    resumed = DagBuilder.from_dag(dag)
    assert len(resumed) == len(dag)
    assert resumed.intro(0) == 0  # sharing extends to the copied prefix
    top = resumed.mult(x, dag.root, Poly.one())
    grown = resumed.build(top)
    assert grown.conclusion == x * dag.conclusion
    assert grown.nodes[: len(dag)] == dag.nodes
    with node_budget(1), pytest.raises(BudgetExceededError):
        DagBuilder.from_dag(dag)


# -- substitution ----------------------------------------------------------


def test_substitute_schematic_single_slot():
    z = Symbol.decode("z#0")
    b = DagBuilder(NIL, GENS)
    dag = b.build(b.mult(Poly.one(), b.intro(0), Poly.symbol(z)))
    out = substitute_schematic(dag, z, y)
    assert out.conclusion == (x ** 3 - x) * y
    assert len(out) == len(dag)
    assert out.generators == dag.generators


def test_substitute_schematic_reads_any_depth():
    # deeper than the interpreter's recursion limit: pending nodes wait on a list
    z = Symbol.decode("z#0")
    b = DagBuilder(SQRT, GeneratorSet((), ((x, y),)))
    node = b.intro_family(0, Poly.symbol(z))
    for _ in range(20_000):
        node = b.mult(Poly.one(), node, Poly.one())
    out = substitute_schematic(b.build(node), z, x)
    assert out.conclusion == x * x * y
    assert len(out) == 20_001


def test_substitute_schematic_requires_schematic():
    b = DagBuilder(NIL, GENS)
    dag = b.build(b.zero())
    with pytest.raises(WitnessError):
        substitute_schematic(dag, base_symbol("x"), y)


def test_substitute_absent_symbol_preserves_structure():
    rng = random.Random(5)
    for _ in range(20):
        b = DagBuilder(NIL, GENS)
        dag = b.build(witgen.grow_nil(rng, b, ("x", "y"), 4))
        out = substitute_schematic(dag, Symbol.decode("q#0"), y)
        assert out.nodes == dag.nodes
        assert out.conclusion == dag.conclusion


def test_substitution_commutes_with_conclusion():
    rng = random.Random(23)
    z = Symbol.decode("z#0")
    zp = Poly.symbol(z)
    names = ("x", "y")
    for trial in range(100):
        b = DagBuilder(SQRT, GeneratorSet((x ** 2 - x,), [(x, y)]))
        inner = witgen.grow_sqrt(rng, b, names, rng.randint(0, 4))
        # weave the target symbol into the witness so the substitution
        # has something to do
        root = b.mult(zp, inner, witgen.rand_poly(rng, names) + zp)
        dag = b.build(root)
        value = witgen.rand_poly(rng, names, max_terms=2)
        out = substitute_schematic(dag, z, value)
        assert out.conclusion == dag.conclusion.substitute({z: value})


def test_substitution_renames_bound_on_capture():
    # conclusion c = q*x with premise q*x*z*q*x = c*z*c
    s = DagBuilder(SQRT, GeneratorSet((x,)))
    z = Symbol.decode("z#0")
    q = Symbol.decode("q#0")
    zp, qp = Poly.symbol(z), Poly.symbol(q)
    prem = s.mult(qp * x * zp * qp, s.intro(0), Poly.one())
    root = s.semiprime(z, prem, qp * x)
    dag = s.build(root)
    assert dag.conclusion == qp * x

    # substituting q := z*y would capture the bound z, so it is renamed
    out = substitute_schematic(dag, q, zp * y)
    assert out.conclusion == zp * y * x
    top = out.nodes[out.root]
    assert top.bound == Symbol.decode("z#1")  # the least uid unused by the witness and z*y

    # substituting the bound itself only renames; conclusions are untouched
    out2 = substitute_schematic(dag, z, y)
    assert out2.conclusion == dag.conclusion
    assert out2.nodes[out2.root].bound == Symbol.decode("z#1")


# -- the field table -------------------------------------------------------


def sample_fields(kind):
    """Distinct values for each field of a kind, by position and role."""
    bound = Symbol.decode("t#0")
    return [
        {REF: 10 + i, INDEX: i, POLY: x ** (i + 1) + y, SYMBOL: bound}[role]
        for i, (_, role) in enumerate(FIELDS[kind])
    ]


NODE_REPRS = {  # each kind's repr over sample_fields
    Intro: "Intro(gen=0)",
    IntroFamily: "IntroFamily(family=0, instance=Poly(x^2 + y))",
    Zero: "Zero()",
    Add: "Add(left=10, right=11)",
    Mult: "Mult(left=Poly(x + y), inner=11, right=Poly(x^3 + y))",
    Red: "Red(premise=10, conclusion=Poly(x^2 + y))",
    Semiprime: "Semiprime(bound=Symbol('t#0'), premise=11, conclusion=Poly(x^3 + y))",
}


def test_fields_names_every_constructor_field_in_order():
    kinds = typing.get_args(Node)
    assert set(FIELDS) == set(kinds)
    for kind in kinds:
        assert {role for _, role in FIELDS[kind]} <= {REF, INDEX, POLY, SYMBOL}
        values = sample_fields(kind)
        node = kind(*values)
        assert [getattr(node, name) for name, _ in FIELDS[kind]] == values
        assert node == kind(*values) and hash(node) == hash(kind(*values))
        assert node and repr(node) == NODE_REPRS[kind]
        with pytest.raises(TypeError):
            kind(*values, 0)
        for name, _ in FIELDS[kind]:
            with pytest.raises(AttributeError):
                setattr(node, name, values[0])
            changed = node._replace(**{name: None})
            assert getattr(changed, name) is None and type(changed) is kind
        with pytest.raises(AttributeError):
            node.extra = 1
        for copied in (pickle.loads(pickle.dumps(node)), copy.copy(node), copy.deepcopy(node)):
            assert type(copied) is kind and copied == node


def test_nodes_equal_only_nodes_of_their_kind():
    p = x * y
    assert Red(0, p) == Red(0, p) and hash(Red(0, p)) == hash(Red(0, p))
    assert Red(0, p) != IntroFamily(0, p)
    assert not Red(0, p) == IntroFamily(0, p)
    assert len({Red(0, p), IntroFamily(0, p)}) == 2
    assert Intro(0) != (0,) and (0,) != Intro(0)
    assert not Intro(0) == (0,) and not (0,) == Intro(0)
    assert {(0,): "tuple"}.get(Intro(0)) is None
    assert Add(1, 2) != Add(2, 1)


def test_records_keep_keywords_defaults_and_value_semantics():
    b = DagBuilder(NIL, GENS)
    dag = b.build(b.add(b.intro(0), b.zero()))
    assert WitnessDag(
        setting=NIL, generators=GENS, nodes=dag.nodes, conclusions=dag.conclusions, root=dag.root
    ) == dag
    cert = Certificate(
        setting=NIL, symbols=("x", "y"), generators=GENS, claim=dag.conclusion,
        nodes=dag.nodes, root=dag.root,
    )
    assert Certificate._fields == ("setting", "symbols", "generators", "claim", "nodes", "root")
    assert cert == certificate_from_dag(dag, symbols=("x", "y"))
    assert deserialize(serialize(cert)) == cert
    assert hash(deserialize(serialize(cert))) == hash(cert)
    assert cert != tuple(cert) and tuple(cert) != cert
    assert CentralConstants((2, 1)) != Permutation((2, 1))

    verdict = Verdict(ok=False)
    assert (verdict.node, verdict.reason, verdict.detail) == (None, None, "")
    assert (verdict.order, verdict.conclusions) == ((), ())
    assert not verdict and Verdict(True)
    # order and conclusions ride along outside equality, hashing and repr
    full = Verdict(True, order=(0, 1), conclusions=(x, y))
    assert full == Verdict(True) and hash(full) == hash(Verdict(True))
    assert repr(full) == "Verdict(ok=True, node=None, reason=None, detail='')"
    assert check_certificate(cert) == Verdict(True)

    with pytest.raises(TypeError, match="missing"):
        Certificate(NIL, (), GENS)
    with pytest.raises(TypeError):
        Verdict(True, colour="red")
    with pytest.raises(TypeError):
        Verdict(True, ok=False)
    with pytest.raises(TypeError):
        cert._replace(colour="red")

    for record in (dag, cert, full, CentralConstants((0, 1)), Permutation((2, 1)),
                   ProofLog((ProofStep("s", "narrative"),)), parse_problem("setting: nil\n")):
        assert type(record)._fields
        for name in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for copied in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                       copy.deepcopy(record)):
            assert type(copied) is type(record) and copied == record
    assert copy.deepcopy(full).order == (0, 1)
