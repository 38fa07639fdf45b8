"""Expression grammar, problem files, and print/parse round-trips."""

from __future__ import annotations

import random

import pytest

from nilcert import (
    ParseError,
    Poly,
    ProblemError,
    UndeclaredIdentifierError,
    base_symbol,
    commutator,
    parse_poly,
    parse_problem,
    print_poly,
)

XY = ("x", "y")
x = Poly.symbol(base_symbol("x"))
y = Poly.symbol(base_symbol("y"))


@pytest.mark.parametrize(
    "src, expected",
    [
        ("0", Poly.zero()),
        ("x", x),
        ("-x", -1 * x),
        ("x^3 - x", x * x * x - x),
        ("2*(x+1)*(x-1)", 2 * (x + Poly.one()) * (x - Poly.one())),
        ("x*y - y*x", x * y - y * x),
        ("[x, y]", commutator(x, y)),
        ("[x,[x,y]]", commutator(x, commutator(x, y))),
        ("x^2^3", (x ** 2) ** 3),
        ("2^3", Poly.constant(8)),
        ("x - - x", 2 * x),
        ("(x + y)^2", x * x + x * y + y * x + y * y),
        ("  x \n + y ", x + y),
    ],
)
def test_parse_fixed_cases(src, expected):
    assert parse_poly(src, XY) == expected


def test_product_requires_explicit_star():
    # "x y" is not a product, it is trailing input
    with pytest.raises(ParseError, match="trailing input"):
        parse_poly("x y", XY)


@pytest.mark.parametrize(
    "src, line, col",
    [
        ("x +", 1, 4),
        ("(x", 1, 3),
        ("x^", 1, 3),
        ("x^-2", 1, 3),
        ("", 1, 1),
        ("x * * y", 1, 5),
        ("[x y]", 1, 4),
        ("x + $", 1, 5),
        ("x +\n* y", 2, 1),
    ],
)
def test_syntax_errors_carry_position(src, line, col):
    with pytest.raises(ParseError) as info:
        parse_poly(src, XY)
    assert (info.value.line, info.value.col) == (line, col)


def test_undeclared_identifier():
    with pytest.raises(UndeclaredIdentifierError) as info:
        parse_poly("x + q*y", XY)
    assert info.value.name == "q"
    assert (info.value.line, info.value.col) == (1, 5)
    assert isinstance(info.value, ParseError)


def test_alphabet_accepts_mapping_and_symbols():
    alpha = {"x": base_symbol("x")}
    assert parse_poly("x^2", alpha) == x * x
    assert parse_poly("x^2", (base_symbol("x"),)) == x * x


def test_print_then_parse_is_identity():
    rng = random.Random(29)
    names = ("x", "y", "z")
    for _ in range(150):
        p = Poly.zero()
        for _ in range(rng.randint(0, 5)):
            term = Poly.constant(rng.choice((-9, -2, -1, 1, 2, 9)))
            for _ in range(rng.randint(0, 4)):
                term = term * Poly.symbol(base_symbol(rng.choice(names)))
            p = p + term
        assert parse_poly(print_poly(p), names) == p


# -- problem files ---------------------------------------------------------

NIL_PROBLEM = """\
# rings satisfying x^3 = x
setting: nil
symbols: x; y
generators: x^3 - x; y^3 - y
claim: x*y - y*x
"""

SQRT_PROBLEM = """\
setting: sqrt
symbols: a; b; c
generators: c
families: a | b; a + c | b
"""


def test_parse_problem_nil():
    prob = parse_problem(NIL_PROBLEM)
    assert prob.setting == "nil"
    assert prob.symbols == ("x", "y")
    assert prob.generator_polys() == (x ** 3 - x, y ** 3 - y)
    assert prob.families == ()
    assert prob.claim_poly() == x * y - y * x


def test_parse_problem_sqrt_families():
    prob = parse_problem(SQRT_PROBLEM)
    a, b, c = (Poly.symbol(base_symbol(n)) for n in "abc")
    assert prob.family_polys() == ((a, b), (a + c, b))
    assert prob.claim is None and prob.claim_poly() is None


def test_problem_comments_and_blank_lines_ignored():
    prob = parse_problem("\n# hi\nsetting: nil # trailing\n\nsymbols: x\n")
    assert prob.setting == "nil"
    assert prob.symbols == ("x",)
    assert prob.generators == ()


@pytest.mark.parametrize(
    "src, fragment, line",
    [
        ("symbols: x\n", "missing required key 'setting'", 2),
        ("setting: maybe\n", "setting must be nil or sqrt", 1),
        ("setting: nil\nsetting: nil\n", "duplicate key", 2),
        ("setting: nil\ncolor: red\n", "unknown key", 2),
        ("setting: nil\njust some text\n", "expected 'key: value'", 2),
        ("setting: nil\nsymbols: 3x\n", "invalid symbol name", 2),
        ("setting: nil\nsymbols: é\n", "invalid symbol name", 2),
        ("setting: nil\nsymbols: x; x\n", "duplicate symbol", 2),
        ("setting: nil\nfamilies: a | b\n", "only allowed when setting is sqrt", 2),
        ("setting: sqrt\nsymbols: a\nfamilies: a\n", "'left | right'", 3),
        ("setting: nil\nsymbols: x\ngenerators: x + q\n", "undeclared", 3),
        ("setting: nil\nsymbols: x\nclaim: x +\n", "in claim", 3),
    ],
)
def test_problem_errors_carry_line(src, fragment, line):
    with pytest.raises(ProblemError) as info:
        parse_problem(src)
    assert fragment in str(info.value)
    assert info.value.line == line


@pytest.mark.parametrize(
    "src, col",
    [("x^²", 3), ("x^١", 3), ("١٢*x", 1), ("2٣", 2)],
)
def test_only_ascii_digits_are_numerals(src, col):
    with pytest.raises(ParseError) as info:
        parse_poly(src, XY)
    assert (info.value.line, info.value.col) == (1, col)
    with pytest.raises(ProblemError) as info:
        parse_problem(f"setting: nil\nsymbols: x; y\nclaim: {src}\n")
    assert info.value.line == 3
