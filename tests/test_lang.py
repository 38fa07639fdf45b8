"""Expression grammar, problem files, and print/parse round-trips."""

from __future__ import annotations

import hashlib
import random
import re
import sys

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
from nilcert.lang import MAX_NESTING

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


DEEP = 1000  # well past the interpreter's recursion limit


@pytest.mark.parametrize(
    "src",
    ["(" * DEEP + "x" + ")" * DEEP, "[" * DEEP + "x" + ", y]" * DEEP, "-(" * DEEP + "x"],
    ids=["parentheses", "commutators", "negations"],
)
def test_deep_nesting_is_a_parse_error(src):
    with pytest.raises(ParseError, match="expression nested too deeply") as info:
        parse_poly(src, XY)
    assert info.value.line == 1 and 1 < info.value.col < len(src)


LONG = "1" * 5000  # past the interpreter's 4,300-digit int/str conversion limit


@pytest.mark.parametrize(
    "src, line, col",
    [("x +\n" + LONG + "*y", 2, 1), ("x + y^" + LONG, 1, 7)],
    ids=["factor", "exponent"],
)
def test_over_long_integer_literals_are_parse_errors(src, line, col):
    with pytest.raises(ParseError, match="integer literal of 5000 digits is too long") as info:
        parse_poly(src, XY)
    assert (info.value.line, info.value.col) == (line, col)


def test_over_long_integer_literals_in_a_problem_name_the_line():
    with pytest.raises(ProblemError, match="integer literal of 5000 digits") as info:
        parse_problem(f"setting: nil\nsymbols: x\ngenerators: {LONG}*x\n")
    assert info.value.line == 3


@pytest.mark.parametrize("src", [
    f"setting: nil\nsymbols: x\ngenerators: {LONG}*x\n",
    f"setting: nil\nsymbols: x\ngenerators: x*{'q' * 5000}\n",
    f"setting: nil\nsymbols: x\ngenerators: x {LONG}\n",
    f"setting: nil\nsymbols: x\ngenerators: (x {LONG})\n",
    f"setting: nil\n{'k' * 5000}\n",
    f"setting: {'n' * 5000}\n",
], ids=["literal", "identifier", "trailing", "bracket", "line", "value"])
def test_problem_errors_quote_a_bounded_excerpt(src):
    with pytest.raises(ProblemError) as info:
        parse_problem(src)
    assert len(str(info.value)) < 300


def _called_from_below(frames, call):
    """call(), run under ``frames`` extra stack frames."""
    return call() if frames == 0 else _called_from_below(frames - 1, call)


@pytest.mark.parametrize("opening", ["(", "[", "-("])
def test_the_nesting_limit_does_not_depend_on_the_callers_stack(opening):
    closing = {"(": ")", "[": ", y]", "-(": ")"}[opening]
    at_limit = opening * MAX_NESTING + "x" + closing * MAX_NESTING
    past = opening * (MAX_NESTING + 1) + "x" + closing * (MAX_NESTING + 1)
    errors = []
    for frames in (0, 500):
        assert _called_from_below(frames, lambda: parse_poly(at_limit, XY)) == (
            parse_poly(at_limit, XY)
        )
        with pytest.raises(ParseError) as info:
            _called_from_below(frames, lambda: parse_poly(past, XY))
        errors.append((info.value.message, info.value.line, info.value.col))
    # the error names the first bracket past the limit
    col = len(opening) * MAX_NESTING + len(opening)
    assert errors == [("expression nested too deeply", 1, col)] * 2


def test_a_caller_near_the_recursion_limit_gets_a_parse_error():
    # MAX_NESTING brackets take about 3 * MAX_NESTING parser frames, more
    # than a caller 100 frames below the limit leaves
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    at_limit = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    with pytest.raises(ParseError, match="expression nested too deeply"):
        _called_from_below(sys.getrecursionlimit() - depth - 100,
                           lambda: parse_poly(at_limit, XY))


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
    assert prob.generators == (x ** 3 - x, y ** 3 - y)
    assert prob.families == ()
    assert prob.claim == x * y - y * x


def test_parse_problem_sqrt_families():
    prob = parse_problem(SQRT_PROBLEM)
    a, b, c = (Poly.symbol(base_symbol(n)) for n in "abc")
    assert prob.families == ((a, b), (a + c, b))
    assert prob.claim is None


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
        pytest.param("setting: nil\nsymbols: x\nclaim: " + "(" * DEEP + "x" + ")" * DEEP,
                     "expression nested too deeply", 3, id="nested-too-deeply"),
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


# -- pinned results ----------------------------------------------------------

# Half the strings are drawn from the grammar's own pieces, half from
# these and letters and digits outside ASCII, `_`, CR, LF, tab, NBSP, a
# combining acute accent and characters the grammar has no use for.
GRAMMAR_PIECES = (*("x", "y", "x_1", "1", "2") * 2, " ", *"+-*^()[],")
FUZZ_PIECES = (*GRAMMAR_PIECES, "q", "é", "Ω", "0", "9", "٣", "²", "_", "$", ";", "#",
               "\t", "\r", "\n", "\xa0", "\u0301")
FUZZ_SYMBOLS = ("x", "y", "x_1")
PROBLEM_OF_ONE_LINE = "setting: nil\nsymbols: x; y; x_1\ngenerators: "
# an exponent above 2 can ask for 2^81 terms within a dozen pieces, as in (x+y)^9^9
_COSTLY = re.compile(r"\^[ \t\r\n]*(?:[0-9]{2}|[3-9])")


def _outcome(parse, src):
    try:
        return [print_poly(poly) for poly in parse(src)]
    except (ParseError, ProblemError) as err:
        cause = err.__cause__
        return (type(err).__name__, str(err), err.line, getattr(err, "col", None),
                cause and (type(cause).__name__, cause.message, cause.line, cause.col))


def parser_digest(count: int, seed: int = 0) -> str:
    """One hash over what parse_poly and a problem file's generators make of
    ``count`` seeded strings: the printed result, or the error's class,
    message and position."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    made = 0
    while made < count:
        pieces = FUZZ_PIECES if made % 2 else GRAMMAR_PIECES
        src = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
        if _COSTLY.search(src):
            continue
        made += 1
        for parse in (lambda s: [parse_poly(s, FUZZ_SYMBOLS)],
                      lambda s: parse_problem(PROBLEM_OF_ONE_LINE + s).generators):
            digest.update(repr(_outcome(parse, src)).encode())
    return digest.hexdigest()


# parser_digest(5000) as first recorded.  A change to lang or to print_poly
# that alters these results on purpose pins the new digest here and
# records the reason in CHANGES.md, as a re-baselined golden does.
PINNED_PARSER_DIGEST = "5012bf6c0a417386204c334e443438cc734deef157a454b6df2a76fc12c5808b"


def test_parser_results_are_pinned():
    assert parser_digest(5000) == PINNED_PARSER_DIGEST
