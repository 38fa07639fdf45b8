"""Surface syntax: ring expressions and problem files.

Expression grammar::

    poly    := term (('+' | '-') term)*
    term    := ['-'] factor ('*' factor)*
    factor  := integer | ident | '(' poly ')' | factor '^' integer
             | '[' poly ',' poly ']'
    integer := ('0' | '1' | ... | '9')+
    ident   := alpha (alnum | '_')*

An integer has ASCII digits only.  In an ident, alpha and alnum are the
characters for which str.isalpha() and str.isalnum() hold, and the
ident must be declared in the alphabet.  `*` is the noncommutative
product and must be written explicitly; `[p, q]` denotes the commutator
p*q - q*p.  Brackets nest at most MAX_NESTING deep, and no product
may outgrow MAX_SIZE.  Problem files are plain text, one `key: value` per
line, with `;` separating list items and `#` starting a comment;
parse_problem parses each expression once and returns the values, not
the source strings.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Mapping, Sequence

from nilcert.certificate import NIL, SQRT
from nilcert.record import Record
from nilcert.ring import _NAME_RE, Poly, Symbol, base_symbol, format_poly

__all__ = [
    "ParseError",
    "ProblemError",
    "ProblemFile",
    "MAX_NESTING",
    "MAX_SIZE",
    "parse_poly",
    "print_poly",
    "parse_problem",
]


def _quoted(text: str) -> str:
    """Source text quoted for a diagnostic, cut after 40 characters."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}..."


class ParseError(ValueError):
    """Syntax error with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ProblemError(ValueError):
    """Problem-file validation error, annotated with the source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Brackets may nest this deep in an expression, whatever the caller's
# stack depth; each level takes three parser frames.
MAX_NESTING = 100
# A `*`, `^` or `[p, q]` is refused before it multiplies when a product it forms
# could hold more than MAX_SIZE letters and coefficient bits over all its terms.
MAX_SIZE = 10**6


def _size(p: Poly) -> int:
    # each term pair of a product adds its letters and coefficient bits, so
    # _size(p*q) <= len(q)*_size(p) + len(p)*_size(q)
    return sum([len(word) + coeff.bit_length() for word, coeff in p._terms.items()])


# Blanks, then one token: an ASCII integer (str.isdigit also takes other
# scripts' digits), a word (\w is isalnum() or "_"), a punctuation mark,
# any other character, or the end.
_TOKEN = re.compile(r"[ \t\r\n]*(?:(?P<int>[0-9]+)|(?P<ident>\w+)|(?P<punct>[-+*^()\[\],])"
                    r"|(?P<other>.)|(?P<end>\Z))", re.DOTALL)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token; kind is "int", "ident", "end" or the mark."""
    tokens = []
    for match in _TOKEN.finditer(src):
        kind = match.lastgroup
        text, offset = match[kind], match.start(kind)
        if kind == "other" or kind == "ident" and not text[0].isalpha():
            raise ParseError(f"unexpected character {text[0]!r}", *_line_col(src, offset))
        tokens.append((text if kind == "punct" else kind, text, offset))
    return tokens


def _line_col(src: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``src[offset]``, for a diagnostic."""
    return src.count("\n", 0, offset) + 1, offset - src.rfind("\n", 0, offset)


class _Parser:
    def __init__(self, src: str, tokens: list[tuple[str, str, int]],
                 alphabet: Mapping[str, Symbol]):
        self.src = src
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet
        self.depth = 0  # brackets open around the current factor

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            shown = tok[1] if tok[0] != "end" else "end of input"
            raise ParseError(f"expected {kind!r}, found {_quoted(shown)}",
                             *_line_col(self.src, tok[2]))
        return self.take()

    def parse_poly(self) -> Poly:
        acc = self.parse_term()
        while self.peek()[0] in "+-":
            op = self.take()[0]
            term = self.parse_term()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_term(self) -> Poly:
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        acc = self.parse_factor()
        while self.peek()[0] == "*":
            offset = self.take()[2]
            acc = self.product(acc, self.parse_factor(), offset)
        return -acc if negate else acc

    def parse_factor(self) -> Poly:
        kind, text, offset = tok = self.peek()
        if kind == "int":
            self.take()
            base = Poly.constant(self.integer(tok))
        elif kind == "ident":
            self.take()
            sym = self.alphabet.get(text)
            if sym is None:
                raise ParseError(f"undeclared identifier {_quoted(text)}",
                                 *_line_col(self.src, offset))
            base = Poly.symbol(sym)
        elif kind in "([":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("expression nested too deeply", *_line_col(self.src, offset))
            base = self.parse_poly()
            if kind == "[":
                self.expect(",")
                other = self.parse_poly()  # [p, q] = p*q - q*p; both products have one bound
                base = self.product(base, other, offset) - other * base
            self.expect(")" if kind == "(" else "]")
            self.depth -= 1
        else:
            shown = text if kind != "end" else "end of input"
            raise ParseError(f"expected a factor, found {shown!r}", *_line_col(self.src, offset))
        while self.peek()[0] == "^":
            offset = self.take()[2]
            n, power = self.integer(self.expect("int")), Poly.one()
            while n:  # square and multiply, as Poly.__pow__ does, bounding each product
                if n & 1:
                    power = self.product(power, base, offset)
                n >>= 1
                base = self.product(base, base, offset) if n else base
            base = power
        return base

    def product(self, p: Poly, q: Poly, offset: int) -> Poly:
        if len(q) * _size(p) + len(p) * _size(q) > MAX_SIZE:
            raise ParseError(f"value could exceed {MAX_SIZE} letters and coefficient bits",
                             *_line_col(self.src, offset))
        return p * q

    def integer(self, tok: tuple[str, str, int]) -> int:
        try:
            return int(tok[1])
        except ValueError:  # more digits than the interpreter converts (sys.get_int_max_str_digits)
            raise ParseError(f"integer literal of {len(tok[1])} digits is too long",
                             *_line_col(self.src, tok[2])) from None


def parse_poly(src: str, symbols: Iterable[str]) -> Poly:
    """Parse ``src`` against a declared alphabet.

    ``symbols`` are the names of the base symbols an identifier may
    denote.  Every error is a ParseError with its line and column, an
    identifier outside the alphabet among them; a bracket nested more
    than MAX_NESTING deep is reported at that bracket.
    """
    parser = _Parser(src, _tokenize(src), {name: base_symbol(name) for name in symbols})
    try:
        poly = parser.parse_poly()
    except RecursionError:  # a caller within 3 * MAX_NESTING frames of the limit
        raise ParseError("expression nested too deeply",
                         *_line_col(src, parser.peek()[2])) from None
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(f"trailing input starting at {_quoted(tok[1])}", *_line_col(src, tok[2]))
    return poly


def print_poly(p: Poly, order: Sequence[str] | None = None) -> str:
    """Deterministic inverse of parse_poly on schematic-free input."""
    return format_poly(p, order)


class ProblemFile(Record):
    """A membership problem as authored by a human, its expressions
    parsed against the declared alphabet."""

    __slots__ = ()

    def __new__(cls, setting: str, symbols: tuple[str, ...], generators: tuple[Poly, ...],
                families: tuple[tuple[Poly, Poly], ...], claim: Poly | None):
        return tuple.__new__(cls, (setting, symbols, generators, families, claim))

    def generator_polys(self) -> tuple[Poly, ...]:
        return self.generators


_PROBLEM_KEYS = ("setting", "symbols", "generators", "families", "claim")


def _split_items(value: str) -> list[str]:
    items = [item.strip() for item in value.split(";")]
    return [item for item in items if item]


def parse_problem(src: str) -> ProblemFile:
    """Parse and validate a problem file; see the module docstring."""
    fields: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(src.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition(":")
        key = key.strip()
        if not sep:
            raise ProblemError(f"expected 'key: value', got {_quoted(text)}", lineno)
        if key not in _PROBLEM_KEYS:
            raise ProblemError(f"unknown key {_quoted(key)}", lineno)
        if key in fields:
            raise ProblemError(f"duplicate key {key!r}", lineno)
        fields[key] = value.strip()
        lines[key] = lineno

    if "setting" not in fields:
        raise ProblemError("missing required key 'setting'", len(src.splitlines()) + 1)
    setting = fields["setting"]
    if setting not in (NIL, SQRT):
        raise ProblemError(f"setting must be nil or sqrt, got {_quoted(setting)}", lines["setting"])

    symbols = tuple(_split_items(fields.get("symbols", "")))
    for name in symbols:
        if not _NAME_RE.match(name):
            raise ProblemError(f"invalid symbol name {_quoted(name)}", lines["symbols"])
    if len(set(symbols)) != len(symbols):
        raise ProblemError("duplicate symbol name", lines["symbols"])

    generators = _split_items(fields.get("generators", ""))

    families: list[tuple[str, str]] = []
    for item in _split_items(fields.get("families", "")):
        left, sep, right = item.partition("|")
        if not sep or not left.strip() or not right.strip():
            raise ProblemError(
                f"family must be written 'left | right', got {_quoted(item)}", lines["families"]
            )
        families.append((left.strip(), right.strip()))
    if families and setting != SQRT:
        raise ProblemError("families are only allowed when setting is sqrt", lines["families"])

    def parse(key: str, expr: str) -> Poly:
        try:
            return parse_poly(expr, symbols)
        except ParseError as err:
            raise ProblemError(f"in {key}: {_quoted(expr)}: {err.message}", lines[key]) from err

    claim = fields.get("claim")
    return ProblemFile(  # fields are evaluated, and so parsed, in order
        setting=setting,
        symbols=symbols,
        generators=tuple(parse("generators", expr) for expr in generators),
        families=tuple((parse("families", left), parse("families", right))
                       for left, right in families),
        claim=parse("claim", claim) if claim else None,
    )
