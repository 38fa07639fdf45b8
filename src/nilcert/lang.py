"""Surface syntax: ring expressions and problem files.

Expression grammar::

    poly   := term (('+' | '-') term)*
    term   := ['-'] factor ('*' factor)*
    factor := integer | ident | '(' poly ')' | factor '^' nat
            | '[' poly ',' poly ']'

`*` is the noncommutative product and must be written explicitly;
`[p, q]` denotes the commutator p*q - q*p.  Problem files are plain
text, one `key: value` per line, with `;` separating list items and
`#` starting a comment.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from nilcert.record import Record
from nilcert.ring import _NAME_RE, Poly, Symbol, base_symbol, commutator, format_poly

__all__ = [
    "ParseError",
    "UndeclaredIdentifierError",
    "ProblemError",
    "ProblemFile",
    "parse_poly",
    "print_poly",
    "parse_problem",
]


class ParseError(ValueError):
    """Syntax error with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class UndeclaredIdentifierError(ParseError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"undeclared identifier {name!r}", line, col)
        self.name = name


class ProblemError(ValueError):
    """Problem-file validation error, annotated with the source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_PUNCT = "+-*^()[],"


class _Token(Record):
    __slots__ = ()

    def __new__(cls, kind: str, text: str, line: int, col: int):
        # kind is "int", "ident", one of _PUNCT, or "end"
        return tuple.__new__(cls, (kind, text, line, col))


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if "0" <= ch <= "9":  # ASCII only; str.isdigit also takes other scripts' digits
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            tokens.append(_Token("int", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("ident", src[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], alphabet: Mapping[str, Symbol]):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise ParseError(f"expected {kind!r}, found {shown!r}", tok.line, tok.col)
        return self.take()

    def parse_poly(self) -> Poly:
        acc = self.parse_term()
        while self.peek().kind in "+-":
            op = self.take()
            term = self.parse_term()
            acc = acc + term if op.kind == "+" else acc - term
        return acc

    def parse_term(self) -> Poly:
        negate = False
        if self.peek().kind == "-":
            self.take()
            negate = True
        acc = self.parse_factor()
        while self.peek().kind == "*":
            self.take()
            acc = acc * self.parse_factor()
        return -acc if negate else acc

    def parse_factor(self) -> Poly:
        tok = self.peek()
        if tok.kind == "int":
            self.take()
            base = Poly.constant(int(tok.text))
        elif tok.kind == "ident":
            self.take()
            sym = self.alphabet.get(tok.text)
            if sym is None:
                raise UndeclaredIdentifierError(tok.text, tok.line, tok.col)
            base = Poly.symbol(sym)
        elif tok.kind == "(":
            self.take()
            base = self.parse_poly()
            self.expect(")")
        elif tok.kind == "[":
            self.take()
            left = self.parse_poly()
            self.expect(",")
            right = self.parse_poly()
            self.expect("]")
            base = commutator(left, right)
        else:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise ParseError(f"expected a factor, found {shown!r}", tok.line, tok.col)
        while self.peek().kind == "^":
            self.take()
            exp = self.expect("int")
            base = base ** int(exp.text)
        return base


def _alphabet(symbols) -> dict[str, Symbol]:
    if isinstance(symbols, Mapping):
        return dict(symbols)
    table: dict[str, Symbol] = {}
    for item in symbols:
        sym = item if isinstance(item, Symbol) else base_symbol(item)
        table[sym.name] = sym
    return table


def parse_poly(src: str, symbols) -> Poly:
    """Parse ``src`` against a declared alphabet.

    ``symbols`` may be an iterable of names (or Symbol objects) or a
    name-to-Symbol mapping.  Identifiers outside the alphabet raise
    UndeclaredIdentifierError.
    """
    parser = _Parser(_tokenize(src), _alphabet(symbols))
    poly = parser.parse_poly()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return poly


def print_poly(p: Poly, order: Sequence[str] | None = None) -> str:
    """Deterministic inverse of parse_poly on schematic-free input."""
    return format_poly(p, order)


class ProblemFile(Record):
    """A membership problem as authored by a human.

    Expressions are kept as source strings; the parse methods validate
    them against the declared alphabet on demand.
    """

    __slots__ = ()

    def __new__(cls, setting: str, symbols: tuple[str, ...], generators: tuple[str, ...],
                families: tuple[tuple[str, str], ...], claim: str | None):
        return tuple.__new__(cls, (setting, symbols, generators, families, claim))

    def alphabet(self) -> dict[str, Symbol]:
        return {name: base_symbol(name) for name in self.symbols}

    def generator_polys(self) -> tuple[Poly, ...]:
        alpha = self.alphabet()
        return tuple(parse_poly(src, alpha) for src in self.generators)

    def family_polys(self) -> tuple[tuple[Poly, Poly], ...]:
        alpha = self.alphabet()
        return tuple(
            (parse_poly(left, alpha), parse_poly(right, alpha))
            for left, right in self.families
        )

    def claim_poly(self) -> Poly | None:
        if self.claim is None:
            return None
        return parse_poly(self.claim, self.alphabet())


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
            raise ProblemError(f"expected 'key: value', got {text!r}", lineno)
        if key not in _PROBLEM_KEYS:
            raise ProblemError(f"unknown key {key!r}", lineno)
        if key in fields:
            raise ProblemError(f"duplicate key {key!r}", lineno)
        fields[key] = value.strip()
        lines[key] = lineno

    if "setting" not in fields:
        raise ProblemError("missing required key 'setting'", len(src.splitlines()) + 1)
    setting = fields["setting"]
    if setting not in ("nil", "sqrt"):
        raise ProblemError(f"setting must be nil or sqrt, got {setting!r}", lines["setting"])

    symbols = tuple(_split_items(fields.get("symbols", "")))
    for name in symbols:
        if not _NAME_RE.match(name):
            raise ProblemError(f"invalid symbol name {name!r}", lines["symbols"])
    if len(set(symbols)) != len(symbols):
        raise ProblemError("duplicate symbol name", lines["symbols"])

    generators = tuple(_split_items(fields.get("generators", "")))

    families: list[tuple[str, str]] = []
    for item in _split_items(fields.get("families", "")):
        left, sep, right = item.partition("|")
        if not sep or not left.strip() or not right.strip():
            raise ProblemError(
                f"family must be written 'left | right', got {item!r}", lines["families"]
            )
        families.append((left.strip(), right.strip()))
    if families and setting != "sqrt":
        raise ProblemError("families are only allowed when setting is sqrt", lines["families"])

    problem = ProblemFile(
        setting=setting,
        symbols=symbols,
        generators=generators,
        families=tuple(families),
        claim=fields.get("claim") or None,
    )

    # Validate every expression now so errors carry the file line.
    for key, exprs in (
        ("generators", problem.generators),
        ("families", [s for pair in problem.families for s in pair]),
        ("claim", [problem.claim] if problem.claim else []),
    ):
        alpha = problem.alphabet()
        for expr in exprs:
            try:
                parse_poly(expr, alpha)
            except ParseError as err:
                raise ProblemError(f"in {key}: {expr!r}: {err.message}", lines[key]) from err
    return problem
