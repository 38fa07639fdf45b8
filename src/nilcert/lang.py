"""Surface syntax: ring expressions and problem files.

Expression grammar::

    poly   := term (('+' | '-') term)*
    term   := ['-'] factor ('*' factor)*
    factor := integer | ident | '(' poly ')' | factor '^' nat
            | '[' poly ',' poly ']'

`*` is the noncommutative product and must be written explicitly;
`[p, q]` denotes the commutator p*q - q*p.  Brackets nest at most
MAX_NESTING deep.  Problem files are plain text, one `key: value` per
line, with `;` separating list items and `#` starting a comment;
parse_problem parses each expression once and returns the values, not
the source strings.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from nilcert.certificate import NIL, SQRT
from nilcert.record import Record
from nilcert.ring import _NAME_RE, Poly, Symbol, base_symbol, commutator, format_poly

__all__ = [
    "ParseError",
    "UndeclaredIdentifierError",
    "ProblemError",
    "ProblemFile",
    "MAX_NESTING",
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


class UndeclaredIdentifierError(ParseError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"undeclared identifier {_quoted(name)}", line, col)
        self.name = name


class ProblemError(ValueError):
    """Problem-file validation error, annotated with the source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_PUNCT = "+-*^()[],"

# Brackets may nest this deep in an expression, whatever the caller's
# stack depth; each level takes three parser frames.
MAX_NESTING = 100


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
        self.depth = 0  # brackets open around the current factor

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
            raise ParseError(f"expected {kind!r}, found {_quoted(shown)}", tok.line, tok.col)
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
            base = Poly.constant(_integer(tok))
        elif tok.kind == "ident":
            self.take()
            sym = self.alphabet.get(tok.text)
            if sym is None:
                raise UndeclaredIdentifierError(tok.text, tok.line, tok.col)
            base = Poly.symbol(sym)
        elif tok.kind in "([":
            self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError("expression nested too deeply", tok.line, tok.col)
            base = self.parse_poly()
            if tok.kind == "[":
                self.expect(",")
                base = commutator(base, self.parse_poly())
            self.expect(")" if tok.kind == "(" else "]")
            self.depth -= 1
        else:
            shown = tok.text if tok.kind != "end" else "end of input"
            raise ParseError(f"expected a factor, found {shown!r}", tok.line, tok.col)
        while self.peek().kind == "^":
            self.take()
            base = base ** _integer(self.expect("int"))
        return base


def _integer(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:  # more digits than the interpreter converts (sys.get_int_max_str_digits)
        raise ParseError(f"integer literal of {len(tok.text)} digits is too long",
                         tok.line, tok.col) from None


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
    UndeclaredIdentifierError.  A bracket nested more than MAX_NESTING
    deep raises ParseError at that bracket.
    """
    parser = _Parser(_tokenize(src), _alphabet(symbols))
    try:
        poly = parser.parse_poly()
    except RecursionError:  # a caller within 3 * MAX_NESTING frames of the limit
        tok = parser.peek()
        raise ParseError("expression nested too deeply", tok.line, tok.col) from None
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input starting at {_quoted(tok.text)}", tok.line, tok.col)
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

    alphabet = {name: base_symbol(name) for name in symbols}

    def parse(key: str, expr: str) -> Poly:
        try:
            return parse_poly(expr, alphabet)
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
