"""Exact arithmetic in the free unital noncommutative ring Z<X>.

An element is a finite integer combination of words over a symbol
alphabet.  Words multiply by concatenation and do not commute; the
empty word is the unit.  Coefficients are arbitrary-precision integers
and are central.  Every value here is immutable and safe to share
between threads.

Inside a Poly a word is a str with one code point per symbol: each
symbol's ``code``, handed out in interning order by one process-wide
table (so codes carry no sort order).  Public functions take and
return tuples of Symbol.
"""

from __future__ import annotations

import itertools
import re
import sys
import threading
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "BASE",
    "SCHEMATIC",
    "Symbol",
    "Word",
    "Poly",
    "base_symbol",
    "fresh_schematic",
    "reserve_uids",
    "commutator",
    "substitute",
    "sorted_terms",
    "term_sorter",
    "symbols_of",
    "format_poly",
]

BASE = "base"
SCHEMATIC = "schematic"

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_NUMERAL = re.compile(r"(?:0|[1-9][0-9]*)\Z")  # ASCII digits, no leading zero
_interned: dict[tuple, "Symbol"] = {}
_symbols: list["Symbol"] = []  # the symbol of each code, in code order
_table_lock = threading.Lock()
_CODE_LIMIT = sys.maxunicode + 1


class Symbol:
    """An indeterminate of the free ring.

    Base symbols form the declared alphabet of a problem.  Schematic
    symbols stand for an arbitrary ring element (a universally
    quantified slot, a family middle, a bound variable).  A symbol is
    identified by its full spelling: a schematic one by ``name#uid``,
    so ``z#0`` and ``w#0`` are distinct indeterminates.  Symbols are
    interned, one object per spelling, so ``==`` and ``hash`` are identity;
    interning gives each its ``code``, its code point in ring words.
    """

    __slots__ = ("name", "kind", "uid", "code")

    def __new__(cls, name: str, kind: str = BASE, uid: int = 0) -> "Symbol":
        sym = _interned.get((kind, name, uid))
        if sym is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid symbol name: {name!r}")
            if kind not in (BASE, SCHEMATIC):
                raise ValueError(f"invalid symbol kind: {kind!r}")
            if uid < 0:
                raise ValueError("symbol uid must be nonnegative")
            with _table_lock:
                sym = _interned.get((kind, name, uid))
                if sym is None:
                    if len(_symbols) >= _CODE_LIMIT:
                        raise OverflowError(f"symbol table full at {_CODE_LIMIT} symbols")
                    sym = object.__new__(cls)
                    sym.name, sym.kind, sym.uid, sym.code = name, kind, uid, chr(len(_symbols))
                    _symbols.append(sym)  # first, so every code a reader holds decodes
                    _interned[kind, name, uid] = sym
        return sym

    def __reduce__(self) -> tuple:
        # pickle, copy and deepcopy come back to the interned object
        return (Symbol, (self.name, self.kind, self.uid))

    @property
    def is_schematic(self) -> bool:
        return self.kind == SCHEMATIC

    def encode(self) -> str:
        """Wire form: plain name for base, ``name#uid`` for schematic."""
        if self.kind == SCHEMATIC:
            return f"{self.name}#{self.uid}"
        return self.name

    @classmethod
    def decode(cls, text: str) -> "Symbol":
        if "#" in text:
            name, _, uid = text.partition("#")
            if not _NUMERAL.match(uid):
                raise ValueError(f"invalid schematic symbol: {text!r}")
            return cls(name, SCHEMATIC, int(uid))
        return cls(text)

    def __repr__(self) -> str:
        return f"Symbol({self.encode()!r})"


def base_symbol(name: str) -> Symbol:
    return Symbol(name, BASE)


_next_uid = 0
_uid_lock = threading.Lock()


def fresh_schematic(name: str = "z") -> Symbol:
    """A schematic symbol with a process-globally unique uid."""
    global _next_uid
    with _uid_lock:
        uid, _next_uid = _next_uid, _next_uid + 1
    return Symbol(name, SCHEMATIC, uid)


def reserve_uids(floor: int) -> None:
    """Ensure future fresh uids are >= ``floor`` (after loading files)."""
    global _next_uid
    with _uid_lock:
        _next_uid = max(_next_uid, floor)


# A word is a tuple of symbols; the empty tuple is the unit 1.
Word = tuple

def _decode(word: str) -> Word:
    return tuple([_symbols[ord(code)] for code in word])


class Poly:
    """Element of Z<X>: a mapping word -> nonzero integer coefficient."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Word, int] | Iterable[tuple[Word, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Word, int] = {}
        for word, coeff in items:
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be int")
            word = "".join([sym.code for sym in word])
            coeff = acc.get(word, 0) + coeff
            if coeff:
                acc[word] = coeff
            else:
                acc.pop(word, None)
        self._terms = acc
        self._hash = None

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def constant(cls, value: int) -> "Poly":
        return cls({(): value} if value else {})

    @classmethod
    def symbol(cls, sym: Symbol) -> "Poly":
        return _wrap({sym.code: 1})

    @classmethod
    def word(cls, symbols: Iterable[Symbol], coeff: int = 1) -> "Poly":
        return cls({tuple(symbols): coeff})

    # -- structure ---------------------------------------------------

    @property
    def terms(self) -> Mapping[Word, int]:
        return {_decode(w): c for w, c in self._terms.items()}

    def items(self) -> Iterator[tuple[Word, int]]:
        return ((_decode(w), c) for w, c in self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def symbols(self) -> set[Symbol]:
        return symbols_of((self,))

    def mentions(self, sym: Symbol) -> bool:
        code = sym.code
        return any(code in word for word in self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._terms:
            return other
        if not other._terms:
            return self
        acc = dict(self._terms)
        for word, coeff in other._terms.items():
            coeff = acc.get(word, 0) + coeff
            if coeff:
                acc[word] = coeff
            else:
                del acc[word]
        return _wrap(acc)

    def __neg__(self) -> "Poly":
        return _wrap({word: -coeff for word, coeff in self._terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: object) -> "Poly":
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            if other == 1:
                return self
            return _wrap({w: c * other for w, c in self._terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        if not self._terms or other._terms == _ONE._terms:
            return self
        if not other._terms or self._terms == _ONE._terms:
            return other
        acc: dict[str, int] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                word = wa + wb
                coeff = acc.get(word, 0) + ca * cb
                if coeff:
                    acc[word] = coeff
                else:
                    del acc[word]
        return _wrap(acc)

    def __rmul__(self, other: object) -> "Poly":
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent in Z<X>")
        result = _ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def substitute(self, bindings: Mapping[Symbol, "Poly"]) -> "Poly":
        """Apply the ring homomorphism sending bound symbols to their
        images and fixing everything else."""
        images = {s.code: image for s, image in bindings.items() if self.mentions(s)}
        if not images:
            return self
        total = _ZERO
        for word, coeff in self._terms.items():
            factor = _wrap({"": coeff})
            for code in word:
                image = images.get(code)
                factor = factor * (image if image is not None else _wrap({code: 1}))
            total = total + factor
        return total

    # -- comparison ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __reduce__(self) -> tuple:
        # codes are private to this process; pickle words as Symbol tuples
        return (Poly, (self.terms,))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"


def _wrap(terms: dict) -> Poly:
    # internal: terms already normalized (no zeros, encoded words)
    poly = Poly.__new__(Poly)
    poly._terms = terms
    poly._hash = None
    return poly


_ZERO = _wrap({})
_ONE = _wrap({"": 1})


def symbols_of(polys: Iterable[Poly]) -> set[Symbol]:
    """Every symbol occurring in any of ``polys``, each decoded once."""
    codes = set("".join(itertools.chain.from_iterable(p._terms for p in polys)))
    return {_symbols[ord(code)] for code in codes}


def commutator(p: Poly, q: Poly) -> Poly:
    """[p, q] = p*q - q*p; zero exactly when p and q commute."""
    return p * q - q * p


def substitute(p: Poly, bindings: Mapping[Symbol, Poly]) -> Poly:
    return p.substitute(bindings)


def sorted_terms(p: Poly, order: Sequence[str] | None = None) -> list[tuple[Word, int]]:
    """Terms in graded-lexicographic order: degree descending, then the
    word order induced by the declared symbol order (name order when no
    declaration is given).  Serialization-only; never affects semantics."""
    return term_sorter((p,), order)(p)


def term_sorter(polys: Iterable[Poly], order: Sequence[str] | None = None,
                spell: Callable[[Symbol], object] = lambda sym: sym) -> Callable[[Poly], list]:
    """``sorted_terms`` for any poly over the symbols of ``polys``, spelling each
    symbol as ``spell(sym)``; the order is total, so one table serves them all."""
    rank = {name: i for i, name in enumerate(order or ())}

    def sym_key(sym: Symbol) -> tuple:
        if sym.kind == SCHEMATIC:
            return (2, 0, sym.name, sym.uid)
        declared = sym.name in rank
        return (0 if declared else 1, rank.get(sym.name, 0), sym.name, sym.uid)

    # recode the symbols present by rank, so words compare as plain strs
    present = [(sym.code, sym) for sym in sorted(symbols_of(polys), key=sym_key)]
    recode = {ord(code): chr(i) for i, (code, _) in enumerate(present)}
    spelled = {code: spell(sym) for code, sym in present}.__getitem__

    def key(item: tuple[str, int]) -> tuple:
        return (-len(item[0]), item[0].translate(recode))

    def terms(p: Poly) -> list[tuple[tuple, int]]:
        items = sorted(p._terms.items(), key=key) if len(p._terms) > 1 else p._terms.items()
        return [(tuple(map(spelled, w)), c) for w, c in items]

    return terms


def format_poly(p: Poly, order: Sequence[str] | None = None) -> str:
    """Deterministic text form; re-parseable when only base symbols occur."""
    terms = term_sorter((p,), order, Symbol.encode)(p)
    if not terms:
        return "0"
    chunks: list[str] = []
    for i, (word, coeff) in enumerate(terms):
        body = _format_term(word, abs(coeff))
        if i == 0:
            chunks.append(body if coeff > 0 else "-" + body)
        else:
            chunks.append((" + " if coeff > 0 else " - ") + body)
    return "".join(chunks)


def _format_term(word: tuple[str, ...], magnitude: int) -> str:
    if not word:
        return str(magnitude)
    factors: list[str] = [] if magnitude == 1 else [str(magnitude)]
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        factors.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "*".join(factors)
