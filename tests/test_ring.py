"""Arithmetic in the free ring: exact values, laws, canonical printing."""

from __future__ import annotations

import copy
import pathlib
import pickle
import random
import sys
import threading
import time

import pytest

import oracle
from nilcert import (
    Poly,
    Symbol,
    base_symbol,
    deserialize,
    print_poly,
    fresh_schematic,
)
from nilcert import ring
from nilcert.ring import SCHEMATIC, term_sorter
from nilcert.certificate import Mult

x = Poly.symbol(base_symbol("x"))
y = Poly.symbol(base_symbol("y"))
one = Poly.one()


def rand_poly(rng, names=("x", "y"), max_terms=4, max_word=3):
    total = Poly.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = Poly.constant(rng.choice((-3, -2, -1, 1, 2, 3)))
        for _ in range(rng.randint(0, max_word)):
            term = term * Poly.symbol(base_symbol(rng.choice(names)))
        total = total + term
    return total


# -- fixed values --------------------------------------------------------


def test_product_of_linear_factors():
    p = (x + one) * (x - one)
    assert oracle.terms_of(p) == {("x", "x"): 1, (): -1}
    q = (x + one) * x * (x - one)
    assert oracle.terms_of(q) == {("x", "x", "x"): 1, ("x",): -1}


def test_noncommutativity_is_visible():
    assert x * y != y * x
    assert oracle.terms_of(x * y - y * x) == {("x", "y"): 1, ("y", "x"): -1}


def test_sums_cancel_termwise():
    assert not (x + (-1) * x)
    assert (x + one) + (x - one) == 2 * x
    assert x - x == Poly.zero()
    assert oracle.terms_of(x * y + y * x) == {("x", "y"): 1, ("y", "x"): 1}


def test_integers_embed_centrally():
    assert 3 * x == x * 3
    assert Poly.constant(6) == 2 * Poly.constant(3)
    assert 0 * x == Poly.zero()
    assert one * x == x == x * one


def test_power():
    assert x ** 0 == one
    assert x ** 1 == x
    assert (x + y) ** 2 == x * x + x * y + y * x + y * y
    p = x * y - one
    assert p ** 3 == p * p * p
    with pytest.raises(ValueError, match="negative exponent"):
        x ** -1


def test_coefficients_must_be_int():
    for coeff in (1.0, "1", None):
        with pytest.raises(TypeError, match="coefficients must be int"):
            Poly({(base_symbol("x"),): coeff})


def test_commutator_ignores_central_shifts():
    for c in range(-5, 6):
        assert (x - Poly.constant(c)) * y - y * (x - Poly.constant(c)) == x * y - y * x


# -- substitution --------------------------------------------------------


def test_substitute_single_slot():
    z = Symbol.decode("z#0")
    p = x * Poly.symbol(z) * x
    assert p.substitute({z: y}) == x * y * x
    assert not p.substitute({z: Poly.zero()})


def test_substitute_absent_symbol_is_identity():
    z = Symbol.decode("z#0")
    p = x * y - y * x
    assert p.substitute({z: Poly.constant(7)}) is p


def test_substitute_kills_x_cubed_minus_x_at_units():
    p = x ** 3 - x
    sx = base_symbol("x")
    for value in (Poly.zero(), one, -1 * one):
        assert not p.substitute({sx: value})


def test_substitute_is_a_homomorphism():
    rng = random.Random(11)
    z = Symbol.decode("z#0")
    zp = Poly.symbol(z)
    for _ in range(50):
        p = rand_poly(rng) + zp * rand_poly(rng, max_terms=2)
        q = rand_poly(rng) + rand_poly(rng, max_terms=2) * zp
        value = rand_poly(rng, max_terms=2)
        sub = {z: value}
        assert (p * q).substitute(sub) == p.substitute(sub) * q.substitute(sub)
        assert (p + q).substitute(sub) == p.substitute(sub) + q.substitute(sub)


# -- ring laws on random elements ----------------------------------------


def test_ring_laws():
    rng = random.Random(7)
    for _ in range(60):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
        assert p + q == q + p
        assert (p - q) + q == p


def test_multiplication_matches_naive_expansion():
    rng = random.Random(13)
    for _ in range(80):
        p, q = rand_poly(rng), rand_poly(rng)
        assert oracle.terms_of(p * q) == oracle.expand(
            oracle.terms_of(p), oracle.terms_of(q)
        )
        assert oracle.terms_of(p + q) == oracle.add_terms(
            oracle.terms_of(p), oracle.terms_of(q)
        )


def test_multiplying_by_zero_or_one_returns_the_other_side():
    p = (x + y) * (x - 2 * y)
    golden = pathlib.Path(__file__).parent / "golden" / "x2.cert.json"
    loaded = [n.left for n in deserialize(golden.read_bytes()).nodes if isinstance(n, Mult)]
    ones = [one, Poly.constant(1), Poly({(): 1})] + [q for q in loaded if q == one]
    assert len(ones) > 3 and all(u is not one for u in ones[1:])
    for unit in ones:
        assert p * unit is p
        assert unit * p is p
    assert p * Poly.zero() == Poly.zero() == Poly.zero() * p


def test_terms_give_words_as_symbol_tuples():
    z = Symbol.decode("z#0")
    p = 3 * x * Poly.symbol(z) * y - one
    expected = {(base_symbol("x"), z, base_symbol("y")): 3, (): -1}
    assert p.terms == expected
    for word in list(p.terms) + [w for w, _ in p.terms.items()]:
        assert type(word) is tuple
        assert all(type(sym) is Symbol for sym in word)
    assert p.symbols() == {base_symbol("x"), base_symbol("y"), z}


def test_pickled_polys_carry_symbols_not_codes():
    z = Symbol.decode("z#0")
    p = 2 * x * Poly.symbol(z) - y
    _, args = p.__reduce__()
    assert args == ({(base_symbol("x"), z): 2, (base_symbol("y"),): -1},)
    q = pickle.loads(pickle.dumps(p))
    assert q == p and hash(q) == hash(p)


def test_words_past_the_surrogate_code_points_match_the_oracle():
    # Symbol codes are handed out in first-seen order.  Register enough
    # symbols that codes run through U+D800..U+DFFF and beyond, naming
    # them in descending order so code order and print order disagree.
    target = 0xE000 + 64
    count = target - len(ring._symbols)
    fresh = [base_symbol(f"s{i:06d}") for i in range(count, 0, -1)]
    for sym in fresh:
        Poly.symbol(sym)
    assert len(ring._symbols) >= target
    names = [s.name for s in fresh if ord(s.code) >= 0xD800 - 32][:200]
    assert any(0xD800 <= ord(base_symbol(n).code) <= 0xDFFF for n in names)
    names += ["x", "y"]
    rng = random.Random(55_296)
    for _ in range(60):
        p = rand_poly(rng, names=names)
        q = rand_poly(rng, names=names)
        tp, tq = oracle.terms_of(p), oracle.terms_of(q)
        assert oracle.terms_of(p * q) == oracle.expand(tp, tq)
        assert oracle.terms_of(p + q) == oracle.add_terms(tp, tq)
        by_name = sorted(tp, key=lambda w: (-len(w), w))
        assert [tuple(s.name for s in w) for w, _ in term_sorter((p,))(p)] == by_name


def test_symbol_table_refuses_to_pass_the_last_code_point(monkeypatch):
    # the real limit is U+10FFFF; a lowered one stands in for it
    monkeypatch.setattr(ring, "_CODE_LIMIT", len(ring._symbols))
    with pytest.raises(OverflowError, match="symbol table full"):
        Poly.symbol(fresh_schematic("z", dict.fromkeys(ring._symbols)))  # a new symbol
    assert x * y - y * x == -(y * x - x * y)


def test_concurrent_new_symbols_decode_to_themselves():
    made: list[list[Symbol]] = [[] for _ in range(8)]
    errors: list[BaseException] = []
    deadline = time.monotonic() + 5.0

    def work(out: list[Symbol], i: int) -> None:
        taken: dict = {}  # the names are this thread's own, so each draw is a new symbol
        try:
            while len(out) < 400 and time.monotonic() < deadline:
                a, b = fresh_schematic(f"t{i}", taken), fresh_schematic(f"u{i}", taken)
                p = Poly.symbol(a) * (x + Poly.symbol(b))
                assert p.terms == {(a, base_symbol("x")): 1, (a, b): 1}
                out.extend((a, b))
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out, i)) for i, out in enumerate(made)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    symbols = [s for out in made for s in out]
    assert len(symbols) > 8 and len(set(symbols)) == len(symbols)
    for sym in symbols:
        assert Poly.symbol(sym).terms == {(sym,): 1}


def test_equal_polys_share_hash():
    p = (x + y) * (x - y)
    q = x * x - x * y + y * x - y * y
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


# -- canonical printing ---------------------------------------------------


@pytest.mark.parametrize(
    "poly, text",
    [
        (Poly.zero(), "0"),
        (Poly.constant(-7), "-7"),
        (2 * x, "2*x"),
        (x ** 3 - x, "x^3 - x"),
        (x * y - y * x, "x*y - y*x"),
        ((x + y) ** 2, "x^2 + x*y + y*x + y^2"),
        (x - 3 * one, "x - 3"),
        (-1 * x * y * x, "-x*y*x"),
    ],
)
def test_format_fixed_cases(poly, text):
    assert print_poly(poly) == text


def test_format_orders_by_degree_then_position():
    # degree descends first, then words compare by symbol order
    p = one + x + x * x * x + y * x
    assert print_poly(p) == "x^3 + y*x + x + 1"
    assert print_poly(x + x * x) == "x^2 + x"
    assert print_poly(y * x + x * y) == "x*y + y*x"


def test_format_is_stable_under_reordering():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_poly(rng)
        q = Poly.zero()
        items = list(p.terms.items())
        rng.shuffle(items)
        for word, coeff in items:
            term = Poly.constant(coeff)
            for sym in word:
                term = term * Poly.symbol(sym)
            q = q + term
        assert print_poly(p) == print_poly(q)


# -- symbols ---------------------------------------------------------------


def test_symbol_identity_rules():
    assert base_symbol("x") == base_symbol("x")
    assert base_symbol("x") != base_symbol("y")
    taken: dict = {}
    a, b = fresh_schematic("z", taken), fresh_schematic("z", taken)
    assert a != b
    assert a == a
    assert len({a, b, base_symbol("z")}) == 3
    # a schematic is identified by its whole spelling name#uid
    assert Symbol("z", SCHEMATIC, 0) != Symbol("w", SCHEMATIC, 0)
    assert Symbol("z", SCHEMATIC, 0) == Symbol.decode("z#0")
    assert len({Symbol("z", SCHEMATIC, 0), Symbol("w", SCHEMATIC, 0)}) == 2


def test_fresh_schematic_takes_the_least_uid_not_taken():
    taken = dict.fromkeys([Symbol.decode("z#0"), Symbol.decode("z#2"), base_symbol("z")])
    drawn = [fresh_schematic("z", taken) for _ in range(3)] + [fresh_schematic("w", taken)]
    assert [sym.encode() for sym in drawn] == ["z#1", "z#3", "z#4", "w#0"]
    assert all(sym in taken for sym in drawn)
    # the same draw against the same symbols spells the same name, in any process
    assert fresh_schematic("z", dict.fromkeys([Symbol.decode("z#0")])) is drawn[0]


def test_symbol_wire_round_trip():
    s = base_symbol("alpha_3")
    assert Symbol.decode(s.encode()) == s
    z = Symbol("z", SCHEMATIC, 12)
    assert Symbol.decode(z.encode()) == z


def test_symbol_name_validation():
    for bad in ("", "3x", "a-b", "a#b", "a b"):
        with pytest.raises(ValueError):
            base_symbol(bad)


def test_symbols_are_interned():
    assert Symbol("x") is base_symbol("x")
    assert Symbol.decode("z#0") is Symbol("z", SCHEMATIC, 0)
    for sym in (base_symbol("x"), Symbol.decode("z#3")):
        assert Symbol.decode(sym.encode()) is sym
        assert pickle.loads(pickle.dumps(sym)) is sym
        assert copy.copy(sym) is sym
        assert copy.deepcopy(sym) is sym
        pair = copy.deepcopy((sym, [sym]))
        assert pair[0] is sym and pair[1][0] is sym


def test_invalid_symbols_raise_and_are_not_interned():
    cases = [("3x", "base", 0), ("", "base", 0), ("a#b", "base", 0),
             ("z", "other", 0), ("z", SCHEMATIC, -1)]
    for name, kind, uid in cases:
        for _ in range(2):  # a failed first creation leaves nothing behind
            with pytest.raises(ValueError):
                Symbol(name, kind, uid)
        assert (kind, name, uid) not in ring._interned


def test_concurrent_interning_gives_one_object_per_spelling():
    spellings = [(f"race{k}", SCHEMATIC, 987_000 + k) for k in range(3000)]
    got: list[list[Symbol]] = [[] for _ in range(8)]
    errors: list[BaseException] = []
    start = threading.Barrier(len(got), timeout=10)
    deadline = time.monotonic() + 5.0

    def work(out: list[Symbol]) -> None:
        try:
            start.wait()
            for spelling in spellings:
                if time.monotonic() > deadline:
                    break
                out.append(Symbol(*spelling))
        except Exception as err:  # reported by the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
    done = min(len(out) for out in got)
    assert done > 0
    for k in range(done):
        first = got[0][k]
        assert all(out[k] is first for out in got)
        assert Symbol(*spellings[k]) is first
