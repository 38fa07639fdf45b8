"""The certificate format: node kinds, the certificate record, and its
JSON reader and writer.

With ``ring``, ``record`` and ``checker`` this module is the trusted
kernel: a verdict rests on these four files only, and this one imports
nothing of the package but ``ring`` and ``record``.

A derivation is a DAG of constructor applications.  Node ids are dense
integers, and every node carries a conclusion, the ring element whose
membership it derives:

    Intro(i)                 the i-th generator element
    IntroFamily(j, r)        left_j * r * right_j for the j-th family
    Zero                     0
    Add(l, r)                sum of the two child conclusions
    Mult(z, n, w)            z * conclusion(n) * w
    Red(n, c)                c, provided conclusion(n) = c*c  (nil only)
    Semiprime(b, n, c)       c, provided conclusion(n) = c*b*c for a
                             schematic b foreign to c and the
                             generators  (sqrt only)

Red and Semiprime store their conclusions because a premise does not
determine them (s and -s share a square).

FIELDS is where node structure lives: each kind's fields in constructor
order, with roles.  Each kind is made from its entry; a node is the
tuple of its field values followed by its kind, so it equals only nodes
of the same kind.  Structural code reads FIELDS; code giving meaning
names kinds.

A certificate is a single JSON object::

    {"version": 1, "setting": "nil" | "sqrt", "symbols": [name, ...],
     "generators": [poly, ...], "families": [{"left": poly, "right": poly}, ...],
     "claim": poly, "nodes": [node, ...], "root": id}

where poly = [[coeff, [symbol, ...]], ...] with decimal-string
coefficients in graded-lex order, and each node is {"id", "op", ...}
with dense ids.  Schematic symbols are written "name#uid".

serialize writes the bytes of ``json.dumps(obj, sort_keys=True,
separators=(",", ":"))`` plus a newline, assembled as text with each
distinct polynomial value rendered once.  deserialize validates
structure only; whether the derivation itself holds is the checker's
job, so reference targets, cycles, and side conditions all pass through
untouched.  Symbols are interned (one object per spelling), and the
reader builds ring words straight from the codes of the spellings it
has already validated in the same certificate.  Each field's name in
FIELDS is its JSON key; the reader takes a node's keys from FIELDS, and
only the writer spells each op out, keys sorted.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Union

from nilcert.record import Record
from nilcert.ring import _NUMERAL, Poly, Symbol, _wrap, term_sorter

__all__ = [
    "NIL",
    "SQRT",
    "FORMAT_VERSION",
    "DEFAULT_MAX_NODES",
    "node_budget",
    "Intro",
    "IntroFamily",
    "Zero",
    "Add",
    "Mult",
    "Red",
    "Semiprime",
    "Node",
    "FIELDS",
    "SETTING_OF",
    "GeneratorSet",
    "Certificate",
    "MalformedCertificateError",
    "dag_polys",
    "serialize",
    "deserialize",
]

NIL = "nil"
SQRT = "sqrt"

FORMAT_VERSION = 1
DEFAULT_MAX_NODES = 10**6  # the node budget of a certificate or a built witness
# the budget in force; read once per DagBuilder and once per certificate the CLI loads
_NODE_BUDGET: ContextVar[int] = ContextVar("node_budget", default=DEFAULT_MAX_NODES)


@contextmanager
def node_budget(n: int):
    """Make n the node budget inside the block, as decimal.localcontext scopes
    precision; each DagBuilder keeps the budget in force when it is created."""
    token = _NODE_BUDGET.set(n)
    try:
        yield
    finally:
        _NODE_BUDGET.reset(token)


# -- node kinds -------------------------------------------------------


# field roles: a node id, a generator or family index, ring data
REF, INDEX, POLY, SYMBOL = "ref", "index", "poly", "symbol"
FIELDS: dict[type, tuple[tuple[str, str], ...]] = {}  # filled by _kind below

_new = tuple.__new__
_NEW = (  # a constructor per arity, so the interpreter binds and counts the fields
    lambda cls: _new(cls, (cls,)),
    lambda cls, a: _new(cls, (a, cls)),
    lambda cls, a, b: _new(cls, (a, b, cls)),
    lambda cls, a, b, c: _new(cls, (a, b, c, cls)),
)


class _Node(Record):
    """A node: its kind's FIELDS values, in order, then the kind itself.
    Every DagBuilder lookup hashes and compares nodes; with the kind in
    the tuple, tuple's own hash and equality tell kinds apart."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = tuple.__eq__, tuple.__ne__, tuple.__hash__

    def __getnewargs__(self) -> tuple:
        return self[:-1]


def _kind(name: str, *fields: tuple[str, str]) -> type:
    """The node kind with these (name, role) fields, entered in FIELDS."""
    names = tuple(field for field, _ in fields)
    kind = type(name, (_Node,), {"__slots__": ()})
    kind.__new__ = _NEW[len(names)]
    kind._set_fields(names)
    FIELDS[kind] = fields
    return kind


Intro = _kind("Intro", ("gen", INDEX))
IntroFamily = _kind("IntroFamily", ("family", INDEX), ("instance", POLY))
Zero = _kind("Zero")
Add = _kind("Add", ("left", REF), ("right", REF))
Mult = _kind("Mult", ("left", POLY), ("inner", REF), ("right", POLY))
Red = _kind("Red", ("premise", REF), ("conclusion", POLY))
Semiprime = _kind("Semiprime", ("bound", SYMBOL), ("premise", REF), ("conclusion", POLY))

Node = Union[Intro, IntroFamily, Zero, Add, Mult, Red, Semiprime]

# the one setting that admits each setting-confined kind; other kinds serve both
SETTING_OF = {IntroFamily: SQRT, Red: NIL, Semiprime: SQRT}

# each kind's field positions by role
_AT = {
    kind: {role: [i for i, (_, r) in enumerate(fields) if r == role] for _, role in fields}
    for kind, fields in FIELDS.items()
}


def field_getters(role: str) -> dict[type, Callable[[Node], tuple]]:
    """For each kind, a function giving its ``role`` fields as a tuple."""
    getters = {}
    for kind, positions in _AT.items():
        at = positions.get(role, [])
        if len(at) > 1:
            getters[kind] = itemgetter(*at)
        else:  # a slice keeps one position, or none, as a tuple
            getters[kind] = itemgetter(slice(at[0], at[0] + 1) if at else slice(0))
    return getters


def map_fields(node: Node, fns: Mapping[str, Callable]) -> Node:
    """``node`` with ``fns[role]`` applied to each field of that role (role
    by role in the order of ``fns``, fields in order); the node itself when
    it has no field of those roles."""
    values = None
    at = _AT[type(node)]
    for role, fn in fns.items():
        for i in at.get(role, ()):
            if values is None:
                values = list(node)  # the fields, then the kind
            values[i] = fn(values[i])
    return node if values is None else _new(type(node), values)


# -- certificates -----------------------------------------------------


class GeneratorSet(Record):
    """The generating data of an ideal: finitely many elements plus,
    in the sqrt setting, families {left*r*right : r in the ring}."""

    __slots__ = ()

    def __new__(cls, elements: Iterable[Poly] = (), families: Iterable[tuple[Poly, Poly]] = ()):
        return tuple.__new__(cls, (tuple(elements), tuple((l, r) for l, r in families)))

    def all_polys(self) -> Iterable[Poly]:
        yield from self.elements
        for left, right in self.families:
            yield left
            yield right


class MalformedCertificateError(ValueError):
    """Structurally invalid certificate data.

    ``offset`` is the byte position for JSON-level errors and None for
    shape errors, where ``where`` names the offending JSON path instead.
    """

    def __init__(self, message: str, offset: int | None = None, where: str = ""):
        prefix = f"{where}: " if where else ""
        suffix = f" (byte {offset})" if offset is not None else ""
        super().__init__(f"{prefix}{message}{suffix}")
        self.offset = offset
        self.where = where


class Certificate(Record):
    """Parsed certificate data, still untrusted until checked."""

    __slots__ = ()

    def __new__(cls, setting: str, symbols: tuple[str, ...], generators: GeneratorSet, claim: Poly,
                nodes: tuple[Node, ...], root: int):
        return tuple.__new__(cls, (setting, symbols, generators, claim, nodes, root))


_POLYS = field_getters(POLY)


def dag_polys(generators: GeneratorSet, claim: Poly, nodes: Iterable[Node]) -> list[Poly]:
    """Every polynomial of a certificate or DAG, shared ones repeated."""
    polys = [*generators.all_polys(), claim]
    for node in nodes:
        getter = _POLYS.get(type(node))
        if getter is None:
            raise TypeError(f"unknown node kind {type(node).__name__}")
        polys += getter(node)
    return polys


# -- writing ----------------------------------------------------------


def _node_json(node: Node, ident: int, poly: Callable[[Poly], str]) -> str:
    # keys in sorted order, as json.dumps(sort_keys=True) writes them; ids and
    # indices as JSON integers (:d), also when a builder was handed a bool
    if isinstance(node, Intro):
        return f'{{"gen":{node.gen:d},"id":{ident},"op":"intro"}}'
    if isinstance(node, IntroFamily):
        return (f'{{"family":{node.family:d},"id":{ident},'
                f'"instance":{poly(node.instance)},"op":"intro_family"}}')
    if isinstance(node, Zero):
        return f'{{"id":{ident},"op":"zero"}}'
    if isinstance(node, Add):
        return f'{{"id":{ident},"left":{node.left:d},"op":"add","right":{node.right:d}}}'
    if isinstance(node, Mult):
        return (f'{{"id":{ident},"inner":{node.inner:d},"left":{poly(node.left)},'
                f'"op":"mult","right":{poly(node.right)}}}')
    if isinstance(node, Red):
        return (f'{{"conclusion":{poly(node.conclusion)},"id":{ident},'
                f'"op":"red","premise":{node.premise:d}}}')
    # a Semiprime, the one kind left: dag_polys refused every other
    return (f'{{"bound":{json.dumps(node.bound.encode())},'
            f'"conclusion":{poly(node.conclusion)},"id":{ident},'
            f'"op":"semiprime","premise":{node.premise:d}}}')


def serialize(cert: Certificate) -> bytes:
    # one table orders and spells (as JSON strings) the symbols of every polynomial
    polys = dag_polys(cert.generators, cert.claim, cert.nodes)
    terms = term_sorter(polys, cert.symbols, lambda sym: json.dumps(sym.encode()))
    texts: dict[Poly, str] = {}  # wire text of each distinct polynomial value

    def poly(p: Poly) -> str:
        text = texts.get(p)
        if text is None:
            items = ",".join([f'["{c}",[{",".join(w)}]]' for w, c in terms(p)])
            text = texts[p] = f"[{items}]"
        return text

    families = ",".join(
        [f'{{"left":{poly(l)},"right":{poly(r)}}}' for l, r in cert.generators.families]
    )
    generators = ",".join(map(poly, cert.generators.elements))
    nodes = ",".join([_node_json(n, i, poly) for i, n in enumerate(cert.nodes)])
    symbols = json.dumps(list(cert.symbols), separators=(",", ":"))
    return (
        f'{{"claim":{poly(cert.claim)},"families":[{families}],'
        f'"generators":[{generators}],"nodes":[{nodes}],"root":{cert.root:d},'
        f'"setting":{json.dumps(cert.setting)},"symbols":{symbols},'
        f'"version":{FORMAT_VERSION}}}\n'
    ).encode()


# -- reading ----------------------------------------------------------


# op -> (kind, allowed keys, FIELDS[kind]): a node's JSON keys are its field names
_NODE_FORMS = {
    op: (kind, frozenset(("id", "op", *(name for name, _ in FIELDS[kind]))), FIELDS[kind])
    for op, kind in (("intro", Intro), ("intro_family", IntroFamily), ("zero", Zero),
                     ("add", Add), ("mult", Mult), ("red", Red), ("semiprime", Semiprime))
}


def _fail(message: str, where: str) -> MalformedCertificateError:
    return MalformedCertificateError(message, where=where)


def _get(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise _fail(f"missing key {key!r}", where)
    return obj[key]


def _intval(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail("expected an integer", where)
    return value


def _list(obj: dict, key: str, what: str) -> list:
    """The top-level value at ``key``, which must be a list of ``what``."""
    value = _get(obj, key, "$")
    if not isinstance(value, list):
        raise _fail(f"expected a list of {what}", key)
    return value


class _Reader:
    """Shape validation with JSON-path error reporting, against the
    alphabet a certificate declares.

    Each symbol spelling and coefficient string is validated once per
    certificate.  Only a str that has passed goes into the memos, so a
    term made of remembered strings is read as codes with no per-symbol
    Python work.  Any other piece misses the memos and takes the checked
    path, which raises each error at the first JSON path that shows it.
    """

    def __init__(self, declared: frozenset) -> None:
        self.declared = declared  # the base symbol names the certificate lists
        self.codes: dict[str, str] = {}  # spelling -> ring code
        self.coeffs: dict[str, int] = {}  # decimal string -> nonzero int

    def code(self, value: Any, where: str) -> str:
        """The ring code of a symbol spelling, validated on its first use."""
        code = self.codes.get(value) if isinstance(value, str) else None
        if code is None:
            if not isinstance(value, str):
                raise _fail("expected a symbol string", where)
            try:
                sym = Symbol.decode(value)
            except ValueError as err:
                raise _fail(str(err), where) from None
            if not sym.is_schematic and sym.name not in self.declared:
                raise _fail(f"symbol {sym.name!r} not declared", where)
            code = self.codes[value] = sym.code
        return code

    def coeff(self, value: Any, where: str) -> int:
        if not isinstance(value, str):
            raise _fail("coefficient must be a decimal string", where)
        coeff = self.coeffs.get(value)
        if coeff is None:
            if not _NUMERAL.match(value.removeprefix("-")):
                raise _fail(f"bad coefficient {value!r}", where)
            try:
                coeff = int(value)
            except ValueError as err:  # past the interpreter's int/str digit limit
                raise _fail(str(err), where) from None
            if coeff == 0:
                raise _fail("zero coefficient stored", where)
            self.coeffs[value] = coeff
        return coeff

    def poly(self, value: Any, where: str) -> Poly:
        if type(value) is not list:
            raise _fail("expected a polynomial term list", where)
        codes, coeffs = self.codes.__getitem__, self.coeffs.get
        terms: dict[str, int] = {}
        for item in value:
            # every term read so far is in terms, so len(terms) is this item's index
            if type(item) is not list or len(item) != 2:
                raise _fail("expected a [coefficient, word] pair", f"{where}[{len(terms)}]")
            coeff_raw, word_raw = item
            coeff = coeffs(coeff_raw) if type(coeff_raw) is str else None
            if coeff is None:
                coeff = self.coeff(coeff_raw, f"{where}[{len(terms)}]")
            if type(word_raw) is not list:
                raise _fail("word must be a list of symbols", f"{where}[{len(terms)}]")
            try:
                word = "".join(map(codes, word_raw))
            except (KeyError, TypeError):  # a spelling not yet passed, or not a str
                here = f"{where}[{len(terms)}][1]"
                word = "".join([self.code(s, f"{here}[{j}]") for j, s in enumerate(word_raw)])
            if word in terms:
                raise _fail("duplicate word in polynomial", f"{where}[{len(terms)}]")
            terms[word] = coeff
        return _wrap(terms)

    def node(self, value: Any, index: int) -> Node:
        # JSON paths are spelled only where a value fails or holds a polynomial
        if not isinstance(value, dict):
            raise _fail("expected a node object", f"nodes[{index}]")
        ident = value.get("id")
        if type(ident) is not int or ident != index:
            where = f"nodes[{index}]"
            _intval(_get(value, "id", where), f"{where}.id")
            raise _fail(f"node id must be {index} (dense ids)", f"{where}.id")
        op = value.get("op")
        form = _NODE_FORMS.get(op) if type(op) is str else None
        if form is None:
            _get(value, "op", f"nodes[{index}]")
            raise _fail(f"unknown op {op!r}", f"nodes[{index}].op")
        kind, keys, fields = form
        if not keys.issuperset(value):
            raise _fail(f"unexpected keys {sorted(value.keys() - keys)!r}", f"nodes[{index}]")
        args = []
        for key, role in fields:
            if key not in value:
                raise _fail(f"missing key {key!r}", f"nodes[{index}]")
            raw = value[key]
            if role == POLY:
                raw = self.poly(raw, f"nodes[{index}].{key}")
            elif role == SYMBOL:
                if type(raw) is not str or raw not in self.codes:
                    self.code(raw, f"nodes[{index}].{key}")
                raw = Symbol.decode(raw)
            elif type(raw) is not int:
                raise _fail("expected an integer", f"nodes[{index}].{key}")
            args.append(raw)
        return kind(*args)


def deserialize(data: bytes) -> Certificate:
    """Parse certificate bytes, validating shape but not semantics.

    Raises MalformedCertificateError, with a byte offset for JSON-level
    problems and a JSON path otherwise (``version`` for an unsupported one).
    """
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise MalformedCertificateError("not valid UTF-8", offset=err.start) from None
    except json.JSONDecodeError as err:
        raise MalformedCertificateError(err.msg, offset=err.pos) from None
    except RecursionError:
        raise MalformedCertificateError("JSON nested too deeply") from None
    except ValueError as err:  # an integer literal past the int/str digit limit
        raise MalformedCertificateError(str(err)) from None
    if not isinstance(obj, dict):
        raise MalformedCertificateError("top level must be an object")

    expected = {"version", "setting", "symbols", "generators", "families", "claim", "nodes", "root"}
    extra = set(obj) - expected
    if extra:
        raise _fail(f"unexpected keys {sorted(extra)!r}", "$")

    version = _intval(_get(obj, "version", "$"), "version")
    if version != FORMAT_VERSION:
        raise _fail(f"unsupported certificate version {version!r}", "version")

    setting = _get(obj, "setting", "$")
    if setting not in (NIL, SQRT):
        raise _fail(f"setting must be 'nil' or 'sqrt', got {setting!r}", "setting")

    symbols: list[str] = []
    for i, name in enumerate(_list(obj, "symbols", "names")):
        if not isinstance(name, str):
            raise _fail("expected a symbol name", f"symbols[{i}]")
        try:
            sym = Symbol.decode(name)
        except ValueError as err:
            raise _fail(str(err), f"symbols[{i}]") from None
        if sym.is_schematic:
            raise _fail("declared symbols must be base symbols", f"symbols[{i}]")
        symbols.append(sym.name)
    if len(set(symbols)) != len(symbols):
        raise _fail("duplicate symbol declaration", "symbols")
    reader = _Reader(frozenset(symbols))

    gens_raw = _list(obj, "generators", "polynomials")
    elements = [reader.poly(p, f"generators[{i}]") for i, p in enumerate(gens_raw)]

    families = []
    for i, pair in enumerate(_list(obj, "families", "{left, right} pairs")):
        where = f"families[{i}]"
        if not isinstance(pair, dict) or set(pair) != {"left", "right"}:
            raise _fail("expected an object with keys left, right", where)
        families.append(
            (
                reader.poly(pair["left"], f"{where}.left"),
                reader.poly(pair["right"], f"{where}.right"),
            )
        )

    claim = reader.poly(_get(obj, "claim", "$"), "claim")

    nodes = tuple(reader.node(n, i) for i, n in enumerate(_list(obj, "nodes", "nodes")))

    root = _intval(_get(obj, "root", "$"), "root")

    return Certificate(
        setting=setting,
        symbols=tuple(symbols),
        generators=GeneratorSet(elements, families),
        claim=claim,
        nodes=nodes,
        root=root,
    )
