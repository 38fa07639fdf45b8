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
has already validated in the same certificate.  The reader takes a
node's fields from FIELDS; only the writer spells each op out, keys
sorted.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, Union

from nilcert.record import Record
from nilcert.ring import _NUMERAL, Poly, Symbol, _wrap, term_sorter

__all__ = [
    "NIL",
    "SQRT",
    "FORMAT_VERSION",
    "DEFAULT_MAX_NODES",
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
    "UnsupportedVersionError",
    "dag_polys",
    "serialize",
    "deserialize",
]

NIL = "nil"
SQRT = "sqrt"

FORMAT_VERSION = 1
DEFAULT_MAX_NODES = 10**6  # the node budget of a certificate or a built witness


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
    _format = ""  # the repr, e.g. "Add(left=%r, right=%r)"

    def __getnewargs__(self) -> tuple:
        return self[:-1]

    def __repr__(self) -> str:
        return self._format % self[:-1]


def _kind(name: str, *fields: tuple[str, str]) -> type:
    """The node kind with these (name, role) fields, entered in FIELDS."""
    names = tuple(field for field, _ in fields)
    kind = type(name, (_Node,), {
        "__slots__": (), "_format": f"{name}({', '.join(field + '=%r' for field in names)})",
    })
    kind.__new__ = _NEW[len(names)]
    kind._set_fields(names)
    FIELDS[kind] = fields
    return kind


Intro = _kind("Intro", ("gen_index", INDEX))
IntroFamily = _kind("IntroFamily", ("family_index", INDEX), ("instance", POLY))
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

    def mentions(self, sym: Symbol) -> bool:
        return any(p.mentions(sym) for p in self.all_polys())


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


class UnsupportedVersionError(MalformedCertificateError):
    def __init__(self, version: Any):
        super().__init__(f"unsupported certificate version {version!r}", where="version")
        self.version = version


class Certificate(Record):
    """Parsed certificate data, still untrusted until checked."""

    __slots__ = ()

    def __new__(cls, setting: str, symbols: tuple[str, ...], generators: GeneratorSet, claim: Poly,
                nodes: tuple[Node, ...], root: int, version: int = FORMAT_VERSION):
        return tuple.__new__(cls, (setting, symbols, generators, claim, nodes, root, version))


_POLYS = field_getters(POLY)


def dag_polys(generators: GeneratorSet, claim: Poly, nodes: Iterable[Node]) -> list[Poly]:
    """Every polynomial of a certificate or DAG, shared ones repeated."""
    polys = [*generators.all_polys(), claim]
    for node in nodes:
        polys += _POLYS[type(node)](node)
    return polys


# -- writing ----------------------------------------------------------


def _node_json(node: Node, ident: int, poly: Callable[[Poly], str]) -> str:
    # keys in sorted order, as json.dumps(sort_keys=True) writes them; ids and
    # indices as JSON integers (:d), also when a builder was handed a bool
    if isinstance(node, Intro):
        return f'{{"gen":{node.gen_index:d},"id":{ident},"op":"intro"}}'
    if isinstance(node, IntroFamily):
        return (f'{{"family":{node.family_index:d},"id":{ident},'
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
    if isinstance(node, Semiprime):
        return (f'{{"bound":{json.dumps(node.bound.encode())},'
                f'"conclusion":{poly(node.conclusion)},"id":{ident},'
                f'"op":"semiprime","premise":{node.premise:d}}}')
    raise TypeError(f"unknown node kind {type(node).__name__}")


def serialize(cert: Certificate) -> bytes:
    if cert.version != FORMAT_VERSION:
        raise UnsupportedVersionError(cert.version)
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


_KEYS = {"gen_index": "gen", "family_index": "family"}  # other fields keep their names
# op -> (kind, allowed keys, ((key, role), ...) in constructor order)
_NODE_FORMS = {
    op: (kind, frozenset(("id", "op", *(_KEYS.get(name, name) for name, _ in FIELDS[kind]))),
         tuple((_KEYS.get(name, name), role) for name, role in FIELDS[kind]))
    for op, kind in (("intro", Intro), ("intro_family", IntroFamily), ("zero", Zero),
                     ("add", Add), ("mult", Mult), ("red", Red), ("semiprime", Semiprime))
}


class _Reader:
    """Shape validation with JSON-path error reporting.

    Each symbol spelling and coefficient string is validated once per
    certificate.  Only a str that has passed goes into the memos, so a
    term made of remembered strings is read as codes with no per-symbol
    Python work.  Any other piece misses the memos and takes the checked
    path, which raises each error at the first JSON path that shows it.
    """

    def __init__(self) -> None:
        self.codes: dict[str, str] = {}  # spelling -> ring code
        self.coeffs: dict[str, int] = {}  # decimal string -> nonzero int

    def fail(self, message: str, where: str) -> MalformedCertificateError:
        return MalformedCertificateError(message, where=where)

    def get(self, obj: dict, key: str, where: str) -> Any:
        if key not in obj:
            raise self.fail(f"missing key {key!r}", where)
        return obj[key]

    def intval(self, value: Any, where: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise self.fail("expected an integer", where)
        return value

    def code(self, value: Any, declared: frozenset, where: str) -> str:
        """The ring code of a symbol spelling, validated on its first use."""
        code = self.codes.get(value) if isinstance(value, str) else None
        if code is None:
            if not isinstance(value, str):
                raise self.fail("expected a symbol string", where)
            try:
                sym = Symbol.decode(value)
            except ValueError as err:
                raise self.fail(str(err), where) from None
            if not sym.is_schematic and sym.name not in declared:
                raise self.fail(f"symbol {sym.name!r} not declared", where)
            code = self.codes[value] = sym.code
        return code

    def coeff(self, value: Any, where: str) -> int:
        if not isinstance(value, str):
            raise self.fail("coefficient must be a decimal string", where)
        coeff = self.coeffs.get(value)
        if coeff is None:
            if not _NUMERAL.match(value.removeprefix("-")):
                raise self.fail(f"bad coefficient {value!r}", where)
            try:
                coeff = int(value)
            except ValueError as err:  # past the interpreter's int/str digit limit
                raise self.fail(str(err), where) from None
            if coeff == 0:
                raise self.fail("zero coefficient stored", where)
            self.coeffs[value] = coeff
        return coeff

    def poly(self, value: Any, declared: frozenset, where: str) -> Poly:
        if type(value) is not list:
            raise self.fail("expected a polynomial term list", where)
        codes, coeffs = self.codes.__getitem__, self.coeffs.get
        terms: dict[str, int] = {}
        for item in value:
            # every term read so far is in terms, so len(terms) is this item's index
            if type(item) is not list or len(item) != 2:
                raise self.fail("expected a [coefficient, word] pair", f"{where}[{len(terms)}]")
            coeff_raw, word_raw = item
            coeff = coeffs(coeff_raw) if type(coeff_raw) is str else None
            if coeff is None:
                coeff = self.coeff(coeff_raw, f"{where}[{len(terms)}]")
            if type(word_raw) is not list:
                raise self.fail("word must be a list of symbols", f"{where}[{len(terms)}]")
            try:
                word = "".join(map(codes, word_raw))
            except (KeyError, TypeError):  # a spelling not yet passed, or not a str
                here = f"{where}[{len(terms)}][1]"
                word = "".join([self.code(s, declared, f"{here}[{j}]") for j, s in enumerate(word_raw)])
            if word in terms:
                raise self.fail("duplicate word in polynomial", f"{where}[{len(terms)}]")
            terms[word] = coeff
        return _wrap(terms)

    def node(self, value: Any, index: int, declared: frozenset) -> Node:
        # JSON paths are spelled only where a value fails or holds a polynomial
        if not isinstance(value, dict):
            raise self.fail("expected a node object", f"nodes[{index}]")
        ident = value.get("id")
        if type(ident) is not int or ident != index:
            where = f"nodes[{index}]"
            self.intval(self.get(value, "id", where), f"{where}.id")
            raise self.fail(f"node id must be {index} (dense ids)", f"{where}.id")
        op = value.get("op")
        form = _NODE_FORMS.get(op) if type(op) is str else None
        if form is None:
            self.get(value, "op", f"nodes[{index}]")
            raise self.fail(f"unknown op {op!r}", f"nodes[{index}].op")
        kind, keys, fields = form
        if not keys.issuperset(value):
            raise self.fail(f"unexpected keys {sorted(value.keys() - keys)!r}", f"nodes[{index}]")
        args = []
        for key, role in fields:
            if key not in value:
                raise self.fail(f"missing key {key!r}", f"nodes[{index}]")
            raw = value[key]
            if role == POLY:
                raw = self.poly(raw, declared, f"nodes[{index}].{key}")
            elif role == SYMBOL:
                if type(raw) is not str or raw not in self.codes:
                    self.code(raw, declared, f"nodes[{index}].{key}")
                raw = Symbol.decode(raw)
            elif type(raw) is not int:
                raise self.fail("expected an integer", f"nodes[{index}].{key}")
            args.append(raw)
        return kind(*args)


def deserialize(data: bytes) -> Certificate:
    """Parse certificate bytes, validating shape but not semantics.

    Raises MalformedCertificateError (with a byte offset for JSON-level
    problems) or UnsupportedVersionError.
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

    reader = _Reader()
    expected = {"version", "setting", "symbols", "generators", "families", "claim", "nodes", "root"}
    extra = set(obj) - expected
    if extra:
        raise reader.fail(f"unexpected keys {sorted(extra)!r}", "$")

    version = reader.intval(reader.get(obj, "version", "$"), "version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(version)

    setting = reader.get(obj, "setting", "$")
    if setting not in (NIL, SQRT):
        raise reader.fail(f"setting must be 'nil' or 'sqrt', got {setting!r}", "setting")

    symbols_raw = reader.get(obj, "symbols", "$")
    if not isinstance(symbols_raw, list):
        raise reader.fail("expected a list of names", "symbols")
    symbols: list[str] = []
    for i, name in enumerate(symbols_raw):
        if not isinstance(name, str):
            raise reader.fail("expected a symbol name", f"symbols[{i}]")
        try:
            sym = Symbol.decode(name)
        except ValueError as err:
            raise reader.fail(str(err), f"symbols[{i}]") from None
        if sym.is_schematic:
            raise reader.fail("declared symbols must be base symbols", f"symbols[{i}]")
        symbols.append(sym.name)
    if len(set(symbols)) != len(symbols):
        raise reader.fail("duplicate symbol declaration", "symbols")
    declared = frozenset(symbols)

    gens_raw = reader.get(obj, "generators", "$")
    if not isinstance(gens_raw, list):
        raise reader.fail("expected a list of polynomials", "generators")
    elements = [
        reader.poly(p, declared, f"generators[{i}]") for i, p in enumerate(gens_raw)
    ]

    fams_raw = reader.get(obj, "families", "$")
    if not isinstance(fams_raw, list):
        raise reader.fail("expected a list of {left, right} pairs", "families")
    families = []
    for i, pair in enumerate(fams_raw):
        where = f"families[{i}]"
        if not isinstance(pair, dict) or set(pair) != {"left", "right"}:
            raise reader.fail("expected an object with keys left, right", where)
        families.append(
            (
                reader.poly(pair["left"], declared, f"{where}.left"),
                reader.poly(pair["right"], declared, f"{where}.right"),
            )
        )

    claim = reader.poly(reader.get(obj, "claim", "$"), declared, "claim")

    nodes_raw = reader.get(obj, "nodes", "$")
    if not isinstance(nodes_raw, list):
        raise reader.fail("expected a list of nodes", "nodes")
    nodes = tuple(reader.node(n, i, declared) for i, n in enumerate(nodes_raw))

    root = reader.intval(reader.get(obj, "root", "$"), "root")

    return Certificate(
        setting=setting,
        symbols=tuple(symbols),
        generators=GeneratorSet(elements, families),
        claim=claim,
        nodes=nodes,
        root=root,
        version=version,
    )
