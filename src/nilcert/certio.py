"""Certificate files: the on-disk form of a witness.

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
has already validated in the same certificate.

The reader and the other structural code take a node's fields from
``witness.FIELDS``; only the writer spells each op out, keys sorted.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from nilcert.checker import check_certificate
from nilcert.record import Record
from nilcert.ring import _NUMERAL, Poly, Symbol, _wrap, term_sorter
from nilcert.witness import (
    DEFAULT_MAX_NODES,
    FIELDS,
    POLY,
    REF,
    SYMBOL,
    Add,
    DagBuilder,
    GeneratorSet,
    Intro,
    IntroFamily,
    Mult,
    Node,
    Red,
    Semiprime,
    WitnessDag,
    WitnessError,
    Zero,
    dag_polys,
    dag_symbols,
    map_fields,
)

__all__ = [
    "FORMAT_VERSION",
    "Certificate",
    "MalformedCertificateError",
    "UnsupportedVersionError",
    "serialize",
    "deserialize",
    "certificate_from_dag",
    "dag_from_certificate",
]

FORMAT_VERSION = 1


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


# -- writing ----------------------------------------------------------


def _node_json(node: Node, ident: int, poly: Callable[[Poly], str]) -> str:
    # keys in sorted order, as json.dumps(sort_keys=True) writes them
    if isinstance(node, Intro):
        return f'{{"gen":{node.gen_index},"id":{ident},"op":"intro"}}'
    if isinstance(node, IntroFamily):
        return (f'{{"family":{node.family_index},"id":{ident},'
                f'"instance":{poly(node.instance)},"op":"intro_family"}}')
    if isinstance(node, Zero):
        return f'{{"id":{ident},"op":"zero"}}'
    if isinstance(node, Add):
        return f'{{"id":{ident},"left":{node.left},"op":"add","right":{node.right}}}'
    if isinstance(node, Mult):
        return (f'{{"id":{ident},"inner":{node.inner},"left":{poly(node.left)},'
                f'"op":"mult","right":{poly(node.right)}}}')
    if isinstance(node, Red):
        return (f'{{"conclusion":{poly(node.conclusion)},"id":{ident},'
                f'"op":"red","premise":{node.premise}}}')
    if isinstance(node, Semiprime):
        return (f'{{"bound":{json.dumps(node.bound.encode())},'
                f'"conclusion":{poly(node.conclusion)},"id":{ident},'
                f'"op":"semiprime","premise":{node.premise}}}')
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
        f'"generators":[{generators}],"nodes":[{nodes}],"root":{cert.root},'
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
    polynomial made of remembered strings is read as codes with no
    per-symbol Python work.  Any other value misses the memos and takes
    the checked path, which raises each error at the first JSON path
    that shows it.
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

    def known_poly(self, value: Any) -> Poly | None:
        """The polynomial, if every piece of it is remembered, else None."""
        if type(value) is not list:
            return None
        codes, coeffs = self.codes.__getitem__, self.coeffs.get
        terms: dict[str, int] = {}
        for item in value:
            if type(item) is not list or len(item) != 2:
                return None
            coeff_raw, word_raw = item
            if type(coeff_raw) is not str or type(word_raw) is not list:
                return None
            coeff = coeffs(coeff_raw)
            try:
                word = "".join(map(codes, word_raw))
            except (KeyError, TypeError):  # a spelling not yet passed, or not a str
                return None
            if coeff is None or word in terms:
                return None
            terms[word] = coeff
        return _wrap(terms)

    def poly(self, value: Any, declared: frozenset, where: str) -> Poly:
        poly = self.known_poly(value)
        if poly is not None:
            return poly
        if not isinstance(value, list):
            raise self.fail("expected a polynomial term list", where)
        terms: dict[str, int] = {}
        for i, item in enumerate(value):
            here = f"{where}[{i}]"
            if not (isinstance(item, list) and len(item) == 2):
                raise self.fail("expected a [coefficient, word] pair", here)
            coeff = self.coeff(item[0], here)
            if not isinstance(item[1], list):
                raise self.fail("word must be a list of symbols", here)
            word = "".join([
                self.code(s, declared, f"{here}[1][{j}]") for j, s in enumerate(item[1])
            ])
            if word in terms:
                raise self.fail("duplicate word in polynomial", here)
            terms[word] = coeff
        return _wrap(terms)

    def node(self, value: Any, index: int, declared: frozenset) -> Node:
        # JSON paths are spelled only where a value fails or is seen first
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
                poly = self.known_poly(raw)
                raw = self.poly(raw, declared, f"nodes[{index}].{key}") if poly is None else poly
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
    if setting not in ("nil", "sqrt"):
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


# -- bridges to the DAG layer -----------------------------------------


def certificate_from_dag(
    dag: WitnessDag,
    symbols: tuple[str, ...] | None = None,
    claim: Poly | None = None,
) -> Certificate:
    """Package a built witness for serialization.

    The claim defaults to the root conclusion and must equal it.  The
    symbol list fixes the serialization order; base symbols in use but
    missing from it are appended in name order, so the output always
    declares everything it mentions and can be read back.
    """
    if claim is None:
        claim = dag.conclusion
    elif claim != dag.conclusion:
        raise WitnessError("claim differs from the root conclusion")
    seen = {s.name for s in dag_symbols(dag) if not s.is_schematic}
    if symbols is None:
        symbols = tuple(sorted(seen))
    else:
        symbols = symbols + tuple(sorted(seen.difference(symbols)))
    return Certificate(
        setting=dag.setting,
        symbols=symbols,
        generators=dag.generators,
        claim=claim,
        nodes=dag.nodes,
        root=dag.root,
    )


def dag_from_certificate(
    cert: Certificate, max_nodes: int = DEFAULT_MAX_NODES
) -> WitnessDag:
    """Build a WitnessDag from certificate data the checker accepts.

    The checker runs once, and WitnessError carries its verdict when
    the certificate is invalid.  Nodes go into a DagBuilder in the
    checker's order with the verdict's conclusions and no ring
    operations; equal nodes are shared, so ids may change (transforms
    never rely on them), and more than ``max_nodes`` raise
    BudgetExceededError.
    """
    verdict = check_certificate(cert)
    if not verdict:
        raise WitnessError(str(verdict))
    builder = DagBuilder(cert.setting, cert.generators, max_nodes)
    shared, append, conclusions = builder._index.get, builder._append, verdict.conclusions
    mapping = [0] * len(cert.nodes)
    renumber = {REF: mapping.__getitem__}
    renamed = False  # until a node changes id, every reference keeps its own
    for ident in verdict.order:
        node = map_fields(cert.nodes[ident], renumber) if renamed else cert.nodes[ident]
        new_id = shared(node)
        if new_id is None:
            new_id = append(node, conclusions[ident])
        mapping[ident] = new_id
        renamed = renamed or new_id != ident
    return builder.build(mapping[cert.root])
