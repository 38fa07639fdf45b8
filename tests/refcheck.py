"""A reference checker, written apart from ``nilcert.checker``.

``refcheck(obj)`` decides a certificate from its raw JSON object and
returns ``(ok, node, reason)``, the first three fields of the package's
Verdict.  It imports nothing from ``nilcert``: ring elements are
``oracle``'s term dicts (words as tuples of spellings), multiplied by
``oracle.expand`` and summed by ``oracle.add_terms``, and a symbol is
schematic when its spelling holds a ``#``.  Agreement with
``check_certificate`` is evidence that the kernel does what its
docstring says, not a restatement of it.

It follows the phase and blame order of that docstring:

1. the setting, and families outside the sqrt setting (no node blamed);
2. each node in ascending order: its kind against the setting, its
   generator or family index, its references, then a Semiprime bound
   that is not schematic;
3. the root's range (no node blamed);
4. the least node that cannot be evaluated because it waits on a cycle;
5. each node in ascending order: the Red square, then the Semiprime
   shape, its bound in the conclusion and its bound in the generators;
6. the claim against the root's conclusion.

The input must be an object that ``deserialize`` reads (a parsed
certificate's JSON): the reader checks shapes, spellings and
coefficients, and nothing here checks them again.
"""

from __future__ import annotations

from oracle import add_terms, expand

# the one setting each confined op needs; every other op serves both
SETTING_OF = {"intro_family": "sqrt", "red": "nil", "semiprime": "sqrt"}
REFS = {"add": ("left", "right"), "mult": ("inner",), "red": ("premise",),
        "semiprime": ("premise",)}


def terms(raw) -> dict[tuple[str, ...], int]:
    return {tuple(word): int(coeff) for coeff, word in raw}


def refcheck(obj: dict) -> tuple[bool, int | None, str | None]:
    setting, nodes, n = obj["setting"], obj["nodes"], len(obj["nodes"])
    gens = [terms(g) for g in obj["generators"]]
    families = [(terms(f["left"]), terms(f["right"])) for f in obj["families"]]
    if setting not in ("nil", "sqrt") or (setting == "nil" and families):
        return False, None, "WRONG_SETTING"

    for i, node in enumerate(nodes):
        op = node["op"]
        if SETTING_OF.get(op, setting) != setting:
            return False, i, "WRONG_SETTING"
        if op == "intro" and node["gen"] not in range(len(gens)):
            return False, i, "GEN_INDEX"
        if op == "intro_family" and node["family"] not in range(len(families)):
            return False, i, "GEN_INDEX"
        if any(node[key] not in range(n) for key in REFS.get(op, ())):
            return False, i, "BAD_REF"
        if op == "semiprime" and "#" not in node["bound"]:
            return False, i, "SEMIPRIME_SHAPE"
    if obj["root"] not in range(n):
        return False, None, "BAD_REF"

    # evaluate in passes until none makes progress; what is left waits on a cycle
    concl: dict[int, dict] = {}
    progress = True
    while progress:
        progress = False
        for i, node in enumerate(nodes):
            refs = [node[key] for key in REFS.get(node["op"], ())]
            if i in concl or any(ref not in concl for ref in refs):
                continue
            concl[i] = conclusion(node, [concl[ref] for ref in refs], gens, families)
            progress = True
    if len(concl) < n:
        return False, min(set(range(n)) - set(concl)), "CYCLE"

    for i, node in enumerate(nodes):
        if node["op"] == "red":
            c = terms(node["conclusion"])
            if concl[node["premise"]] != expand(c, c):
                return False, i, "RED_SQUARE_MISMATCH"
        elif node["op"] == "semiprime":
            c, bound = terms(node["conclusion"]), node["bound"]
            if concl[node["premise"]] != expand(c, {(bound,): 1}, c):
                return False, i, "SEMIPRIME_SHAPE"
            if any(bound in word for word in c):
                return False, i, "SEMIPRIME_CAPTURE"
            every = gens + [side for pair in families for side in pair]
            if any(bound in word for poly in every for word in poly):
                return False, i, "SEMIPRIME_CAPTURE"

    if concl[obj["root"]] != terms(obj["claim"]):
        return False, obj["root"], "CLAIM_MISMATCH"
    return True, None, None


def conclusion(node: dict, premises: list[dict], gens: list, families: list) -> dict:
    op = node["op"]
    if op == "intro":
        return gens[node["gen"]]
    if op == "intro_family":
        left, right = families[node["family"]]
        return expand(left, terms(node["instance"]), right)
    if op == "zero":
        return {}
    if op == "add":
        return add_terms(*premises)
    if op == "mult":
        return expand(terms(node["left"]), premises[0], terms(node["right"]))
    return terms(node["conclusion"])  # red and semiprime carry theirs
