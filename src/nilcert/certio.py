"""Bridges between built witnesses and certificates.

The certificate format itself (node kinds, reader, writer) is
``nilcert.certificate``, part of the trusted kernel.  This module
packages a built WitnessDag as a Certificate, and turns a Certificate
the checker accepts back into a WitnessDag.  It also binds the format's
``Certificate``, ``serialize`` and ``deserialize``, which callers reach
as ``nilcert.certio.*``.
"""

from __future__ import annotations

from nilcert.certificate import REF, Certificate, deserialize, map_fields, serialize
from nilcert.checker import check_certificate
from nilcert.ring import Poly
from nilcert.witness import DEFAULT_MAX_NODES, DagBuilder, WitnessDag, WitnessError, dag_symbols

__all__ = [
    "Certificate",
    "serialize",
    "deserialize",
    "certificate_from_dag",
    "dag_from_certificate",
]


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
