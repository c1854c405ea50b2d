"""Pinned digests of the engine's traces and extracted models.

One digest covers the traces and certificates of the first 100 KBs of
``corpus(seed=20240)``, another the models of the consistent KBs among
the first 300.  The wide digest covers 4,600 KBs (the first 2,000 of
seeds 20240 and 7 and 200 of each multi-pair corpus) at a 50,000-node
budget, and everything a verdict carries: the trace, the order ``g.unsat``
grew in, the cores and backjumps, the marking and model of a consistent
verdict, the refutation trace and certificate of an inconsistent one.  A
change to which nodes are built, in what order, or to which model is
extracted must update them on purpose.

Run as a script, it computes the digests once.  Then, for each seed given
on the command line, it empties the record intern tables (assertions and
axioms), re-interns every record they held in an order shuffled by that
seed, and prints the digests again on one line.  Records hash by identity, so this moves every
set of them into another order; the digests must not change.

    PYTHONPATH=src:tests python tests/digests.py SEED...
"""

import gc
import hashlib
import json
import random
import sys

from alcm import syntax
from alcm.engine import check_consistency, format_trace
from alcm.extraction import model_from_verdict
from alcm.randomkb import corpus
from alcm.semantics import interpretation_to_json
from alcm.syntax import assertion_to_str
from conftest import multi_pair_corpus

TRACE_DIGEST = "621dcf5778cbf013fcc1d29a3e46a8642d366046a307b435bb0de8e665205d5b"
MODEL_DIGEST = "fef2850464aa0e71ead0f0bdc57f5801498a1477a475f6b58decdc364086a873"
WIDE_DIGEST = "25d417e24e5fdc80e4346cdf6c31429d74be27292811c0cfec288532fb60e3b1"


def trace_digest() -> str:
    h = hashlib.sha256()
    for kb in corpus(seed=20240, size=100):
        v = check_consistency(kb)
        h.update(format_trace(v.graph, v).encode())
        h.update((v.certificate.describe() if not v.consistent
                  else "consistent").encode() + b"\n")
    return h.hexdigest()


def model_digest():
    """The digest and the number of consistent KBs it covers."""
    h = hashlib.sha256()
    consistent = 0
    for kb in corpus(seed=20240, size=300):
        v = check_consistency(kb)
        if v.consistent:
            consistent += 1
            h.update(json.dumps(interpretation_to_json(model_from_verdict(kb, v)),
                                sort_keys=True).encode() + b"\n")
    return h.hexdigest(), consistent


def wide_digest() -> str:
    h = hashlib.sha256()
    kbs = corpus(seed=20240, size=2000) + corpus(seed=7, size=2000)
    kbs += [kb for seed in (3, 4, 5) for kb in multi_pair_corpus(seed, 200)]
    for kb in kbs:
        v = check_consistency(kb, node_budget=50_000)
        g = v.graph
        lines = [format_trace(g, v), repr(list(g.unsat)), repr(sorted(g.core_child.items()))]
        lines += [f"{u}: " + " ; ".join(sorted(map(assertion_to_str, g.cores[u])))
                  for u in g.unsat if u in g.cores]
        if v.consistent:
            lines += [repr(sorted(v.marking.nodes)), repr(sorted(v.marking.choice.items())),
                      json.dumps(interpretation_to_json(model_from_verdict(kb, v)),
                                 sort_keys=True)]
        else:
            lines += [f"{u} {rule} " + " | ".join(
                p if isinstance(p, str) else assertion_to_str(p) for p in principal)
                for u, rule, principal in v.trace]
            lines.append(v.certificate.describe())
        h.update("\n".join(lines).encode() + b"\n")
    return h.hexdigest()


def reintern_shuffled(seed: int) -> list:
    """Empty the record intern tables and intern what they held again, in
    shuffled order; the caller keeps the returned records alive."""
    tables = [cls._table for cls in syntax._Record.__subclasses__()]
    held = [(type(a), fields) for t in tables for fields, a in t.items()]
    for t in tables:
        t.clear()
    gc.collect()
    random.Random(seed).shuffle(held)
    return [cls(*fields) for cls, fields in held]


if __name__ == "__main__":
    trace_digest()
    model_digest()
    wide_digest()
    for seed in sys.argv[1:]:
        kept = reintern_shuffled(int(seed))
        print(trace_digest(), model_digest()[0], wide_digest())
