"""In-memory spans around calls into alcm's modules, for the traced run.

The traced run swaps selected module attributes for wrappers that record a
span per call: name, start, end, parent span and the op it belongs to.  The
wrappers live here, in the benchmark, so the program under test is unchanged
and the untraced runs pay nothing.  Spans are kept in flat arrays while the
run goes and written out once it has ended.
"""

from __future__ import annotations

import gzip
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

# Span name -> (module attribute paths it wraps).  A module attribute is
# wrapped where the caller looks it up: `inference` and the benchmark reach
# check_consistency through different module globals.
WRAPPED = {
    "parser.parse": ["parser.parse_kb"],
    "engine.check": ["engine.check_consistency", "inference.check_consistency"],
    "engine.init": ["engine.initialize_root"],
    "engine.build": ["engine.build_graph"],
    "engine.rule": ["engine.applicable_rule"],
    "engine.make_base": ["engine.make_base"],
    "engine.circular": ["engine.circular"],
    # check_consistency reaches the fixpoint behind unsat_nodes directly.
    "engine.unsat": ["engine._unsat_with_order"],
    "engine.marking": ["engine.consistent_marking"],
    "extraction.model": ["extraction.model_from_verdict"],
    "extraction.rgraph": ["extraction.build_rgraph"],
    "extraction.unfold": ["extraction.unfold_sets"],
    "inference.query": ["inference.entails_instance", "inference.entails_subsumption",
                        "inference.entails_equality", "inference.entails_inequality",
                        "inference.entails_metamodelling", "inference.is_meta_concept"],
}
OP = "op"
NAMES = [OP] + list(WRAPPED)
_ID = {n: i for i, n in enumerate(NAMES)}
NO_PARENT = -1


class Tracer:
    """Flat span store; a span's index is its id."""

    def __init__(self):
        self.name = array("B")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = NO_PARENT
        self.op_seq = -1
        self.op_labels = []        # op sequence number -> workload op id
        self.inference_calls = 0   # consistency calls made by alcm.inference
        self.verdicts = []         # engine verdicts returned during the current op

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.current)
        self.op.append(self.op_seq)
        self.end.append(0.0)
        self.current = sid
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.current = self.parent[sid]

    @contextmanager
    def op_span(self, label):
        """Span of one op; spans opened inside it carry its number."""
        self.op_seq += 1
        self.op_labels.append(label)
        sid = self.open(_ID[OP])
        try:
            yield
        finally:
            self.close(sid)

    def _wrap(self, name: str, fn, counts_inference: bool):
        name_id = _ID[name]
        keep_verdict = name == "engine.check"

        def traced(*args, **kwargs):
            if counts_inference:
                self.inference_calls += 1
            sid = self.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if keep_verdict:
                self.verdicts.append(out)
            return out

        return traced

    @contextmanager
    def installed(self, modules):
        """Wrap every WRAPPED attribute of `modules` (name -> module) for the
        duration of the block, then put the originals back."""
        saved = []
        try:
            for name, paths in WRAPPED.items():
                for path in paths:
                    mod_name, attr = path.split(".")
                    mod = modules[mod_name]
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(name, fn, path == "inference.check_consistency"))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self):
        """Per span name: inclusive time of outermost spans, and self time.

        A span nested in one of the same name (an inference service calling
        another) adds to self time only, so inclusive time is not counted
        twice.  Self time is a span's duration minus its children's.
        """
        names = self.name
        parent = self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        inclusive = [0.0] * len(NAMES)
        for sid, d in enumerate(dur):
            p = parent[sid]
            if p != NO_PARENT:
                own[p] -= d
            if p == NO_PARENT or names[p] != names[sid]:
                inclusive[names[sid]] += d
        self_time = [0.0] * len(NAMES)
        for sid, d in enumerate(own):
            self_time[names[sid]] += d
        return ({n: inclusive[i] for i, n in enumerate(NAMES)},
                {n: self_time[i] for i, n in enumerate(NAMES)})

    def write(self, path) -> None:
        """Spans as gzipped tab-separated rows: id, name, parent, op, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# " + json.dumps({"columns": ["id", "name", "parent", "op",
                                                    "start_s", "end_s"],
                                        "ops": self.op_labels}) + "\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{NAMES[self.name[sid]]}\t{self.parent[sid]}\t"
                         f"{self.op[sid]}\t{self.start[sid]!r}\t{self.end[sid]!r}\n")
