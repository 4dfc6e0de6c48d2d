"""Spans around the program's layer entry points, installed from outside.

``Tracer.install`` wraps each named function or method of the program.  A
module that did ``from .x import f`` holds its own binding of ``f``, so every
binding of the same object in every loaded ``g2forge`` module is replaced,
and every alias of a method in its class (``__rmul__ = __mul__``) too.
``uninstall`` puts the originals back; an untraced run never installs
anything.

Spans are kept in memory as (name id, start ns, end ns, parent index) in
flat arrays and written out by the caller when the run ends.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because the workload runs on one thread.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Set, Tuple

# (span name, module, attribute path).  Functions are rebound wherever the
# program imported them; dotted paths are methods patched on their class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("linalg.det", "g2forge.linalg", "det"),
    ("linalg.submatrix_det", "g2forge.linalg", "submatrix_det"),
    ("linalg.solve", "g2forge.linalg", "solve"),
    ("linalg.nullspace", "g2forge.linalg", "nullspace"),
    ("exterior.wedge", "g2forge.exterior", "wedge"),
    ("exterior.form_inner", "g2forge.exterior", "form_inner"),
    ("exterior.hodge_star", "g2forge.exterior", "hodge_star"),
    ("liealg.LieAlgebra.d", "g2forge.liealg", "LieAlgebra.d"),
    ("liealg.derivation_space", "g2forge.liealg", "derivation_space"),
    ("liealg.parse_structure_equations", "g2forge.liealg",
     "parse_structure_equations"),
    ("scalars.Polynomial.__mul__", "g2forge.scalars", "Polynomial.__mul__"),
    ("scalars.poly_sqrt", "g2forge.scalars", "poly_sqrt"),
    ("stable_forms.lambda_invariant", "g2forge.stable_forms",
     "lambda_invariant"),
    ("stable_forms.metric_from_pair", "g2forge.stable_forms",
     "metric_from_pair"),
    ("curvature.curvature_tensors", "g2forge.curvature", "curvature_tensors"),
    ("curvature.nilsoliton_check", "g2forge.curvature", "nilsoliton_check"),
    ("g2.metric_from_phi", "g2forge.g2", "metric_from_phi"),
    ("g2.torsion_forms", "g2forge.g2", "torsion_forms"),
    ("g2.two_form_14_basis", "g2forge.g2", "two_form_14_basis"),
    ("g2.star_ricci", "g2forge.g2", "star_ricci"),
    ("survey.generic_lambda", "g2forge.survey", "generic_lambda"),
    ("survey.sign_certificate", "g2forge.survey", "sign_certificate"),
    ("survey.n4_obstruction_sample", "g2forge.survey",
     "n4_obstruction_sample"),
    ("survey.n9_nilsoliton_obstruction_sample", "g2forge.survey",
     "n9_nilsoliton_obstruction_sample"),
    ("sampling.StableFormSampler.__init__", "g2forge.sampling",
     "StableFormSampler.__init__"),
    ("sampling.StableFormSampler.k_matrix", "g2forge.sampling",
     "StableFormSampler.k_matrix"),
    ("reproduce.suite", "g2forge.reproduce", "suite_table1"),
    ("reproduce.suite", "g2forge.reproduce", "suite_coupled_n28"),
    ("reproduce.suite", "g2forge.reproduce", "suite_coupled_n9"),
    ("reproduce.suite", "g2forge.reproduce", "suite_einstein_extension"),
    ("reproduce.suite", "g2forge.reproduce", "suite_lcp_extension"),
    ("reproduce.suite", "g2forge.reproduce", "suite_obstructions"),
    ("cli.cmd_reproduce", "g2forge.cli", "cmd_reproduce"),
    ("cli.render_report", "g2forge.cli", "render_report"),
    ("scipy.optimize.minimize", "scipy.optimize", "minimize"),
)


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # one entry per span, in columns that the cyclic GC never scans
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.failed: Set[int] = set()   # indices of spans that raised
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        # hooks run after a span closes, outside its measured interval
        self.after: Dict[str, Callable[[int, object], None]] = {}

    def __len__(self) -> int:
        return len(self.starts)

    # -- recording ------------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(nid)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self.close(index, ok)
            hook = self.after.get(name)
            if hook is not None:
                hook(index, result)
            return result

        return traced

    def open(self, nid: int) -> int:
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int, ok: bool) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._stack.pop()
        if not ok:
            self.failed.add(index)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span the benchmark opens itself, around one operation."""
        index = self.open(self.name_id(name))
        ok = False
        try:
            yield
            ok = True
        finally:
            self.close(index, ok)

    # -- patching -------------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:      # a layer this workload never imported
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                wrapped = self.wrap(name, original)
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._patch(owner, key, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            holders = [module] + [m for n, m in list(sys.modules.items())
                                  if n.startswith("g2forge") and m is not None]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapped)

    def _patch(self, holder: object, key: str, value: object) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- aggregation ------------------------------------------------------------
    def summarize(self, first: int, last: int) -> Dict[str, Dict[str, float]]:
        """Calls, self seconds and failures per span name over spans [first, last)."""
        child_ns: Dict[int, int] = defaultdict(int)
        for i in range(first, last):
            parent = self.parents[i]
            if parent >= first:
                child_ns[parent] += self.ends[i] - self.starts[i]
        out: Dict[str, Dict[str, float]] = {}
        for i in range(first, last):
            entry = out.setdefault(self.names[self.name_ids[i]],
                                   {"calls": 0, "self_s": 0.0, "failed": 0})
            entry["calls"] += 1
            entry["self_s"] += (self.ends[i] - self.starts[i]
                                - child_ns[i]) / 1e9
            entry["failed"] += i in self.failed
        return out

    def dump(self) -> Dict[str, object]:
        base = self.starts[0] if len(self) else 0
        return {"names": self.names,
                "fields": ["name", "start_ns", "end_ns", "parent"],
                "spans": [[n, s - base, e - base, p] for n, s, e, p in
                          zip(self.name_ids, self.starts, self.ends,
                              self.parents)]}
