"""Span recorder for the traced run, installed from outside the program.

`install` wraps finsite's public functions in timing wrappers and rebinds
every `finsite.*` module attribute that holds one, since modules import each
other's functions by name.  `uninstall` puts the originals back.  Spans are
kept in memory and turned into per-layer metrics by `layer_metrics`.

Hot leaf helpers (`bits`, `compose`, `pullback_mask`) are not wrapped; two
helpers that run in tight loops (`is_topology`, `closed_hull`) are only
counted.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0  # thread CPU time, which excludes waiting for the GIL
    extra: object = None

    @property
    def duration(self):
        return self.end - self.start


def _sizes_product(P, Q, per_object):
    total = 1
    for n, m in zip(P.sizes, Q.sizes):
        total *= per_object(n, m)
    return total


def _hom_tables(args, kwargs, result):
    P, Q = args[:2]
    return (_sizes_product(P, Q, lambda n, m: m**n), len(result))


def _iso_tables(args, kwargs, result):
    P, Q = args[:2]
    return (
        _sizes_product(P, Q, lambda n, m: math.factorial(n) if n == m else 0),
        len(result),
    )


def _len_result(args, kwargs, result):
    return len(result)


def _lattice_size(args, kwargs, result):
    return len(result.elements)


def _sieve_key(args, kwargs, result):
    return (id(args[0]), args[1])


# (module, function, span name, extra) -- the span name is the function's
# layer metric group; extra(args, kwargs, result) is stored on the span.
WRAPPED = (
    ("siteio", "load_site", "siteio.load", None),
    ("siteio", "parse_site", "siteio.load", None),
    ("siteio", "canonical_json", "siteio.emit", _len_result),
    ("category", "validate_category", "category.validate", None),
    ("category", "is_cartesian", "category.props", None),
    ("category", "has_right_ore", "category.props", None),
    ("category", "is_cauchy_complete", "category.props", None),
    ("sieves", "sieve_masks_on", "sieves.masks", _sieve_key),
    ("topology", "enumerate_topologies", "topology.enumerate", _lattice_size),
    ("topology", "topology", "topology.check", None),
    ("topology", "generated_topology", "topology.check", None),
    ("topology", "induced_topology", "topology.check", None),
    ("density", "is_dense", "density.is_dense", None),
    ("density", "topologies_with_dense", "density.family", None),
    ("presheaf", "presheaf_homs", "presheaf.homs", _hom_tables),
    ("presheaf", "presheaf_isos", "presheaf.homs", _iso_tables),
    ("presheaf", "are_isomorphic", "presheaf.iso", None),
    ("presheaf", "kernel_pair", "presheaf.limits", None),
    ("presheaf", "pullback_presheaf", "presheaf.limits", None),
    ("presheaf", "equalizer_presheaf", "presheaf.limits", None),
    ("presheaf", "product_presheaf", "presheaf.limits", None),
    ("sheaf", "sheafify", "sheaf.sheafify", None),
    ("sheaf", "matching_families", "sheaf.matching", _len_result),
    ("sheaf", "is_sheaf", "sheaf.is_sheaf", None),
    ("sheaf", "is_subcanonical", "sheaf.subcanonical", None),
    ("sheaf", "representable_sheaf", "sheaf.rep", None),
    ("objects", "subobjects", "objects.subobjects", _lattice_size),
    ("objects", "rep_is_regular", "objects.probe", None),
    ("objects", "rep_is_coherent", "objects.probe", None),
    ("objects", "is_indecomposable_projective", "objects.indec_proj", None),
    ("classify", "classify_report", "classify.report", None),
    ("classify", "is_locally_connected_site", "classify.sites", None),
    ("classify", "is_atomic_site", "classify.sites", None),
    ("classify", "is_rigid", "classify.sites", None),
    ("classify", "is_coherent_site", "classify.sites", None),
    ("classify", "is_regular_site", "classify.sites", None),
    ("classify", "presheaf_type_test", "classify.sites", None),
    ("classify", "comparison_functors", "classify.comparison", None),
    ("classify", "right_kan_extension", "classify.comparison", None),
    # one task of classify_report, on whichever thread --jobs runs it
    ("classify", "_run_task", "classify.task", None),
)
COUNTED = (
    ("topology", "is_topology", "topology.axiom_checks"),
    ("objects", "closed_hull", "objects.hull_calls"),
)


class Recorder:
    """Spans and counts of the traced passes.

    Each thread keeps its own span stack.  A span opened on a thread whose
    stack is empty (a `--jobs` worker) takes as parent the innermost span open
    on the thread that runs the ops, which is the `classify_report` that
    handed it the task.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.candidates = 0
        self.enabled = False
        self.op = None
        self._ids = itertools.count()
        self._op_ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack = []
        self._installed = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, extra=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        span = Span(next(self._ids), parent, name, self.op, threading.get_ident())
        stack.append(span)
        span.cpu = time.thread_time()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.cpu = time.thread_time() - span.cpu
            stack.pop()
            self.spans.append(span)
        if extra is not None:
            span.extra = extra(args, kwargs, result)
        return result

    def count(self, name):
        if self.enabled:
            with self._lock:
                self.counts[name] += 1

    # -- installation -----------------------------------------------------

    def _rebind(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "finsite" and not modname.startswith("finsite."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._installed.append((module, attr, original))

    def install(self):
        for mod, fname, name, extra in WRAPPED:
            original = getattr(importlib.import_module("finsite." + mod), fname)
            self._rebind(original, self._span_wrapper(name, original, extra))
        for mod, fname, name in COUNTED:
            original = getattr(importlib.import_module("finsite." + mod), fname)
            self._rebind(original, self._count_wrapper(name, original))
        topology = importlib.import_module("finsite.topology")
        enumerate_original = topology.enumerate_topologies
        count_candidates = topology.count_candidate_assignments

        # the candidate count is taken outside the span, with tracing paused
        def enumerate_topologies(category, *args, **kwargs):
            if self.enabled:
                self.enabled = False
                try:
                    self.candidates += count_candidates(category)
                finally:
                    self.enabled = True
            return enumerate_original(category, *args, **kwargs)

        self._rebind(enumerate_original, enumerate_topologies)
        lattice = topology.TopologyLattice
        init = lattice.__init__
        lattice.__init__ = self._span_wrapper("topology.lattice", init, None)
        self._installed.append((lattice, "__init__", init))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _span_wrapper(self, name, fn, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra)

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- ops ----------------------------------------------------------------

    def run_op(self, kind, fn):
        """Run one op under a root span named op.<kind>."""
        self.op = next(self._op_ids)
        try:
            return self.call("op." + kind, fn, (), {})
        finally:
            self.op = None


# ---------------------------------------------------------------------------
# Span arithmetic.


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Span id -> duration minus the part its children's intervals cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans
    }


def outermost(spans, names, by_id=None):
    """Spans named in `names` with no ancestor named in `names`."""
    if by_id is None:
        by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.name not in names:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


RATIOS = (
    "sieves.masks_reuse",
    "topology.yield",
    "presheaf.hom_yield",
    "sheaf.rep_reuse",
    "classify.busy_over_wall",
)


def unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "frac" if name in RATIOS else "count"


def _ratio(a, b):
    return a / b if b else 0.0


PER_PASS = "per pass"


def layer_metrics(rec, passes):
    """Per-layer metrics of the traced passes: times and counts per pass of
    the op list, ratios as they are."""
    spans = rec.spans
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def inclusive(*names):
        named = [s for n in names for s in by_name[n]]
        return sum(s.duration for s in outermost(named, set(names), by_id))

    def self_of(name):
        return sum(selfs[s.id] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    mask_seen = set()
    mask_reuse = 0
    for s in sorted(by_name["sieves.masks"], key=lambda s: s.start):
        key = (s.op,) + s.extra
        mask_reuse += key in mask_seen
        mask_seen.add(key)
    parents_of_sheafify = {s.parent for s in by_name["sheaf.sheafify"]}
    rep_reused = sum(s.id not in parents_of_sheafify for s in by_name["sheaf.rep"])
    hom_tables = sum(s.extra[0] for s in by_name["presheaf.homs"])
    homs_found = sum(s.extra[1] for s in by_name["presheaf.homs"])
    found = sum(s.extra for s in by_name["topology.enumerate"])
    worker_busy = sum(
        s.cpu
        for s in by_name["classify.task"]
        if s.thread != rec._main
    )
    report_wall = inclusive("classify.report")

    n = max(passes, 1)
    totals = {
        "siteio.load_s": inclusive("siteio.load"),
        "siteio.emit_s": inclusive("siteio.emit"),
        "siteio.emit_bytes": sum(
            s.extra for s in outermost(by_name["siteio.emit"], {"siteio.emit"}, by_id)
        ),
        "category.validate_s": inclusive("category.validate"),
        "category.props_s": inclusive("category.props"),
        "sieves.masks_s": inclusive("sieves.masks"),
        "sieves.masks_calls": calls("sieves.masks"),
        "topology.enumerate_s": self_of("topology.enumerate"),
        "topology.candidates": rec.candidates,
        "topology.found": found,
        "topology.axiom_checks": rec.counts["topology.axiom_checks"],
        "topology.lattice_s": inclusive("topology.lattice"),
        "topology.check_s": inclusive("topology.check"),
        "density.is_dense_s": inclusive("density.is_dense"),
        "density.is_dense_calls": calls("density.is_dense"),
        "density.family_s": inclusive("density.family"),
        "presheaf.homs_s": inclusive("presheaf.homs"),
        "presheaf.homs_calls": calls("presheaf.homs"),
        "presheaf.hom_tables": hom_tables,
        "presheaf.homs_found": homs_found,
        "presheaf.iso_s": inclusive("presheaf.iso"),
        "presheaf.limits_s": inclusive("presheaf.limits"),
        "sheaf.sheafify_s": inclusive("sheaf.sheafify"),
        "sheaf.sheafify_calls": calls("sheaf.sheafify"),
        "sheaf.matching_s": inclusive("sheaf.matching"),
        "sheaf.families": sum(s.extra for s in by_name["sheaf.matching"]),
        "sheaf.is_sheaf_s": inclusive("sheaf.is_sheaf"),
        "sheaf.subcanonical_s": inclusive("sheaf.subcanonical"),
        "sheaf.rep_calls": calls("sheaf.rep"),
        "objects.subobjects_s": inclusive("objects.subobjects"),
        "objects.subobjects_calls": calls("objects.subobjects"),
        "objects.subobject_count": sum(s.extra for s in by_name["objects.subobjects"]),
        "objects.hull_calls": rec.counts["objects.hull_calls"],
        "objects.probe_s": inclusive("objects.probe"),
        "objects.indec_proj_s": inclusive("objects.indec_proj"),
        "classify.report_self_s": self_of("classify.report"),
        "classify.sites_s": inclusive("classify.sites"),
        "classify.comparison_s": inclusive("classify.comparison"),
    }
    out = {k: v / n for k, v in totals.items()}
    out.update(
        {
            "sieves.masks_reuse": _ratio(mask_reuse, calls("sieves.masks")),
            "topology.yield": _ratio(found, rec.candidates),
            "presheaf.hom_yield": _ratio(homs_found, hom_tables),
            "sheaf.rep_reuse": _ratio(rep_reused, calls("sheaf.rep")),
            "classify.busy_over_wall": _ratio(worker_busy, report_wall),
        }
    )
    return out


def self_time_table(rec):
    """(span name, self seconds, calls), largest self time first."""
    selfs = self_times(rec.spans)
    total = defaultdict(float)
    n = Counter()
    for s in rec.spans:
        key = "op (cli glue and unwrapped code)" if s.name.startswith("op.") else s.name
        total[key] += selfs[s.id]
        n[key] += 1
    return sorted(((k, total[k], n[k]) for k in total), key=lambda r: -r[1])
