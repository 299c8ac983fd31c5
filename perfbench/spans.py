"""Spans and counters recorded around the program's public functions.

``Tracer.install`` wraps the public functions of each module of a fresh
import and rebinds every name that refers to them in every fuchs2 module,
the defining module included, so internal calls and calls from other
modules are both recorded.  The program's files are not touched.

Each call records a span (name, parent span, start, end).  A span's self
time is its duration minus the time covered by its child spans; the
``*_s`` layer metrics are summed self times, so they add up, together with
the self time of the benchmark's top-level operation spans, to the traced
wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _assoc_triples(counts, args, kwargs, result):
    n = len(args[0])
    counts["kernels.assoc_triples"] += (
        n ** 3 if result is None else (result[0] * n + result[1]) * n
        + result[2] + 1)


def _condition_triples(counts, args, kwargs, result):
    n = len(args[0])
    lo = args[2] if len(args) > 2 else kwargs.get("a_start", 0)
    hi = args[3] if len(args) > 3 else kwargs.get("a_stop")
    hi = n if hi is None else hi
    counts["kernels.condition_triples"] += (
        (hi - lo) * n * n if result is None
        else ((result[0] - lo) * n + result[1]) * n + result[2] + 1)


def _rejected(counts, args, kwargs, result):
    counts["star.bases_rejected"] += not result[0]


def _residues(counts, args, kwargs, result):
    counts["gring.residues"] += result.size


def _units(counts, args, kwargs, result):
    counts["gring.units"] += result.group.n


# (module, function, hook run on the result)
TARGETS = (
    ("groups", "build_group", None),
    ("groups", "isomorphism", None),
    ("groups", "verify_homomorphism", None),
    ("kernels", "first_assoc_violation", _assoc_triples),
    ("kernels", "first_condition_violation", _condition_triples),
    ("star", "realize_exponent4", None),
    ("star", "pc_sequence", None),
    ("star", "star_table", None),
    ("star", "verify_star_conditions", _rejected),
    ("star", "complement_ideal", None),
    ("gring", "ideal_closure", None),
    ("gring", "verify_two_sided", None),
    ("gring", "quotient_ring", _residues),
    ("gring", "unit_group", _units),
    ("search", "search_realizing_ideal", None),
    ("search", "verify_certificate", None),
    ("search", "run_fixtures", None),
    ("screeners", "screen", None),
    ("parsing", "parse_element_literal", None),
)

# generators: counted per item yielded, no span (their time belongs to the
# consumer's span)
GENERATORS = (
    ("search", "enumerate_candidates", "search.distinct_ideals"),
)

SEARCH = "search.search_realizing_ideal"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.counts = Counter()
        self.active = True

    @contextmanager
    def span(self, name):
        rec = [name, self.stack[-1] if self.stack else -1,
               time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result
        return traced

    def _wrap_generator(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.active:
                    counts[counter] += 1
                yield item
        return counted

    def install(self, fx):
        """Wrap the targets of a fresh import ``fx`` (see env.fresh_import)."""
        swap = {}
        for module, attr, hook in TARGETS:
            fn = getattr(getattr(fx, module), attr)
            swap[id(fn)] = self._wrap(f"{module}.{attr}", fn, hook)
        for module, attr, counter in GENERATORS:
            fn = getattr(getattr(fx, module), attr)
            swap[id(fn)] = self._wrap_generator(counter, fn)
        for name, mod in list(sys.modules.items()):
            if name != "fuchs2" and not name.startswith("fuchs2."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in swap and callable(value):
                    setattr(mod, attr, swap[id(value)])

    def summary(self):
        """Per span name: calls, total and self seconds; per (parent, name)
        the same; plus the counters."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name = defaultdict(lambda: [0, 0.0, 0.0])
        by_edge = defaultdict(lambda: [0, 0.0, 0.0])
        counts = Counter(self.counts)
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            parent_name = self.spans[parent][0] if parent >= 0 else None
            for agg in (by_name[name], by_edge[(parent_name, name)]):
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += t1 - t0 - child[i]
            if parent_name == SEARCH:
                if name == "gring.ideal_closure":
                    counts["search.closures"] += 1
                elif name == "gring.quotient_ring":
                    counts["search.evaluated"] += 1
        return by_name, by_edge, counts


def _self(name):
    return lambda by_name, counts: by_name[name][2] if name in by_name else 0.0


def _calls(name):
    return lambda by_name, counts: by_name[name][0] if name in by_name else 0


def _count(name):
    return lambda by_name, counts: counts[name]


def _distinct_per_closure(by_name, counts):
    closures = counts["search.closures"]
    return counts["search.distinct_ideals"] / closures if closures else 0.0


# (metric, unit, better, value from (by_name, counts)); the trace.* metrics
# are added by the runner, which knows the untraced figures
LAYER_METRICS = (
    ("groups.build_group_s", "s", "lower", _self("groups.build_group")),
    ("groups.isomorphism_s", "s", "lower", _self("groups.isomorphism")),
    ("groups.isomorphism_calls", "count", "lower",
     _calls("groups.isomorphism")),
    ("groups.verify_homomorphism_s", "s", "lower",
     _self("groups.verify_homomorphism")),
    ("kernels.assoc_scan_s", "s", "lower",
     _self("kernels.first_assoc_violation")),
    ("kernels.assoc_triples", "count", "lower",
     _count("kernels.assoc_triples")),
    ("kernels.condition_scan_s", "s", "lower",
     _self("kernels.first_condition_violation")),
    ("kernels.condition_triples", "count", "lower",
     _count("kernels.condition_triples")),
    ("star.realize_s", "s", "lower", _self("star.realize_exponent4")),
    ("star.pc_sequence_s", "s", "lower", _self("star.pc_sequence")),
    ("star.star_table_s", "s", "lower", _self("star.star_table")),
    ("star.verify_conditions_s", "s", "lower",
     _self("star.verify_star_conditions")),
    ("star.verify_conditions_calls", "count", "lower",
     _calls("star.verify_star_conditions")),
    ("star.bases_rejected", "count", "lower", _count("star.bases_rejected")),
    ("star.complement_ideal_s", "s", "lower",
     _self("star.complement_ideal")),
    ("gring.ideal_closure_s", "s", "lower", _self("gring.ideal_closure")),
    ("gring.ideal_closure_calls", "count", "lower",
     _calls("gring.ideal_closure")),
    ("gring.verify_two_sided_s", "s", "lower",
     _self("gring.verify_two_sided")),
    ("gring.quotient_ring_s", "s", "lower", _self("gring.quotient_ring")),
    ("gring.quotient_ring_calls", "count", "lower",
     _calls("gring.quotient_ring")),
    ("gring.residues", "count", "lower", _count("gring.residues")),
    ("gring.unit_group_s", "s", "lower", _self("gring.unit_group")),
    ("gring.units", "count", "lower", _count("gring.units")),
    ("search.search_s", "s", "lower", _self(SEARCH)),
    ("search.closures", "count", "lower", _count("search.closures")),
    ("search.distinct_ideals", "count", "higher",
     _count("search.distinct_ideals")),
    ("search.distinct_per_closure", "ratio", "higher",
     _distinct_per_closure),
    ("search.evaluated", "count", "lower", _count("search.evaluated")),
    ("search.verify_certificate_s", "s", "lower",
     _self("search.verify_certificate")),
    ("search.verify_certificate_calls", "count", "lower",
     _calls("search.verify_certificate")),
    ("search.run_fixtures_s", "s", "lower", _self("search.run_fixtures")),
    ("screeners.screen_s", "s", "lower", _self("screeners.screen")),
    ("parsing.parse_element_literal_s", "s", "lower",
     _self("parsing.parse_element_literal")),
    ("parsing.parse_element_literal_calls", "count", "lower",
     _calls("parsing.parse_element_literal")),
)
