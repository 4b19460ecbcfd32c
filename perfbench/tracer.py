"""Span tracer for the traced benchmark run, built from the benchmark's own files.

The tracer replaces public hexwr functions with timing wrappers at every
module attribute that refers to them (``hexwr.enumeration.successive_minima``
as well as ``hexwr.lattice.successive_minima``), only while a request runs.

* A span function records (name, start, end, parent, request) in memory, plus
  the time its children covered, from which self time follows.
* A leaf function is called up to about 10^5 times per request, so it is only
  aggregated: calls and busy time per request.  The busy time of an outermost
  leaf call counts as covered time of the enclosing span.
* ``hnf_sublattices`` is a generator; its wrapper counts the candidates it
  yields.
"""

from __future__ import annotations

import json
from functools import wraps
from time import perf_counter

from hexwr import cli, conic, enumeration, lattice, optimizer, triples

MODULES = (cli, conic, enumeration, lattice, optimizer, triples)

SPANS = (
    (cli, "main"),
    (enumeration, "list_representations"),
    (enumeration, "wr_survey"),
    (enumeration.IndexRepresentation, "to_sublattice"),
    (optimizer, "epstein_zeta"),
    (optimizer, "rank_by_snr"),
    (optimizer, "max_min"),
    (triples, "generate_tree"),
    (conic, "scaled_angle_solutions"),
)

LEAVES = (
    (enumeration, "decompose_k"),
    (lattice, "successive_minima"),
    (lattice, "angle_data"),
    (lattice, "lagrange_reduce"),
    (triples, "apply_generator"),
    (conic, "parameterize"),
)

# span record fields
NAME, START, END, PARENT, REQUEST, COVERED = range(6)


def _label(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Spans, leaf aggregates and work counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaf_rows: list[tuple[int, str, int, float]] = []
        self.leaf_totals: dict[str, list] = {}
        self.counters = {
            "hnf_scanned": 0,
            "wr_members": 0,
            "zeta_radius_max": 0,
            "zeta_rel_error_max": 0.0,
            "ranked_classes": 0,
            "tree_nodes": 0,
            "sas_solutions": 0,
        }
        self.surveyed: list[int] = []
        self.request = -1
        self._stack: list[int] = []
        self._leaf_depth = 0
        self._leaf_stats: dict[str, list] = {}
        self._survey = enumeration.wr_survey
        self._survey_misses = 0
        self._patches: list[tuple[object, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []
        hooks = {
            "enumeration.wr_survey": self._on_survey,
            "optimizer.epstein_zeta": self._on_zeta,
            "optimizer.rank_by_snr": self._on_ranking,
            "triples.generate_tree": self._on_tree,
            "conic.scaled_angle_solutions": self._on_scaled,
        }
        for owner, attr in SPANS:
            label = _label(owner, attr)
            self._patch_all(owner, attr, lambda fn, label=label: self._span(label, fn, hooks.get(label)))
        for owner, attr in LEAVES:
            label = _label(owner, attr)
            self._leaf_stats[label] = [0, 0.0]
            self.leaf_totals[label] = [0, 0.0]
            self._patch_all(owner, attr, lambda fn, label=label: self._leaf(label, fn))
        self._patch_all(enumeration, "hnf_sublattices", self._counting_generator)

    # -- installing -------------------------------------------------------

    def _patch_all(self, owner, attr: str, make) -> None:
        """Wrap owner.attr and every hexwr module attribute bound to the same object."""
        original = getattr(owner, attr)
        wrapper = make(original)
        sites = [owner] if isinstance(owner, type) else MODULES
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, name, wrapper))
                    self._originals.append((site, name, original))

    def begin(self, request: int) -> None:
        """Open the request's root span and install the wrappers."""
        self.request = request
        self._survey_misses = self._survey.cache_info().misses
        self._stack.append(len(self.spans))
        self.spans.append(["request", 0.0, 0.0, -1, request, 0.0])
        for site, name, wrapper in self._patches:
            setattr(site, name, wrapper)
        self.spans[-1][START] = perf_counter()

    def end(self) -> None:
        """Close the root span, remove the wrappers and file the leaf aggregates."""
        self.spans[self._stack.pop()][END] = perf_counter()
        for site, name, original in self._originals:
            setattr(site, name, original)
        for label, stat in self._leaf_stats.items():
            if stat[0]:
                self.leaf_rows.append((self.request, label, stat[0], stat[1]))
                total = self.leaf_totals[label]
                total[0] += stat[0]
                total[1] += stat[1]
                stat[0], stat[1] = 0, 0.0

    # -- wrappers ---------------------------------------------------------

    def _span(self, label: str, fn, hook):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1]
            rec = [label, 0.0, 0.0, parent, tracer.request, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                spans[parent][COVERED] += rec[END] - rec[START]
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _leaf(self, label: str, fn):
        tracer = self
        stat = self._leaf_stats[label]

        @wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._leaf_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                tracer._leaf_depth -= 1
                stat[0] += 1
                stat[1] += busy
                if not tracer._leaf_depth:
                    tracer.spans[tracer._stack[-1]][COVERED] += busy

        return wrapper

    def _counting_generator(self, fn):
        counters = self.counters

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters["hnf_scanned"] += 1
                yield item

        return wrapper

    # -- result hooks -----------------------------------------------------

    def _on_survey(self, args, records) -> None:
        misses = self._survey.cache_info().misses
        if misses > self._survey_misses:
            self._survey_misses = misses
            self.surveyed.append(args[0])
            self.counters["wr_members"] += sum(r.members for r in records)

    def _on_zeta(self, args, z) -> None:
        c = self.counters
        c["zeta_radius_max"] = max(c["zeta_radius_max"], z.truncation_radius)
        c["zeta_rel_error_max"] = max(c["zeta_rel_error_max"], z.abs_error_bound / abs(z.value))

    def _on_ranking(self, args, ranking) -> None:
        self.counters["ranked_classes"] += len(ranking)

    def _on_tree(self, args, tree) -> None:
        self.counters["tree_nodes"] += len(tree.nodes)

    def _on_scaled(self, args, solutions) -> None:
        self.counters["sas_solutions"] += len(solutions)

    # -- results ----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time (inclusive) and self time."""
        out: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            busy = rec[END] - rec[START]
            agg = out.setdefault(rec[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += busy
            agg["self_s"] += busy - rec[COVERED]
        return out

    def write(self, path) -> None:
        """Spans and per-request leaf aggregates as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, request, covered) in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "self_s": end - start - covered}) + "\n")
            for request, name, calls, busy in self.leaf_rows:
                fh.write(json.dumps({"leaf": name, "request": request,
                                     "calls": calls, "busy_s": busy}) + "\n")
