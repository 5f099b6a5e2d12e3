"""Span tracing from outside the program, for the per-layer breakdown.

:class:`Tracer` wraps public functions of the program's layers (module
bindings and class attributes) with timers while a traced run is in
progress, and removes the wrappers afterwards. Each span records its
duration and its *self* time: the duration minus the union of its
children's intervals. One operation is in flight at a time, so a span
opened on a pool thread with nothing open on that thread belongs to the
span the benchmark's own thread has open (the ``parallel_map`` dispatch that
submitted it).

Counts are read from public return values and attributes (result
``total_candidates``, the ranker's ``last_refresh_*`` fields, the
planner's ``AccessPlan``), never from the program's metrics registry,
whose names may change.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

_now = time.perf_counter

#: The ``Span.sums`` key under which ``porter_stem`` calls are counted.
STEMS = "text.stem_calls"


class Span:
    __slots__ = ("name", "start", "parent", "children", "sums")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.children: List[Tuple[float, float]] = []
        # Total duration of descendant spans by name, and counts made
        # inside the subtree (see Tracer.count_in_span).
        self.sums: Dict[str, float] = {}
        self.start = _now()


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


class Tracer:
    """Records spans and counts while installed around a run's timed phase.

    :meth:`install` wraps the program's layers, :meth:`uninstall` restores
    them; set-up and the output checks run untraced.
    """

    def __init__(self) -> None:
        self._main_thread = threading.get_ident()
        self._main_stack: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: name -> [(duration_s, self_s)]
        self.spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        #: name -> [value] for per-span derived samples (see _on_end).
        self.derived: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self.active = False

    # -- spans ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, parent)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        stop = _now()
        stack = self._stack()
        stack.pop()
        duration = stop - span.start
        own = duration - _covered(span.children, span.start, stop)
        with self._lock:
            self.spans[span.name].append((duration, own))
            self._on_end(span)
            parent = span.parent
            if parent is not None:
                parent.children.append((span.start, stop))
                sums = parent.sums
                sums[span.name] = sums.get(span.name, 0.0) + duration
                for name, value in span.sums.items():
                    sums[name] = sums.get(name, 0.0) + value

    def _on_end(self, span: Span) -> None:
        """Samples that need a span's subtree, taken when it closes."""
        sums = span.sums
        if span.name == "engine.search":
            self.derived["smr.titles_per_search"].append(sums.get("smr.titles", 0.0))
        elif span.name == "smr.register":
            self.derived["relational.write"].append(
                sums.get("relational.delete", 0.0) + sums.get("relational.insert", 0.0)
            )
            self.counts["smr.register_stems"] += int(sums.get(STEMS, 0))
        elif span.name == "op.load":
            prepare = sums.get("pool.prepare", 0.0)
            self.derived["pool.prepare_per_load"].append(prepare)
            self.derived["bulkload.commit_per_load"].append(
                sums.get("bulkload.load", 0.0) - prepare
            )

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def count_in_span(self, name: str) -> None:
        """Count one call against the innermost open span.

        The count travels up to the enclosing spans when they close (as
        durations do in ``sums``), so :meth:`_on_end` can attribute it to
        the operation that caused it.
        """
        stack = self._stack()
        span = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        if span is not None:
            with self._lock:
                span.sums[name] = span.sums.get(name, 0) + 1

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself.

        Records nothing while the tracer is not installed.
        """
        return _SpanContext(self, name) if self.active else _NULL_CONTEXT

    # -- wrapping -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.end(span)

        self._patch(owner, attr, traced)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        self.active = True
        from repro.core import engine as engine_module
        from repro.core.engine import AdvancedSearchEngine
        from repro.core.ranking import PageRankRanker
        from repro.rdf.sparql import SparqlEngine
        from repro.relational.database import Database
        from repro.relational.indexes import RTreeIndex
        from repro.relational.planner import Planner
        from repro.relational.storage import Table
        from repro.smr import bulkload as bulkload_module
        from repro.smr.bulkload import BulkLoader
        from repro.smr.repository import SensorMetadataRepository
        from repro.tagging.cloud import TagCloudBuilder
        from repro.text import inverted_index as index_module
        from repro.text.inverted_index import InvertedIndex
        from repro.wiki.site import WikiSite

        tracer = self
        search = AdvancedSearchEngine.search

        @functools.wraps(search)
        def traced_search(engine, *args, **kwargs):
            hits = engine.cache.stats.hits if engine.cache is not None else 0
            span = tracer.begin("engine.search")
            try:
                results = search(engine, *args, **kwargs)
            finally:
                tracer.end(span)
            if engine.cache is None or engine.cache.stats.hits == hits:
                tracer.count("engine.candidates", results.total_candidates)
                tracer.count("engine.results", len(results))
            return results

        self._patch(AdvancedSearchEngine, "search", traced_search)
        self.wrap(engine_module, "parallel_map", "pool.dispatch")
        self.wrap(bulkload_module, "parallel_map", "pool.prepare")
        self.wrap(BulkLoader, "load_records", "bulkload.load")
        self.wrap(InvertedIndex, "search", "text.keyword")
        self.wrap(InvertedIndex, "add", "text.index_add")
        self.wrap(InvertedIndex, "remove", "text.index_remove")
        self.wrap(SensorMetadataRepository, "sql", "relational.select")
        self.wrap(SensorMetadataRepository, "register", "smr.register")
        self.wrap(SensorMetadataRepository, "titles", "smr.titles")
        self.wrap(SensorMetadataRepository, "kind_map", "smr.titles")
        self.wrap(Table, "insert", "relational.insert")
        self.wrap(SparqlEngine, "query", "rdf.sparql")
        self.wrap(WikiSite, "export_rdf", "rdf.export")
        self.wrap(WikiSite, "save", "wiki.save")
        self.wrap(WikiSite, "link_graph", "ranking.graph_build")
        self.wrap(WikiSite, "semantic_graph", "ranking.graph_build")
        self.wrap(RTreeIndex, "box", "spatial.box")
        self.wrap(TagCloudBuilder, "build", "tagging.cloud_build")

        execute = Database.execute

        @functools.wraps(execute)
        def traced_execute(db, sql, *args, **kwargs):
            name = "relational.delete" if sql.lstrip()[:6].upper() == "DELETE" else "relational.execute"
            span = tracer.begin(name)
            try:
                return execute(db, sql, *args, **kwargs)
            finally:
                tracer.end(span)

        self._patch(Database, "execute", traced_execute)

        plan_scan = Planner.plan_scan

        @functools.wraps(plan_scan)
        def counted_plan_scan(planner, *args, **kwargs):
            plan = plan_scan(planner, *args, **kwargs)
            tracer.count("relational.plans")
            if plan.path.kind == "seq":
                tracer.count("relational.seqscans")
            return plan

        self._patch(Planner, "plan_scan", counted_plan_scan)

        stem = index_module.porter_stem

        @functools.wraps(stem)
        def counted_stem(word):
            tracer.count_in_span(STEMS)
            return stem(word)

        self._patch(index_module, "porter_stem", counted_stem)

        insert = RTreeIndex.insert

        @functools.wraps(insert)
        def counted_insert(index, *args, **kwargs):
            tracer.count("spatial.rtree_inserts")
            return insert(index, *args, **kwargs)

        self._patch(RTreeIndex, "insert", counted_insert)

        scores = PageRankRanker.scores

        @functools.wraps(scores)
        def traced_scores(ranker):
            if ranker.freshness()["fresh"]:
                return scores(ranker)
            span = tracer.begin("ranking.recompute")
            try:
                return scores(ranker)
            finally:
                tracer.end(span)
                tracer.count(f"ranking.recomputes.{ranker.last_refresh_mode}")
                tracer.derived["ranking.sweep_equivalents"].append(
                    float(ranker.last_refresh_iterations)
                )
                tracer.derived["ranking.relaxations"].append(
                    float(ranker.last_refresh_relaxations)
                )

        self._patch(PageRankRanker, "scores", traced_scores)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last patched, first restored)."""
        self.active = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out -------------------------------------------------------

    def median_ms(self, name: str, own: bool = False) -> float:
        samples = self.spans.get(name)
        if not samples:
            return 0.0
        return 1000.0 * statistics.median(s[1] if own else s[0] for s in samples)

    def derived_median(self, name: str, scale: float = 1.0) -> float:
        samples = self.derived.get(name)
        return scale * statistics.median(samples) if samples else 0.0

    def calls(self, name: str) -> int:
        return len(self.spans.get(name, ()))


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.begin(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end(self.span)
        return False


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: no spans, no cost."""

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def span(self, name: str):
        return _NULL_CONTEXT


class _NullContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()
