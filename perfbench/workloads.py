"""The two workloads: set-up, the timed closed loop, and the output checks.

Every workload drives the program only through its public entry points:
searches and tags through the WSGI callable from
``repro.web.app.create_app`` (called in-process, no sockets, sampler
thread not started), writes through ``MutationEvent.apply`` /
``SensorMetadataRepository.register``, and bulk loads through
``BulkLoader.load_records``. One client thread issues one operation at a
time (a closed loop). Each response is checked before the next
operation, outside every timer; checks that need the whole run (the
oracle, the rebuild) run after the timed phase.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import urlencode

from repro.core.engine import AdvancedSearchEngine
from repro.smr.bulkload import BulkLoader
from repro.smr.model import KIND_ORDER
from repro.smr.repository import SensorMetadataRepository
from repro.tagging.interface import TaggingSystem
from repro.web.app import create_app

from perfbench import oracle
from perfbench.inputs import TAG_PROPERTIES, Inputs, Op

_now = time.perf_counter

#: Set-ups per run; ``setup_s`` is their median. The cheaper live
#: set-up repeats more, for about the same set-up time per run.
SETUPS = {"query": 2, "live": 4}


@dataclass
class Record:
    """What one run measured and checked."""

    latencies: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    #: (records loaded, seconds) per load.
    loads: List[Tuple[int, float]] = field(default_factory=list)
    searchable_s: List[float] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    ops: int = 0
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    cache: Dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def fail(self, what: str, problems: List[str]) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{what}: {'; '.join(problems)}")


class Target:
    """One running instance of the program: repository, engine, web app."""

    def __init__(self, smr: SensorMetadataRepository):
        self.smr = smr
        self.engine = AdvancedSearchEngine(smr)
        self.tagging = TaggingSystem()
        self.app = create_app(self.engine, tagging=self.tagging)

    def call(self, environ: Dict[str, Any]) -> Tuple[int, bytes]:
        status: List[str] = []
        body = b"".join(self.app(environ, lambda s, h, e=None: status.append(s)))
        return int(status[0].split(" ", 1)[0]), body

    def cache_counts(self) -> Dict[str, int]:
        stats = self.engine.cache.stats
        return {"hits": stats.hits, "misses": stats.misses, "stale": stats.stale}


def get(path: str, params: Optional[Dict[str, str]] = None) -> Dict[str, Any]:
    return {
        "REQUEST_METHOD": "GET",
        "PATH_INFO": path,
        "QUERY_STRING": urlencode(params or {}),
        "wsgi.input": io.BytesIO(b""),
    }


def post_json(path: str, payload: Any) -> Dict[str, Any]:
    body = json.dumps(payload).encode()
    return {
        "REQUEST_METHOD": "POST",
        "PATH_INFO": path,
        "QUERY_STRING": "",
        "CONTENT_TYPE": "application/json",
        "CONTENT_LENGTH": str(len(body)),
        "wsgi.input": io.BytesIO(body),
    }


def search_env(query: str) -> Dict[str, Any]:
    return get("/api/search", {"q": query})


# ----------------------------------------------------------------------
# Operations (each returns what the checks need; timing is the caller's)
# ----------------------------------------------------------------------


def do_search(target: Target, environ: Dict[str, Any], tracer) -> Tuple[int, bytes]:
    with tracer.span("web.search"):
        return target.call(environ)


def do_tag(target: Target, op: Op, tracer) -> Tuple[int, int, bytes]:
    """Tag a page, then fetch the tag cloud: one user action."""
    post = post_json("/api/tags", {"page": op.page, "tag": op.tag})
    cloud = get("/api/tags/cloud")
    with tracer.span("web.tag"):
        post_status, _ = target.call(post)
        cloud_status, body = target.call(cloud)
    return post_status, cloud_status, body


def check_tag(op: Op, post_status: int, cloud_status: int, body: bytes) -> List[str]:
    if post_status not in (200, 201) or cloud_status != 200:
        return [f"HTTP {post_status}/{cloud_status}"]
    tags = {entry["tag"]: entry["count"] for entry in json.loads(body)["tags"]}
    if tags.get(op.tag, 0) < 1:
        return [f"tag {op.tag!r} missing from the cloud"]
    return []


def make_searchable(
    target: Target, probes: List[str], rec: Record, tracer
) -> List[Tuple[int, bytes]]:
    """First rank plus one search per constraint type; returns the probes' responses."""
    target.engine.ranker.scores()
    return run_searches(target, probes, rec, tracer)


def run_searches(
    target: Target, queries: List[str], rec: Record, tracer
) -> List[Tuple[int, bytes]]:
    """Issue ``queries`` one by one (untimed: set-up and load probes)."""
    responses = [do_search(target, search_env(query), tracer) for query in queries]
    rec.attempted += len(queries)
    for query, (status, _) in zip(queries, responses):
        if status != 200:
            rec.fail(f"search {query!r}", [f"HTTP {status}"])
    return responses


def write(smr, event, rec: Record, tracer, timed: bool = True) -> bool:
    """Apply one mutation event; ``timed`` records it as a write sample."""
    began = _now()
    try:
        with tracer.span("op.write"):
            event.apply(smr)
        done = True
    except Exception as exc:  # noqa: BLE001 — counted as a failed operation
        rec.fail(f"write {event.title!r}", [repr(exc)])
        done = False
    if timed:
        rec.latencies["write"].append(_now() - began)
    return done


def apply_writes(smr, events, rec: Record, tracer) -> None:
    """Apply set-up events (untimed)."""
    for event in events:
        write(smr, event, rec, tracer, timed=False)
    rec.attempted += len(events)


def check_writes(smr, events, rec: Record) -> None:
    """Each written page now carries its last event's annotations."""
    last = {event.title: event for event in events}
    for title, event in last.items():
        if smr.annotations(title) != list(event.annotations):
            rec.fail(f"write {title!r}", ["annotations did not land"])


def warm_tags(target: Target, rec: Record) -> None:
    """The Parser imports property values as tags; the first cloud builds."""
    target.tagging.sync_from_smr(target.smr, TAG_PROPERTIES)
    status, _ = target.call(get("/api/tags/cloud"))
    rec.attempted += 1
    if status != 200:
        rec.fail("tag cloud", [f"HTTP {status}"])


def finish_setup(rec: Record, start: float) -> None:
    gc.collect()
    rec.setup_s.append(_now() - start)


def load_from_corpus(inputs: Inputs, rec: Record, tracer) -> SensorMetadataRepository:
    """The corpus load of a set-up (pages with their links)."""
    with tracer.span("op.corpus_load"):
        smr = SensorMetadataRepository.from_corpus(inputs.corpus)
    rec.attempted += 1
    return smr


def check_load_report(kind: str, records: List[Dict[str, Any]], report) -> List[str]:
    """Every record of a valid batch loaded, and no row reported an error."""
    if report.errors or report.loaded != len(records) or report.attempted != len(records):
        return [f"{kind}: {report.summary()} of {len(records)} records"]
    return []


def bulk_load(corpus, rec: Record, tracer, timed: bool = True) -> SensorMetadataRepository:
    """Load ``corpus`` kind by kind through ``BulkLoader.load_records``."""
    smr = SensorMetadataRepository()
    loader = BulkLoader(smr)
    problems = []
    start = _now()
    with tracer.span("op.load"):
        for kind in KIND_ORDER:
            records = corpus.records_of(kind)
            report = loader.load_records(kind, records)
            problems.extend(check_load_report(kind, records, report))
    if timed:
        rec.loads.append((smr.page_count, _now() - start))
    rec.attempted += 1
    if problems:
        rec.fail("bulk load", problems)
    return smr


def set_up(inputs: Inputs, rec: Record, tracer) -> Target:
    """The workload's set-up, :data:`SETUPS` times; returns the last.

    Load the corpus, apply the set-up observations (query only), rank,
    run one probe search per constraint type, import tags and build the
    first tag cloud. Each earlier instance is released before the next
    is built, so set-ups do not overlap in memory.
    """
    target = None
    for _ in range(SETUPS[inputs.workload]):
        target = None
        gc.collect()
        start = _now()
        smr = load_from_corpus(inputs, rec, tracer)
        apply_writes(smr, inputs.observations, rec, tracer)
        target = Target(smr)
        smr = None
        make_searchable(target, inputs.probes, rec, tracer)
        warm_tags(target, rec)
        finish_setup(rec, start)
    return target


class BatchLoads:
    """The load operation both workloads interleave with their others.

    A data manager bulk-loads the batch records kind by kind into an
    empty repository through ``BulkLoader.load_records``, and the clock
    runs on until the data is searchable: the first rank plus one search
    per constraint type. The time to searchable counts from the start of
    the load, so a full collection the load sets off counts the same
    whether it lands in the load or after it. Each load replaces the
    previous batch repository, which ``target`` holds until the next load.
    """

    def __init__(self, inputs: Inputs, rec: Record, tracer):
        self.inputs, self.rec, self.tracer = inputs, rec, tracer
        self.target: Optional[Target] = None
        self.first: Optional[List[Dict[str, Any]]] = None  # first load's probe answers

    def load(self, timed: bool = True) -> List[Tuple[int, bytes]]:
        """One load until searchable; returns the probes' responses."""
        self.target = None  # release the previous batch first
        start = _now()
        smr = bulk_load(self.inputs.batch, self.rec, self.tracer, timed)
        self.target = Target(smr)
        responses = make_searchable(self.target, self.inputs.probes, self.rec, self.tracer)
        if timed:
            self.rec.searchable_s.append(_now() - start)
        return responses

    def check(self, responses: List[Tuple[int, bytes]]) -> None:
        """The probes answer as they did after the first load."""
        payloads = [oracle.decode(body) if status == 200 else None for status, body in responses]
        if self.first is None:
            self.first = payloads
            return
        for query, payload, first in zip(self.inputs.probes, payloads, self.first):
            problems = oracle.compare_payloads(payload, first) if payload and first else []
            if problems:
                self.rec.fail(f"search {query!r} after a load vs the first load", problems)

    def check_reference(self) -> None:
        """The first load's answers equal a ``from_corpus`` repository's."""
        reference = Target(SensorMetadataRepository.from_corpus(self.inputs.batch))
        reference.engine.ranker.scores()
        for query, payload in zip(self.inputs.probes, self.first or []):
            want = oracle.decode(reference.call(search_env(query))[1])
            problems = oracle.compare_payloads(payload, want) if payload else []
            if problems:
                self.rec.fail(f"search {query!r} after a load vs from_corpus", problems)

    def warm_up(self) -> None:
        """One untimed load: starts the loader's worker pool before the clock."""
        self.check(self.load(timed=False))


def collect_before_load(op: Op) -> None:
    """A full collection before each batch load, with the clock paused.

    The full collections inside a load are then the ones its own
    allocations set off, not one the operations before it left pending;
    otherwise whether a collection lands in a load varies with the seed.
    """
    if op.kind == "load":
        gc.collect()


def closed_loop(
    ops: List[Op],
    seconds: float,
    run_op: Callable[[Op], Any],
    check_op: Callable[[Op, Any], None],
    rec: Record,
    tracer,
) -> None:
    """Run ``ops`` in order for ``seconds`` of operations (traced, if tracing).

    ``run_op`` performs one operation and returns its outcome;
    ``check_op`` checks that outcome before the next operation starts, so
    no response is kept for later. Checking time, and the collection
    :func:`collect_before_load` makes, are left out of ``rec.elapsed``
    and move the deadline by as much. Running out of ``ops`` before the
    deadline fails the run: its length would then differ between two
    programs of different speed.
    """
    tracer.install()
    try:
        checking = 0.0
        start = _now()
        deadline = start + seconds
        done = 0
        for op in ops:
            began = _now()
            if began >= deadline:
                break
            collect_before_load(op)
            spent = _now() - began
            checking += spent
            deadline += spent
            outcome = run_op(op)
            done += 1
            began = _now()
            check_op(op, outcome)
            spent = _now() - began
            checking += spent
            deadline += spent
        rec.elapsed = _now() - start - checking
    finally:
        tracer.uninstall()
    rec.ops = done
    rec.attempted += done
    if done == len(ops) and rec.elapsed < seconds:
        rec.fail(
            "schedule",
            [f"all {done} operations done after {rec.elapsed:.1f} s of {seconds} s"],
        )


def _cache_delta(rec: Record, before: Dict[str, int], after: Dict[str, int]) -> None:
    for key, value in after.items():
        rec.cache[key] += value - before[key]


def timed_op(target: Target, op: Op, rec: Record, tracer) -> Any:
    """One search or tag-then-cloud, timed into its latency samples.

    Returns ``(status, body)`` for a search and ``(post_status,
    cloud_status, body)`` for a tag; an exception becomes status 0.
    """
    environ = search_env(op.query) if op.kind == "search" else None
    began = _now()
    try:
        if op.kind == "search":
            outcome = do_search(target, environ, tracer)
        else:
            outcome = do_tag(target, op, tracer)
    except Exception as exc:  # noqa: BLE001 — counted as failed
        outcome = (0, repr(exc).encode()) if op.kind == "search" else (0, 0, b"")
    rec.latencies[op.kind].append(_now() - began)
    return outcome


# ----------------------------------------------------------------------
# query: read-only searches over a corpus larger than the result cache
# ----------------------------------------------------------------------

#: The oracle checks the first answer of this many distinct queries (a
#: fixed sample: the first ones of the seeded schedule). Every other
#: answer is compared with the first answer to the same query by digest.
ORACLE_SAMPLE = 256


def _payload_digest(payload: Dict[str, Any]) -> bytes:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).digest()


def run_query(inputs: Inputs, seconds: float, tracer) -> Tuple[Record, Callable[[], None]]:
    rec = Record()
    target = set_up(inputs, rec, tracer)
    loads = BatchLoads(inputs, rec, tracer)
    loads.warm_up()
    # The schedule's writes go to the batch loaded before the clock, so
    # the searched repository stays read-only and keeps its cache. (The
    # first write to a freshly loaded batch takes ~4x longer than the
    # rest; writing to each new load would put a seed-dependent share of
    # first writes at the 90th percentile.)
    spare = loads.target.smr
    gc.collect()

    def run_op(op: Op) -> Any:
        if op.kind == "load":
            return loads.load()
        if op.kind == "write":
            return write(spare, op.event, rec, tracer)
        return timed_op(target, op, rec, tracer)

    digests: Dict[str, bytes] = {}
    sample: List[Tuple[str, bytes]] = []  # (query, first response body)

    def check_op(op: Op, outcome: Any) -> None:
        if op.kind == "load":
            loads.check(outcome)
            return
        if op.kind == "write":
            if outcome:
                check_writes(spare, [op.event], rec)
            return
        if op.kind == "tag":
            problems = check_tag(op, *outcome)
        else:
            status, body = outcome
            problems = [f"HTTP {status}"] if status != 200 else []
            if not problems:
                payload = oracle.decode(body)
                digest = _payload_digest(payload)
                if op.query not in digests:
                    digests[op.query] = digest
                    if len(sample) < ORACLE_SAMPLE:
                        sample.append((op.query, body))
                elif digest != digests[op.query]:
                    problems = ["repeated query answered differently"]
        if problems:
            rec.fail(f"{op.kind} {op.query or op.tag!r}", problems)

    before = target.cache_counts()
    closed_loop(inputs.ops, seconds, run_op, check_op, rec, tracer)
    _cache_delta(rec, before, target.cache_counts())

    def check() -> None:
        check_writes(target.smr, inputs.observations, rec)
        loads.check_reference()
        snapshot = oracle.Snapshot.of_repository(target.smr)
        pagerank = target.engine.ranker.scores()
        for query, body in sample:
            problems = oracle.check_search(snapshot, query, oracle.decode(body), pagerank)
            if problems:
                rec.fail(f"search {query!r}", problems)

    return rec, check


# ----------------------------------------------------------------------
# live: writes interleaved with searches from a small standing set
# ----------------------------------------------------------------------


def run_live(inputs: Inputs, seconds: float, tracer) -> Tuple[Record, Callable[[], None]]:
    from repro.core.query import parse_query

    rec = Record()
    target = set_up(inputs, rec, tracer)
    loads = BatchLoads(inputs, rec, tracer)
    loads.warm_up()
    gc.collect()

    applied = []

    def run_op(op: Op) -> Any:
        if op.kind == "load":
            return loads.load()
        if op.kind == "write":
            if write(target.smr, op.event, rec, tracer):
                applied.append(op.event)
            return None
        return timed_op(target, op, rec, tracer)

    def check_op(op: Op, outcome: Any) -> None:
        if op.kind == "load":
            loads.check(outcome)
            return
        if op.kind == "write":
            return  # checked against the rebuild after the run
        if op.kind == "tag":
            problems = check_tag(op, *outcome)
        else:
            status, body = outcome
            problems = [f"HTTP {status}"] if status != 200 else []
            if not problems:
                problems = oracle.check_order(
                    parse_query(op.query), oracle.decode(body)["results"]
                )
        if problems:
            rec.fail(f"{op.kind} {op.query or op.tag!r}", problems)

    before = target.cache_counts()
    closed_loop(inputs.ops, seconds, run_op, check_op, rec, tracer)
    _cache_delta(rec, before, target.cache_counts())

    def check() -> None:
        loads.check_reference()
        # The live repository must agree with a rebuild from scratch:
        # the same corpus and the same events, replayed into a new one.
        replay = SensorMetadataRepository.from_corpus(inputs.corpus)
        for event in applied:
            event.apply(replay)
        rebuilt = Target(replay)
        for query in inputs.standing:
            rec.attempted += 1
            environ_live, environ_rebuilt = search_env(query), search_env(query)
            (status_a, body_a), (status_b, body_b) = (
                target.call(environ_live),
                rebuilt.call(environ_rebuilt),
            )
            if status_a != 200 or status_b != 200:
                rec.fail(f"standing {query!r}", [f"HTTP {status_a}/{status_b}"])
                continue
            problems = oracle.compare_payloads(oracle.decode(body_a), oracle.decode(body_b))
            if problems:
                rec.fail(f"standing {query!r} vs rebuild", problems)

    return rec, check


WORKLOADS: Dict[str, Callable] = {"query": run_query, "live": run_live}
