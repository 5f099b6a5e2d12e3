"""Seeded inputs for every workload, generated in full before any clock starts.

Everything a workload feeds the program — the corpus, the mutation
events, the search strings, the tag operations — comes from here and is
a pure function of the workload name and ``--seed``. ``digest`` hashes
it all, so two runs that report the same digest drove the program with
identical inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.query import parse_query
from repro.workloads import names
from repro.workloads.generator import CorpusSpec, SyntheticCorpus, generate_corpus
from repro.workloads.stream import MutationEvent, MutationStream

from perfbench.oracle import Snapshot

#: Corpus size per workload (pages ~= sensors + stations + deployments + 18).
SIZES: Dict[str, Dict[str, int]] = {
    "query": dict(deployments=25, stations=100, sensors=5000),
    "live": dict(deployments=12, stations=50, sensors=2000),
    # The batch both workloads bulk-load into an empty repository.
    "batch": dict(deployments=8, stations=40, sensors=1000),
}

#: Observations applied in each query set-up, so the SPARQL path has data.
QUERY_SETUP_OBSERVATIONS = 40
#: The properties the tagging Parser imports from the repository as tags.
TAG_PROPERTIES = ["sensor_type", "manufacturer", "status", "project"]
TAG_WORDS = [
    "calibrated", "needs-review", "alpine", "high-altitude", "winter-2010",
    "glacier", "permafrost", "avalanche", "hydrology", "snowpack", "offline-2009",
    "field-campaign", "long-term", "validated", "prototype", "maintenance-due",
]

# Operations per second of run time the schedules provide for: five
# times the rate measured on a 2-CPU box, so a faster program does not
# run out of inputs.
_QUERY_OPS_PER_SECOND = 150
_LIVE_PAIRS_PER_SECOND = 40

#: A batch load after every this many 24-operation query blocks, and
#: after every this many live write/search pairs: some ten loads in a
#: 40 s run on a 2-CPU box, spread over the whole run.
QUERY_BLOCKS_PER_LOAD = 5
LIVE_PAIRS_PER_LOAD = 15

# Topical keywords: each matches a few percent of the pages, never most
# of them (so no single keyword dominates the latency distribution).
KEYWORDS = sorted(
    {word for phrase in names.SENSOR_TYPES for word in phrase.split()}
    | {phrase.split()[0].lower() for phrase in names.MANUFACTURERS}
    | {site.split()[0].lower() for site in names.FIELD_SITES}
    | {project.split()[0].lower() for project in names.PROJECTS}
    | {prefix.lower() for prefix in names.STATION_PREFIXES}
)

#: The Fig. 7 query shapes every search workload covers.
SHAPES = (
    "keyword",
    "keyword_kind_pagerank",
    "sql_eq",
    "sql_range",
    "bbox_kind",
    "keyword_filter",
    "relaxed",
    "sparql",
)

_EQ_FILTERS: List[Tuple[str, List[Any]]] = [
    ("sensor_type", list(names.SENSOR_TYPES)),
    ("manufacturer", list(names.MANUFACTURERS)),
    ("status", ["online", "offline", "active", "completed", "maintenance"]),
    ("project", list(names.PROJECTS)),
    ("installed_year", list(range(2005, 2011))),
    ("sampling_rate_s", [1, 10, 30, 60, 300, 600]),
]


@dataclass(frozen=True)
class Op:
    """One timed operation: a search, a write, a tag-then-cloud, or a batch load."""

    kind: str  # "search" | "write" | "tag" | "load"
    query: str = ""
    event: Optional[MutationEvent] = None
    page: str = ""
    tag: str = ""


@dataclass
class Inputs:
    """Everything one run feeds the program."""

    workload: str
    seed: int
    corpus: SyntheticCorpus
    probes: List[str]
    #: The records every batch load loads (no page links: see without_page_links).
    batch: SyntheticCorpus
    ops: List[Op] = field(default_factory=list)
    observations: List[MutationEvent] = field(default_factory=list)
    #: live's standing searches.
    standing: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        """SHA-256 over every input, in generation order."""
        h = hashlib.sha256()
        for corpus in (self.corpus, self.batch):
            h.update(json.dumps(corpus.records, sort_keys=True, default=repr).encode())
            h.update(repr((corpus.page_links, corpus.semantic_links)).encode())
        for part in (self.probes, self.ops, self.observations, self.standing):
            h.update(repr(part).encode())
        return h.hexdigest()


def without_page_links(corpus: SyntheticCorpus) -> SyntheticCorpus:
    """``corpus`` without free-form page links: what a bulk load carries.

    ``BulkLoader`` records have no link field, so a repository built by
    ``from_corpus`` from this copy holds exactly what a bulk load of the
    same records holds.
    """
    return dataclasses.replace(corpus, page_links=[])


def _corpus(workload: str, seed: int) -> SyntheticCorpus:
    return generate_corpus(CorpusSpec(seed=seed, **SIZES[workload]))


def _limit_clause(rng: random.Random) -> str:
    clause = f"limit={rng.randint(5, 50)}"
    if rng.random() < 0.25:
        clause += f" offset={rng.choice([5, 10, 20])}"
    return clause


def _eq_filter(rng: random.Random) -> str:
    prop, values = rng.choice(_EQ_FILTERS)
    return f"{prop}={rng.choice(values)}"


def _range_filter(rng: random.Random) -> str:
    choice = rng.randrange(4)
    if choice == 0:
        return f"elevation_m{rng.choice(['>=', '<='])}{rng.randrange(500, 4000, 10)}"
    if choice == 1:
        return f"accuracy{rng.choice(['<', '>'])}{round(rng.uniform(0.1, 1.9), 2)}"
    if choice == 2:
        return f"installed_year{rng.choice(['>=', '<='])}{rng.randint(2005, 2010)}"
    return f"start_year{rng.choice(['>=', '<='])}{rng.randint(2004, 2010)}"


def _bbox(rng: random.Random) -> str:
    south = round(rng.uniform(45.8, 46.7), 3)
    west = round(rng.uniform(6.8, 9.6), 3)
    north = round(south + rng.uniform(0.2, 0.8), 3)
    east = round(west + rng.uniform(0.3, 1.5), 3)
    return f"bbox={south},{west},{north},{east}"


def make_query(shape: str, rng: random.Random) -> str:
    """One compact query string of ``shape`` with seeded values."""
    if shape == "keyword":
        body = f"keyword={rng.choice(KEYWORDS)}"
    elif shape == "keyword_kind_pagerank":
        kind = rng.choice(["sensor", "station", "deployment"])
        body = f"keyword={rng.choice(KEYWORDS)} kind={kind} sort=pagerank"
    elif shape == "sql_eq":
        body = _eq_filter(rng)
    elif shape == "sql_range":
        body = _range_filter(rng)
    elif shape == "bbox_kind":
        body = f"kind={rng.choice(['station', 'field_site'])} {_bbox(rng)}"
    elif shape == "keyword_filter":
        flt = _eq_filter(rng) if rng.random() < 0.5 else _range_filter(rng)
        body = f"keyword={rng.choice(KEYWORDS)} {flt}"
    elif shape == "relaxed":
        sensor_type = rng.choice(names.SENSOR_TYPES)
        manufacturer = rng.choice(names.MANUFACTURERS)
        body = f"sensor_type={sensor_type} manufacturer={manufacturer}"
        if rng.random() < 0.5:
            body += f" installed_year>={rng.randint(2006, 2010)}"
        body += " relaxed=true"
    elif shape == "sparql":
        threshold = round(rng.uniform(-20.0, 40.0), 1)
        body = f"last_value{rng.choice(['>', '<', '>=', '<='])}{threshold}"
        if rng.random() < 0.5:
            body += " kind=sensor sort=pagerank"
    else:
        raise ValueError(f"unknown query shape {shape!r}")
    return f"{body} {_limit_clause(rng)}"


#: One search per constraint type -- keyword, SQL, SPARQL, bbox -- that
#: makes a freshly loaded repository count as searchable. Fixed across
#: seeds, so their cost varies only with the corpus.
PROBES = [
    "keyword=wind",
    "sensor_type=snow height",
    "last_value>0",
    "kind=station bbox=45.8,6.8,47.0,10.5",
]


def _tag_op(rng: random.Random, titles: List[str]) -> Op:
    return Op("tag", page=rng.choice(titles), tag=rng.choice(TAG_WORDS))


def _zipf_rank(rng: random.Random, n: int) -> int:
    """A rank in ``[0, n)`` with P(r) roughly proportional to 1/(r+1)."""
    return min(n - 1, int(math.exp(rng.random() * math.log(n + 1))) - 1)


def query_schedule(
    rng: random.Random, titles: List[str], stream: MutationStream, seconds: int
) -> List[Op]:
    """Blocks of 24: 13 new searches, 6 repeats, 1 tag, 4 writes, in seeded order.

    New searches cycle through :data:`SHAPES` in a fresh seeded
    permutation every eight, so each shape is an exact share of the
    misses. A repeat re-issues an earlier query, earlier (more popular)
    ones more often, Zipf-like; with no write in between it is a cache
    hit unless the result cache has evicted it. Fixing the shares per
    block keeps the repeat share -- and with it which mode the median
    falls in -- the same however many operations a run completes. The writes are observations from ``stream`` (over
    the batch corpus); the workload applies them to the batch loaded
    before the clock, not to the searched repository. A batch load
    follows every :data:`QUERY_BLOCKS_PER_LOAD` blocks.
    """
    ops: List[Op] = []
    issued: List[str] = []
    seen = set()
    shape_cycle: List[str] = []
    blocks = max(1, seconds * _QUERY_OPS_PER_SECOND // 24)
    events = iter(stream.events(4 * blocks))
    for block in range(blocks):
        slots = ["new"] * 13 + ["repeat"] * 6 + ["tag"] + ["write"] * 4
        rng.shuffle(slots)
        for slot in slots:
            if slot == "tag":
                ops.append(_tag_op(rng, titles))
                continue
            if slot == "write":
                ops.append(Op("write", event=next(events)))
                continue
            if slot == "repeat" and issued:
                ops.append(Op("search", query=issued[_zipf_rank(rng, len(issued))]))
                continue
            if not shape_cycle:
                shape_cycle = list(SHAPES)
                rng.shuffle(shape_cycle)
            shape = shape_cycle.pop()
            for _attempt in range(50):
                text = make_query(shape, rng)
                if text not in seen:
                    break
            seen.add(text)
            issued.append(text)
            ops.append(Op("search", query=text))
        if block % QUERY_BLOCKS_PER_LOAD == QUERY_BLOCKS_PER_LOAD - 1:
            ops.append(Op("load"))
    return ops


def live_schedule(
    rng: random.Random, events: List[MutationEvent], standing: List[str], titles: List[str]
) -> List[Op]:
    """Write, search, write, search, ... with a tag op after every 2 pairs.

    Of every 20 searches exactly 3 are SPARQL standing queries, so the
    90th percentile falls inside the SPARQL (RDF re-export) mode rather
    than on the boundary between modes. A batch load follows every
    :data:`LIVE_PAIRS_PER_LOAD` pairs.
    """
    sparql = [q for q in standing if q.startswith("last_value")]
    others = [q for q in standing if not q.startswith("last_value")]
    ops: List[Op] = []
    kinds: List[bool] = []
    for index, event in enumerate(events):
        if index % 20 == 0:
            kinds = [True] * 3 + [False] * 17
            rng.shuffle(kinds)
        ops.append(Op("write", event=event))
        query = rng.choice(sparql) if kinds[index % 20] else rng.choice(others)
        ops.append(Op("search", query=query))
        if index % 2 == 1:
            ops.append(_tag_op(rng, titles))
        if index % LIVE_PAIRS_PER_LOAD == LIVE_PAIRS_PER_LOAD - 1:
            ops.append(Op("load"))
    return ops


def standing_queries(rng: random.Random, corpus: SyntheticCorpus, per_shape: int) -> List[str]:
    """``per_shape`` distinct queries per shape, each matching pages of ``corpus``.

    A search with no candidates skips ranking entirely, so letting the
    share of empty queries vary with the seed would move the median.
    SPARQL queries are exempt: ``last_value`` exists only once the
    stream's observations land.
    """
    snapshot = Snapshot.of_corpus(corpus)
    standing: List[str] = []
    for shape in SHAPES:
        for _ in range(per_shape):
            for _attempt in range(100):
                text = make_query(shape, rng)
                if text in standing:
                    continue
                if shape == "sparql" or snapshot.expected(parse_query(text))[0]:
                    break
            standing.append(text)
    return standing


def generate(workload: str, seed: int, seconds: int) -> Inputs:
    """All inputs of one run of ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    corpus = _corpus(workload, seed)
    batch = without_page_links(_corpus("batch", seed + 1))
    if workload == "query":
        stream = MutationStream(
            corpus, seed=seed, observe_weight=1.0, edit_weight=0.0, create_weight=0.0
        )
        batch_stream = MutationStream(
            batch, seed=seed, observe_weight=1.0, edit_weight=0.0, create_weight=0.0
        )
        return Inputs(
            workload,
            seed,
            corpus,
            probes=list(PROBES),
            batch=batch,
            observations=stream.events(QUERY_SETUP_OBSERVATIONS),
            ops=query_schedule(rng, corpus.all_titles(), batch_stream, seconds),
        )
    if workload == "live":
        # 7 per shape: 56 distinct queries, fewer than the 256 the result
        # cache holds, so every search after a write finds a stale entry.
        standing = standing_queries(rng, corpus, 7)
        events = MutationStream(corpus, seed=seed).events(
            max(20, seconds * _LIVE_PAIRS_PER_SECOND)
        )
        return Inputs(
            workload,
            seed,
            corpus,
            probes=list(PROBES),
            batch=batch,
            standing=standing,
            ops=live_schedule(rng, events, standing, corpus.all_titles()),
        )
    raise ValueError(f"unknown workload {workload!r}")
