"""Output checks: a brute-force search oracle and result comparisons.

The oracle recomputes a search's candidate set page by page from the
repository's public read API (``titles``, ``annotations``, ``kind_of``,
``mapping``) and the same text analyzer the index uses, without
touching the inverted index, the SQL tables, the RDF graph or the
R-tree. Each check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.query import SORT_PAGERANK, SearchQuery, parse_query
from repro.smr.model import KIND_ORDER, record_class_for
from repro.smr.repository import default_schema_mapping
from repro.text.inverted_index import analyze

# Relative tolerance for comparing PageRank-derived floats between two
# repositories whose solvers took different paths (warm, incremental or
# cold) to the same fixed point; the solver tolerance is 1e-10.
SCORE_RTOL = 1e-6

_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _satisfies(value: Any, op: str, wanted: Any) -> bool:
    if value is None or op not in _COMPARE:
        return False
    if _is_number(value) != _is_number(wanted):
        return False
    return _COMPARE[op](value, wanted)


class Snapshot:
    """Every page's kind, annotations and analyzed terms, read once."""

    def __init__(self, mapping, pages: Iterable[Tuple[str, str, List[Tuple[str, Any]]]]):
        self.mapping = mapping
        self.pages: Dict[str, Tuple[str, Dict[str, Any], Set[str]]] = {}
        stems: Dict[str, List[str]] = {}
        for title, kind, pairs in pages:
            text = " ".join([title] + [str(value) for _, value in pairs])
            terms: Set[str] = set()
            for word in text.split():
                if word not in stems:
                    stems[word] = analyze(word)
                terms.update(stems[word])
            annotations = {prop.lower(): value for prop, value in pairs}
            self.pages[title] = (kind, annotations, terms)

    @classmethod
    def of_repository(cls, smr) -> "Snapshot":
        """Read through the repository's public read API.

        Page descriptions are not part of it, so keyword checks are exact
        only for pages without one (no workload checked this way edits
        descriptions).
        """
        return cls(
            smr.mapping,
            ((t, smr.kind_of(t), smr.annotations(t)) for t in smr.titles()),
        )

    @classmethod
    def of_corpus(cls, corpus) -> "Snapshot":
        """The pages a fresh load of ``corpus`` holds, from its records alone."""
        return cls(
            default_schema_mapping(),
            (
                (typed.title, kind, typed.annotations())
                for kind in KIND_ORDER
                for typed in map(record_class_for(kind).from_record, corpus.records_of(kind))
            ),
        )

    def _filter_matches(self, prop: str, op: str, value: Any) -> Set[str]:
        mapped = {
            kind
            for kind in self.mapping.kinds
            if self.mapping.column_for_property(kind, prop) is not None
        }
        prop = prop.lower()
        return {
            title
            for title, (kind, annotations, _) in self.pages.items()
            if (not mapped or kind in mapped) and _satisfies(annotations.get(prop), op, value)
        }

    def expected(self, query: SearchQuery) -> Tuple[Set[str], Dict[str, float]]:
        """The candidate set and each candidate's match degree."""
        candidates = set(self.pages)
        if query.keyword:
            terms = set(analyze(query.keyword))
            candidates = {t for t in candidates if terms & self.pages[t][2]}
        if query.kind is not None:
            candidates = {t for t in candidates if self.pages[t][0] == query.kind}
        matches = [self._filter_matches(f.prop, f.op, f.value) for f in query.filters]
        if matches:
            if query.relaxed:
                candidates &= set().union(*matches)
            else:
                for matched in matches:
                    candidates &= matched
        if query.bbox is not None:
            box = query.bbox
            inside = set()
            for title in candidates:
                annotations = self.pages[title][1]
                lat, lon = annotations.get("latitude"), annotations.get("longitude")
                if (
                    _is_number(lat)
                    and _is_number(lon)
                    and box.south <= lat <= box.north
                    and box.west <= lon <= box.east
                ):
                    inside.add(title)
            candidates = inside
        degree = {
            title: (sum(title in m for m in matches) / len(matches) if matches else 1.0)
            for title in candidates
        }
        return candidates, degree


def decode(body: bytes) -> Dict[str, Any]:
    """A search response without its per-request trace id."""
    payload = json.loads(body)
    payload.pop("trace_id", None)
    return payload


def check_order(query: SearchQuery, results: List[Dict[str, Any]]) -> List[str]:
    keys = [(r["score"], r["title"]) for r in results]
    for before, after in zip(keys, keys[1:]):
        if (before < after) if query.descending else (before > after):
            return [f"results out of score order at {after[1]!r}"]
    return []


def check_search(
    snapshot: Snapshot,
    text: str,
    payload: Dict[str, Any],
    pagerank: Optional[Dict[str, float]] = None,
) -> List[str]:
    """Problems with one search response, judged against the oracle.

    For PageRank-sorted queries, ``pagerank`` (the ranker's score map)
    also lets the oracle recompute the whole top-k page.
    """
    query = parse_query(text)
    candidates, degree = snapshot.expected(query)
    results = payload.get("results", [])
    problems = []
    if payload.get("total_candidates") != len(candidates):
        problems.append(
            f"total_candidates {payload.get('total_candidates')} != oracle {len(candidates)}"
        )
    remaining = max(0, len(candidates) - query.offset)
    wanted = remaining if query.limit is None else min(query.limit, remaining)
    if len(results) != wanted:
        problems.append(f"{len(results)} results, oracle expects {wanted}")
    for result in results:
        title = result["title"]
        if title not in candidates:
            problems.append(f"{title!r} does not satisfy the query")
            continue
        kind, annotations, _ = snapshot.pages[title]
        if result["kind"] != kind or result["annotations"] != annotations:
            problems.append(f"{title!r} kind or annotations differ from the repository")
        if result["match_degree"] != degree[title]:
            problems.append(f"{title!r} match degree {result['match_degree']} != {degree[title]}")
    problems.extend(check_order(query, results))
    if pagerank is not None and query.sort == SORT_PAGERANK and not problems:
        scored = sorted(
            ((degree[t] * pagerank.get(t, 0.0), t) for t in candidates),
            reverse=query.descending,
        )
        page = scored[query.offset :][: len(results)]
        if [t for _, t in page] != [r["title"] for r in results]:
            problems.append("top-k page differs from the oracle's PageRank order")
    return problems[:3]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=1e-12)


def compare_payloads(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Problems between two responses to one query on two repositories.

    Scores must agree position by position within :data:`SCORE_RTOL`.
    Titles must agree within each group of tied scores, except in the
    last group, which the limit may cut at different members.
    """
    if a.get("total_candidates") != b.get("total_candidates"):
        return [f"total_candidates {a.get('total_candidates')} != {b.get('total_candidates')}"]
    ra, rb = a.get("results", []), b.get("results", [])
    if len(ra) != len(rb):
        return [f"{len(ra)} results != {len(rb)}"]
    for x, y in zip(ra, rb):
        if not _close(x["score"], y["score"]):
            return [f"score {x['score']!r} != {y['score']!r} at {x['title']!r}"]
    groups: List[List[int]] = []
    for i in range(len(ra)):
        if groups and _close(ra[groups[-1][0]]["score"], ra[i]["score"]):
            groups[-1].append(i)
        else:
            groups.append([i])
    first = {r["title"]: r for r in ra}
    second = {r["title"]: r for r in rb}
    for number, group in enumerate(groups):
        titles_a = {ra[i]["title"] for i in group}
        titles_b = {rb[i]["title"] for i in group}
        if titles_a != titles_b and number != len(groups) - 1:
            return [f"tied group differs: {sorted(titles_a ^ titles_b)[:3]}"]
        for title in titles_a & titles_b:
            x, y = first[title], second[title]
            if (
                x["kind"] != y["kind"]
                or x["annotations"] != y["annotations"]
                or x["match_degree"] != y["match_degree"]
                or not _close(x["relevance"], y["relevance"])
                or not _close(x["pagerank"], y["pagerank"])
            ):
                return [f"{title!r} differs between the repositories"]
    return []
