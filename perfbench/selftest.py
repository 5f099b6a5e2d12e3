"""Small-scale self-test of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload of ``BENCHMARK.json`` on a tiny corpus for one
second, untraced and traced, and checks that each prints every metric
the file names, with its unit, and reports correct outputs. It then
feeds deliberately corrupted search results and a wrong bulk-load report
through the output checks, which must reject them. Exits 0 when every
check passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from typing import List

ROOT = os.getcwd()
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

TINY = dict(deployments=3, stations=10, sensors=120)


def check_metric_names(spec, failures: List[str]) -> None:
    from perfbench import inputs, run

    for name in inputs.SIZES:
        inputs.SIZES[name] = dict(TINY)
    # A tiny corpus is searched far faster than the schedules provide for.
    inputs._QUERY_OPS_PER_SECOND *= 40
    inputs._LIVE_PAIRS_PER_SECOND *= 40
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
                )
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} --trace {trace}"
            if code != 0:
                failures.append(f"{where}: exit code {code}")
            if printed != expected:
                failures.append(f"{where}: metrics {sorted(set(printed) ^ set(expected))} differ")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: {json.loads(lines[-2])['detail']['problems']}")


def check_checks_can_fail(failures: List[str]) -> None:
    from repro.smr.bulkload import BulkLoadReport
    from repro.smr.repository import SensorMetadataRepository
    from repro.workloads.generator import CorpusSpec, generate_corpus

    from perfbench import oracle, run, workloads

    corpus = generate_corpus(CorpusSpec(seed=5, **TINY))
    target = workloads.Target(SensorMetadataRepository.from_corpus(corpus))
    pagerank = target.engine.ranker.scores()
    snapshot = oracle.Snapshot.of_repository(target.smr)
    query = "keyword=temperature kind=sensor sort=pagerank limit=5"
    status, body = target.call(workloads.search_env(query))
    good = oracle.decode(body)
    if status != 200 or len(good["results"]) < 3:
        failures.append(f"self-test query returned HTTP {status}, {good.get('results')}")
        return
    if oracle.check_search(snapshot, query, good, pagerank):
        failures.append(f"oracle rejects a correct result: {oracle.check_search(snapshot, query, good, pagerank)}")
    outsider = next(t for t in snapshot.pages if not t.startswith("Sensor:"))
    corruptions = {
        "dropped result": lambda p: p["results"].pop(),
        "wrong total": lambda p: p.__setitem__("total_candidates", p["total_candidates"] + 1),
        "non-matching page": lambda p: p["results"][0].__setitem__("title", outsider),
        "swapped order": lambda p: p["results"].reverse(),
        "wrong annotation": lambda p: p["results"][1]["annotations"].__setitem__("name", "x"),
    }
    for name, corrupt in corruptions.items():
        bad = copy.deepcopy(good)
        corrupt(bad)
        if not oracle.check_search(snapshot, query, bad, pagerank):
            failures.append(f"oracle accepts a search result with a {name}")
        if not oracle.compare_payloads(bad, good):
            failures.append(f"rebuild comparison accepts a result with a {name}")
    if oracle.compare_payloads(copy.deepcopy(good), good):
        failures.append("rebuild comparison rejects identical results")

    records = corpus.records_of("station")
    right = BulkLoadReport(loaded=len(records))
    wrong = BulkLoadReport(loaded=len(records) - 1, errors=[(2, "invalid latitude")])
    if workloads.check_load_report("station", records, right):
        failures.append("load check rejects a correct report")
    if not workloads.check_load_report("station", records, wrong):
        failures.append("load check accepts a report with a failed row")
    run.stop_workers()


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures: List[str] = []
    check_checks_can_fail(failures)
    check_metric_names(spec, failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
