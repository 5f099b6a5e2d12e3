"""Run one workload of the benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload query --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the program's layers with timers and reports the
per-layer metrics instead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The line
before it (``{"detail": ...}``) carries sample counts, where each
metric's samples came from, the input digest, the environment, and the
first failed checks. Exits with status 2, printing no result, when the
current directory holds no ``src/repro`` source tree.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.getcwd()
SOURCE = os.path.join(ROOT, "src")

# Where each end-to-end metric's samples come from, per workload.
_LOADS = {
    "load": "bulk loads of the batch, spread through the timed phase",
    "searchable": "each timed bulk load, from its start until its first rank and probes end",
}
SOURCES = {
    "query": {
        "search": "timed searches",
        "write": "timed observation writes to the most recently loaded batch",
        "tag": "timed tag-then-cloud operations",
        **_LOADS,
    },
    "live": {
        "search": "timed searches",
        "write": "timed writes",
        "tag": "timed tag-then-cloud operations",
        **_LOADS,
    },
}


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rec, peak_rss_mb: float) -> Tuple[Dict, Dict]:
    """End-to-end metrics and their sample counts."""
    search = rec.latencies["search"]
    write = rec.latencies["write"]
    tag = rec.latencies["tag"]
    values = {
        "search_p50_ms": (1000 * percentile(search, 50), "ms", len(search)),
        "search_p90_ms": (1000 * percentile(search, 90), "ms", len(search)),
        "write_p50_ms": (1000 * percentile(write, 50), "ms", len(write)),
        "write_p90_ms": (1000 * percentile(write, 90), "ms", len(write)),
        "tag_p50_ms": (1000 * percentile(tag, 50), "ms", len(tag)),
        "ops_per_s": (rec.ops / rec.elapsed, "1/s", rec.ops),
        "load_records_per_s": (
            sum(n for n, _ in rec.loads) / sum(s for _, s in rec.loads),
            "1/s",
            len(rec.loads),
        ),
        # The mean over loads: a median of some ten samples jumps between
        # a load's modes, with one full collection in it or two.
        "time_to_searchable_s": (
            sum(rec.searchable_s) / len(rec.searchable_s), "s", len(rec.searchable_s)
        ),
        "setup_s": (statistics.median(rec.setup_s), "s", len(rec.setup_s)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in values.items()}
    samples = {name: n for name, (_, _, n) in values.items()}
    return metrics, samples


def per_layer(rec, tracer) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics from one traced run."""
    counts = tracer.counts
    lookups = sum(rec.cache.values())
    registers = tracer.calls("smr.register")
    plans = counts["relational.plans"]
    values = {
        "web.search_self_ms": (tracer.median_ms("web.search", own=True), "ms"),
        "engine.search_self_ms": (tracer.median_ms("engine.search", own=True), "ms"),
        "engine.candidates_per_result": (
            counts["engine.candidates"] / max(1, counts["engine.results"]),
            "count",
        ),
        "cache.hit_share": (rec.cache["hits"] / lookups if lookups else 0.0, "ratio"),
        "cache.stale_share": (rec.cache["stale"] / lookups if lookups else 0.0, "ratio"),
        "pool.dispatch_self_ms": (tracer.median_ms("pool.dispatch", own=True), "ms"),
        "pool.prepare_ms": (tracer.derived_median("pool.prepare_per_load", 1000), "ms"),
        "text.keyword_ms": (tracer.median_ms("text.keyword"), "ms"),
        "text.index_add_ms": (tracer.median_ms("text.index_add"), "ms"),
        "text.index_remove_ms": (tracer.median_ms("text.index_remove"), "ms"),
        "text.stem_calls_per_record": (
            counts["smr.register_stems"] / registers if registers else 0.0,
            "count",
        ),
        "relational.select_ms": (tracer.median_ms("relational.select"), "ms"),
        "relational.seqscan_share": (
            counts["relational.seqscans"] / plans if plans else 0.0,
            "ratio",
        ),
        "relational.write_ms": (tracer.derived_median("relational.write", 1000), "ms"),
        "rdf.sparql_ms": (tracer.median_ms("rdf.sparql"), "ms"),
        "rdf.export_ms": (tracer.median_ms("rdf.export"), "ms"),
        "rdf.exports": (tracer.calls("rdf.export"), "count"),
        "spatial.box_ms": (tracer.median_ms("spatial.box"), "ms"),
        "spatial.rebuild_inserts": (counts["spatial.rtree_inserts"], "count"),
        "ranking.recompute_ms": (tracer.median_ms("ranking.recompute"), "ms"),
        "ranking.recomputes.cold": (counts["ranking.recomputes.cold"], "count"),
        "ranking.recomputes.warm": (counts["ranking.recomputes.warm"], "count"),
        "ranking.recomputes.incremental": (
            counts["ranking.recomputes.incremental"],
            "count",
        ),
        "ranking.sweep_equivalents": (
            tracer.derived_median("ranking.sweep_equivalents"),
            "count",
        ),
        "ranking.relaxations": (tracer.derived_median("ranking.relaxations"), "count"),
        "ranking.graph_build_ms": (tracer.median_ms("ranking.graph_build"), "ms"),
        "smr.register_ms": (tracer.median_ms("smr.register"), "ms"),
        "wiki.save_ms": (tracer.median_ms("wiki.save"), "ms"),
        "smr.titles_ms": (tracer.derived_median("smr.titles_per_search", 1000), "ms"),
        "bulkload.commit_ms": (tracer.derived_median("bulkload.commit_per_load", 1000), "ms"),
        "tagging.cloud_build_ms": (tracer.median_ms("tagging.cloud_build"), "ms"),
        "trace.ops_per_s": (rec.ops / rec.elapsed, "1/s"),
        "error_rate": (rec.failed / max(1, rec.attempted), "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def environment() -> Dict[str, Any]:
    import numpy

    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus_usable = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(ROOT),
        "platform": platform.platform(),
    }


def git_sha(root: str) -> Optional[str]:
    """HEAD's commit id read from ``.git`` (None outside a git checkout)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def stop_workers() -> None:
    """Stop the program's worker threads and processes, and wait for them."""
    from multiprocessing import resource_tracker

    from repro.perf import pool, procpool

    procpool.shutdown_process_pool()
    pool.get_pool().shutdown(wait=True)
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SOURCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(
            f"perfbench: no source tree at {SOURCE}/repro; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SOURCE)
    sys.path.insert(0, ROOT)

    from perfbench import inputs as inputs_module
    from perfbench import workloads
    from perfbench.tracing import NullTracer, Tracer

    phases = {}
    started = time.perf_counter()
    inputs = inputs_module.generate(args.workload, args.seed, int(args.seconds))
    phases["inputs_s"] = time.perf_counter() - started
    # Peak RSS so far: the benchmark's own inputs, before the program runs.
    inputs_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Move the inputs out of the collector's view: the program's full
    # collections then traverse the program's objects, not the schedule.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else NullTracer()
    try:
        started = time.perf_counter()
        rec, check = workloads.WORKLOADS[args.workload](inputs, args.seconds, tracer)
        phases["run_s"] = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        started = time.perf_counter()
        check()
        phases["check_s"] = time.perf_counter() - started
    finally:
        stop_workers()

    detail: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_digest": inputs.digest,
        "environment": environment(),
        "sources": SOURCES[args.workload],
        "cache": dict(rec.cache),
        "error_rate": rec.failed / max(1, rec.attempted),
        "problems": rec.problems,
        "phases": phases,
        "inputs_rss_mb": inputs_rss_mb,
        # The individual set-up-derived samples, in the order taken.
        "setup_samples": {
            "setup_s": rec.setup_s,
            "load_s": [seconds for _, seconds in rec.loads],
            "searchable_s": rec.searchable_s,
        },
    }
    if args.trace:
        metrics = per_layer(rec, tracer)
        detail["spans"] = sum(len(samples) for samples in tracer.spans.values())
    else:
        metrics, samples = end_to_end(rec, peak_rss_mb)
        detail["samples"] = samples
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": rec.failed == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
