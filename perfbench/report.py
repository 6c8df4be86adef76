"""Metrics from a finished :class:`~workloads.Run`, and how they print."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Tuple

from tracer import BENCH, LAYERS, Tracer
from workloads import Run

#: (name, unit) of every end-to-end metric, measured with tracing off
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "fraction"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("flush_p50_ms", "ms"),
]

#: (name, unit) of every per-layer metric, from the traced run
PER_LAYER: List[Tuple[str, str]] = [
    ("analyze.preflight_s", "s"),
    ("core.load_s", "s"),
    ("core.q1_s", "s"),
    ("core.merge_s", "s"),
    ("core.q3_s", "s"),
    ("core.q2_s", "s"),
    ("core.iterations", "count"),
    ("core.facts_out", "count"),
    ("core.factors_out", "count"),
    ("relational.exec_s", "s"),
    ("relational.insert_s", "s"),
    ("relational.queries", "count"),
    ("relational.rows_output", "count"),
    ("relational.rows_inserted", "count"),
    ("relational.cost_model_fold_error", "ratio"),
    ("mpp.adaptive.ground_s", "s"),
    ("mpp.static.ground_s", "s"),
    ("mpp.static.stats_s", "s"),
    ("mpp.matview_refresh_s", "s"),
    ("mpp.rows_shipped", "count"),
    ("mpp.rows_broadcast", "count"),
    ("infer.graph_s", "s"),
    ("infer.gibbs_s", "s"),
    ("infer.updates_per_s", "1/s"),
    ("infer.variables", "count"),
    ("infer.factors", "count"),
    ("infer.orphan_facts", "count"),
    ("delta.ground_s", "s"),
    ("delta.infer_s", "s"),
    ("delta.commit_s", "s"),
    ("delta.resampled_vars", "count"),
    ("delta.full_rebuild_frac", "fraction"),
    ("serve.cache_hit_rate", "fraction"),
    ("serve.query_miss_ms", "ms"),
    ("serve.lock_wait_ms", "ms"),
] + [(f"share.{layer}", "fraction") for layer in LAYERS] + [
    ("share.unattributed", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.job_s", "s"),
]


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def fold_error(modelled: float, measured: float) -> float:
    """How many times the cost model is off, either way: 1.0 when its
    seconds match the measured ones, 2.0 when it is 2x over or under."""
    if not modelled or not measured:
        return 0.0
    return max(modelled / measured, measured / modelled)


def end_to_end(run: Run) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup),
        "job_s": statistics.median(run.job),
        "peak_rss_mb": run.peak_rss_mb,
        "ops_ok_frac": 1.0 - run.failed / run.attempted,
        "query_p50_ms": statistics.median(run.query) * 1e3,
        "query_p99_ms": percentile(run.query, 99) * 1e3,
        "flush_p50_ms": statistics.median(run.flush) * 1e3,
    }


def per_layer(run: Run) -> Dict[str, float]:
    tracer: Tracer = run.tracer
    units, setups = run.traced_units, run.traced_setups
    n = len(units)
    first = units[:1]

    def per_unit(name: str) -> float:
        return tracer.total(units, name) / n

    def per_setup(name: str) -> float:
        return tracer.total(setups, name) / len(setups)

    gibbs = tracer.named(units, "infer.gibbs")
    gibbs_s = sum(span.seconds for span in gibbs)
    statements = tracer.outermost(units, "relational", ".statement") + tracer.outermost(
        units, "mpp", ".statement"
    )
    modelled = sum(clock["seconds"] for clock in run.unit_clocks)
    serve_queries = tracer.find(units, "serve.query")
    misses = tracer.named(serve_queries, "core.query_facts")
    stats = run.unit_stats[0]
    clock = run.unit_clocks[0]
    job_total = sum(tracer.spans[i].seconds for i in units)
    by_layer = tracer.self_by_layer(units)
    metrics = {
        "analyze.preflight_s": per_setup("analyze.preflight"),
        "core.load_s": per_setup("core.load"),
        "core.q1_s": per_unit("core.q1"),
        "core.merge_s": per_unit("core.merge"),
        "core.q3_s": per_unit("core.q3"),
        "core.q2_s": per_unit("core.q2"),
        "core.iterations": len(tracer.named(first, "core.merge")),
        "core.facts_out": stats["facts_out"],
        "core.factors_out": stats["factors_out"],
        "relational.exec_s": tracer.self_total(units, "relational.exec") / n,
        "relational.insert_s": per_unit("relational.insert"),
        "relational.queries": clock["queries"],
        "relational.rows_output": clock["rows_output"],
        "relational.rows_inserted": clock["rows_inserted"],
        "relational.cost_model_fold_error": fold_error(modelled, statements),
        "mpp.adaptive.ground_s": per_unit("mpp.adaptive"),
        "mpp.static.ground_s": per_unit("mpp.static"),
        "mpp.static.stats_s": per_unit("mpp.static.stats"),
        "mpp.matview_refresh_s": per_unit("mpp.matview_refresh"),
        "mpp.rows_shipped": clock["rows_shipped"],
        "mpp.rows_broadcast": clock["rows_broadcast"],
        "infer.graph_s": tracer.outermost(units, "infer", "infer.graph") / n,
        "infer.gibbs_s": gibbs_s / n,
        "infer.updates_per_s": (
            sum(span.counts.get("updates", 0) for span in gibbs) / gibbs_s
            if gibbs_s else 0.0
        ),
        "infer.variables": sum(
            span.counts.get("variables", 0) for span in tracer.named(first, "infer.gibbs")
        ),
        "infer.factors": sum(
            span.counts.get("factors", 0) for span in tracer.named(first, "infer.graph")
        ),
        "infer.orphan_facts": stats.get("orphans", 0),
        "delta.ground_s": per_unit("delta.ground"),
        "delta.infer_s": per_unit("delta.infer"),
        "delta.commit_s": per_unit("delta.commit"),
        "delta.resampled_vars": sum(
            span.counts.get("variables", 0)
            for span in tracer.named(tracer.find(first, "delta.infer"), "infer.gibbs")
        ),
        "delta.full_rebuild_frac": stats.get("full_rebuild_frac", 0.0),
        "serve.cache_hit_rate": stats.get("hit_rate", 0.0),
        "serve.query_miss_ms": (
            sum(span.seconds for span in misses) / len(misses) * 1e3 if misses else 0.0
        ),
        "serve.lock_wait_ms": per_unit("serve.lock_wait") * 1e3,
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = by_layer[layer] / job_total
    metrics["share.unattributed"] = by_layer[BENCH] / job_total
    if run.workload == "serve-delta":  # the same rounds, traced and not
        overhead = sum(run.job) / sum(run.untraced_units) - 1.0
    else:
        overhead = statistics.median(run.job) / statistics.median(run.untraced_units) - 1.0
    metrics["trace.overhead_frac"] = overhead
    metrics["trace.job_s"] = statistics.median(run.job)
    return metrics


def where_the_time_went(metrics: Dict[str, float], workload: str) -> str:
    """Self time by layer as a share of the job (flush + query time on
    serve-delta), plus the tracing overhead."""
    base = "flush + query time" if workload == "serve-delta" else "job_s"
    lines = [f"where the time went ({workload}, share of {base}):"]
    for layer in LAYERS + ("unattributed",):
        share = metrics[f"share.{layer}"]
        lines.append(f"  {layer:<13} {share * 100:6.1f}%  {'#' * round(share * 40)}")
    covered = 1.0 - metrics["share.unattributed"]
    lines.append(f"  layers cover {covered * 100:.1f}% of {base}; "
                 f"tracing overhead {metrics['trace.overhead_frac'] * 100:+.1f}%")
    return "\n".join(lines)


def table(metrics: Dict[str, float], units: Dict[str, str]) -> str:
    return "\n".join(
        f"  {name:<36} {value:>16.6g} {units[name]}" for name, value in metrics.items()
    )
