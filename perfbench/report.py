"""Metric names, summary statistics and the result line of the benchmark."""

import json
import statistics

# Measured untraced (`--trace 0`), on every workload, and gated by the bounds
# in BENCHMARK.json.  The times are rescaled to a reference host speed by the
# calibration task run between invocations (see run.py): on a shared host,
# other tenants make every time up to about twice as long, for minutes at a
# time, and the raw times move with them.
END_TO_END = {
    "setup_s": "s",
    "wall_norm_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}

# Measured untraced on every workload, printed, and not gated.
PRINTED = {
    "setup_raw_s": "s",
    "calib_p50_ms": "ms",
    "wall_p50_ms": "ms",
    "queries_per_s": "1/s",
    "facts_per_s": "1/s",
}

# Measured by the traced run (`--trace 1`), on every workload.
PER_LAYER = {
    "io.load_program_ms": "ms",
    "io.load_instance_ms": "ms",
    "io.facts_parsed": "count",
    "analysis.check_ms": "ms",
    "analysis.diagnostics": "count",
    "rewrite.ms": "ms",
    "rewrite.strip_dead_ms": "ms",
    "rewrite.magic_rules": "count",
    "rewrite.rules_removed": "count",
    "engine.lower_ms": "ms",
    "engine.rule_firings": "count",
    "engine.derived_facts": "count",
    "engine.emit_memo_hits": "count",
    "engine.instructions": "count",
    "engine.index_probes": "count",
    "engine.scans": "count",
    "engine.fused_probes": "count",
    "engine.iterations": "count",
    "engine.strata": "count",
    "engine.stratum0_ms": "ms",
    "engine.useful_ratio": "ratio",
    "engine.ns_per_firing": "ns",
    "exec.run_ms": "ms",
    "exec.cpu_ms": "ms",
    "exec.cpu_util": "ratio",
    "exec.delta_shards": "count",
    "core.store_paths": "count",
    "core.store_kib": "KiB",
    "cli.command_ms": "ms",
    "cli.unattributed_ms": "ms",
    "proc.outside_ms": "ms",
    "trace.overhead_ms": "ms",
}

# Layer spans whose self times make up `cli.command_ms` together with
# `cli.unattributed_ms`.  `engine.lower` is left out: `exec.run` lowers the
# program again inside `run_with_stats`, so that work is already counted there.
ATTRIBUTED_SPANS = (
    "io.load_program",
    "io.load_instance",
    "analysis.check",
    "rewrite.magic",
    "rewrite.strip_dead",
    "exec.run",
)


def percentile(values, pct):
    """The `pct`-th percentile (1 to 99), interpolated between the two
    nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def attribution(wall_ms, command_ms, self_ms):
    """Split the wall time of one `perfbench-layers cli` process, which spent
    `command_ms` inside `run_cli`, into the layers' self times, the part of
    `run_cli` no layer accounts for, and the part outside `run_cli`.

    Returns `(attributed, unattributed, outside)`; `outside` is measured on
    the same process as `command_ms`, and `unattributed` is what is left of
    `command_ms`, so `attributed + unattributed + outside == wall_ms`.
    """
    attributed = sum(self_ms.get(name, 0.0) for name in ATTRIBUTED_SPANS)
    return attributed, command_ms - attributed, wall_ms - command_ms


def result_line(correct, attempted, failed, values, units):
    """The benchmark's last stdout line: one JSON object."""
    metrics = {}
    for name, unit in units.items():
        value = values[name]
        metrics[name] = {"value": value, "unit": unit}
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted),
         "failed": int(failed), "metrics": metrics},
        ensure_ascii=True, allow_nan=False,
    )
