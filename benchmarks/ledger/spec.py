"""The ledger's declarations: workloads, metric names, units, bounds.

``BENCHMARK.json`` at the repository root is the driver-facing copy of
:func:`benchmark_json`; ``test_ledger_smoke.py`` asserts the two agree.
Everything the driver's schema has no room for lives only here: the
workload sizes, the workload-specific end-to-end figures (``EXTRAS``), the
per-layer metrics that exist on one workload only (``WORKLOAD_LAYERS``) and
which counts are ``exact`` (must repeat bit-for-bit under one seed).
"""

from __future__ import annotations

#: Measurement time of one driver run (``--seconds``), seconds.
RUN_SECONDS = 10

#: name -> (why, full-scale sizes).  ``why`` is copied into BENCHMARK.json.
WORKLOADS = {
    "explore_cold": (
        "1M-row in-memory column, PQ/PMSD/PB/PLSD each driven from first query "
        "to convergence: construction kernels, cost model and policy do the "
        "work, the converged path almost none",
        {"rows": 1_000_000, "selectivity": 0.01, "budget_fraction": 0.2,
         "cap": 300, "tau_seconds": 0.020, "tau_cap": 600, "cold_share": 0.8},
    ),
    "serve_converged": (
        "1M rows behind a QueryServer child over AF_UNIX, 60/30/8/2 "
        "equals/between/batch/refresh: facade, MVCC view, scheduler and JSON "
        "codec dominate, kernels idle once converged",
        {"rows": 1_000_000, "budget_fraction": 0.2, "cap": 1500,
         "batch_size": 16, "open_rate": 4000, "cold_share": 0.25},
    ),
    "durable_mixed": (
        "1M-row Database on disk, 90% reads / 10% write transactions each "
        "fsync-committed, periodic checkpoints, restart: overlay correction, "
        "MERGE folding, WAL and checkpoint beside reads",
        {"rows": 1_000_000, "budget_fraction": 0.2, "cap": 1500,
         "write_share": 0.1, "insert_rows": 20, "checkpoint_every": 150,
         "flush_policy": "fsync at commit()", "cold_share": 0.2},
    ),
    "outofcore_cold": (
        "4M rows block-compressed on disk under an 8 MiB memory budget (data "
        "4x the budget): block cache, decode and scratch spill dominate; the "
        "only workload where peak RSS is a contract",
        {"rows": 4_000_000, "memory_budget": 8 << 20, "budget_fraction": 0.2,
         "cap": 400, "cold_share": 0.7},
    ),
    "sharded_clustered": (
        "2M rows in 8 range shards, 90% of predicates on two hot shards, 10% "
        "spanning >=3: router pruning and pooled budget splitting only act "
        "here",
        {"rows": 2_000_000, "shards": 8, "hot_shards": (2, 5),
         "budget_fraction": 0.2, "cold_queries": 400, "cold_share": 0.6},
    ),
}

#: Driver-gated end-to-end metrics; every workload reports every one.
#: The bounds are what this host allows: with everything below held still,
#: ten runs of one commit still spread by 0.05-0.14 of the median (and by far
#: more while a neighbour is busy), so a bound under 0.2 would reject the
#: parent against itself.  (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("first_query_ms", "ms", "lower", 0.25),
    ("preconv_p50_ms", "ms", "lower", 0.25),
    ("converge_s", "s", "lower", 0.25),
    ("read_p50_us", "us", "lower", 0.2),
    ("read_p99_us", "us", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
]

ALL = tuple(WORKLOADS)
_EX, _SV, _DU, _OC, _SH = ALL

#: Workload-specific end-to-end figures: printed by the ledger form from the
#: untraced run and gated by ``--selfcheck``.  They are not in
#: ``BENCHMARK.json``: the driver wants every end-to-end metric from every
#: workload, and each of these exists on one or three.
#: (name, unit, better, bound, workloads)
EXTRAS = [
    ("preconv_p99_ms", "ms", "lower", 0.25, (_EX, _OC, _SH)),
    ("tau_miss_share", "share", "lower", 0.05, (_EX,)),  # absolute bound
    ("tau_converge_s", "s", "lower", 0.25, (_EX,)),
    ("open_p99_us", "us", "lower", 0.25, (_SV,)),
    ("commit_p50_us", "us", "lower", 0.2, (_DU,)),
    ("commit_p99_us", "us", "lower", 0.25, (_DU,)),
    ("checkpoint_s", "s", "lower", 0.25, (_DU,)),
    ("restart_first_answer_s", "s", "lower", 0.25, (_DU,)),
]

#: Metrics whose bound is absolute rather than relative to the median.
ABSOLUTE_BOUNDS = {"tau_miss_share"}

#: The in-process rungs of the ladder, bottom up; every workload's traced run
#: replays its own predicates at each of them.
LADDER = (
    "btree.cascade.range_query",
    "core.index.query",
    "engine.session.between",
    "engine.shared.reader_between",
    "serve.protocol.codec",
)


def _rung(stem: str) -> list:
    return [(stem + "_us", "us", "lower"), (stem + ".self_us", "us", "lower"),
            (stem + ".x_floor", "ratio", "lower")]


#: Per-layer metrics every workload measures in its traced run: these are the
#: ``per_layer`` of ``BENCHMARK.json``.  (name, unit, better)
COMMON_LAYERS = (
    [("ledger.trace_overhead_ratio", "ratio", "higher"),
     ("floor.searchsorted_us", "us", "lower")]
    + [row for stem in LADDER for row in _rung(stem)]
    + [
        ("cracking.kernels.partition_predicated_mrows_s", "Mrows/s", "higher"),
        ("cracking.kernels.partition_two_sided_mrows_s", "Mrows/s", "higher"),
        ("progressive.blocks.scatter_mrows_s", "Mrows/s", "higher"),
        ("progressive.sorter.partition_mrows_s", "Mrows/s", "higher"),
        ("core.keys.encode_mrows_s", "Mrows/s", "higher"),
    ]
)


def _per_algorithm() -> list:
    rows = []
    for acronym in ("pq", "pmsd", "pb", "plsd"):
        stem = f"progressive.{acronym}"
        rows.append((stem + ".first_query_ms", "ms", "lower", _EX, False))
        rows.append((stem + ".converge_s", "s", "lower", _EX, False))
        # Counted under a FixedDelta probe, so it repeats exactly.
        rows.append((stem + ".queries_to_converge", "count", "lower", _EX, True))
    return rows


#: Per-layer metrics that exist on one workload only; the ledger form prints
#: them from that workload's traced run.  (name, unit, better, workload, exact)
WORKLOAD_LAYERS = (
    [row + (_SV, False) for stem in ("serve.client.unix_between", "serve.client.tcp_between")
     for row in _rung(stem)]
    + [
        ("engine.batch.us_per_query", "us", "lower", _SV, False),
        ("serve.client.batch_us_per_query", "us", "lower", _SV, False),
        ("serve.client.equals_p50_us", "us", "lower", _SV, False),
        ("serve.client.refresh_p50_us", "us", "lower", _SV, False),
        ("serve.scheduler.lockfree_share", "share", "higher", _SV, False),
        ("serve.scheduler.throttled", "count", "lower", _SV, False),
        ("loadgen.lag_p99_us", "us", "lower", _SV, False),
        ("obs.tracing_on_ratio", "ratio", "higher", _SV, False),
    ]
    + _per_algorithm()
    + [
        ("core.phase.creation_s", "s", "lower", _EX, False),
        ("core.phase.creation_queries", "count", "lower", _EX, False),
        ("core.phase.refinement_s", "s", "lower", _EX, False),
        ("core.phase.refinement_queries", "count", "lower", _EX, False),
        ("core.phase.consolidation_s", "s", "lower", _EX, False),
        ("core.phase.consolidation_queries", "count", "lower", _EX, False),
        ("core.calibration.calibrate_s", "s", "lower", _EX, False),
        ("core.policy.tau_p50_ratio", "ratio", "lower", _EX, False),
        ("core.policy.tau_p99_ratio", "ratio", "lower", _EX, False),
        ("core.cost_model.predicted_over_actual_p50", "ratio", "higher", _EX, False),
        ("core.policy.queries_to_converge", "count", "lower", _EX, False),
        ("persist.wal.append_us", "us", "lower", _DU, False),
        ("persist.wal.commit_us", "us", "lower", _DU, False),
        ("persist.wal.bytes_per_user_byte", "ratio", "lower", _DU, True),
        ("storage.delta.insert_us_per_row", "us", "lower", _DU, False),
        ("core.overlay.correction_us", "us", "lower", _DU, False),
        ("core.overlay.pending_rows_max", "count", "lower", _DU, False),
        ("core.overlay.folds_completed", "count", "higher", _DU, False),
        ("core.phase.merge_s", "s", "lower", _DU, False),
        ("persist.checkpoint.write_s", "s", "lower", _DU, False),
        ("persist.checkpoint.bytes_written", "bytes", "lower", _DU, True),
        ("persist.checkpoint.parts_reused_share", "share", "higher", _DU, True),
        ("persist.database.open_s", "s", "lower", _DU, False),
        ("persist.database.replayed_ops", "count", "lower", _DU, True),
        ("persist.disk_bytes_per_user_byte", "ratio", "lower", _DU, True),
        ("persist.compress.cache_hit_rate", "share", "higher", _OC, False),
        ("persist.compress.evictions", "count", "lower", _OC, False),
        ("persist.compress.bytes_decompressed_per_row", "bytes", "lower", _OC, False),
        ("persist.compress.decompress_s", "s", "lower", _OC, False),
        ("persist.compress.decode_block_mrows_s", "Mrows/s", "higher", _OC, False),
        ("persist.compress.file_bytes_per_raw_byte", "ratio", "lower", _OC, True),
        ("storage.scratch.spill_count", "count", "lower", _OC, False),
        ("storage.scratch.spilled_bytes", "bytes", "lower", _OC, False),
        ("storage.membudget.rss_over_budget", "ratio", "lower", _OC, False),
        ("shard.router.pruned_share", "share", "higher", _SH, True),
        ("shard.router.route_us", "us", "lower", _SH, False),
        ("shard.index.us_per_touched_shard", "us", "lower", _SH, False),
        ("shard.index.converged_shards", "count", "higher", _SH, False),
        ("shard.executor.parallel_speedup", "ratio", "higher", _SH, False),
    ]
)

END_TO_END_NAMES = tuple(row[0] for row in END_TO_END)
COMMON_LAYER_NAMES = tuple(row[0] for row in COMMON_LAYERS)
UNITS = {row[0]: row[1] for row in END_TO_END + EXTRAS + COMMON_LAYERS + WORKLOAD_LAYERS}
BETTER = {row[0]: row[2] for row in END_TO_END + EXTRAS + COMMON_LAYERS + WORKLOAD_LAYERS}
BOUNDS = {row[0]: row[3] for row in END_TO_END + EXTRAS}
EXACT = tuple(row[0] for row in WORKLOAD_LAYERS if row[4])


def extras_for(workload: str) -> tuple:
    """Names of the workload-specific end-to-end figures of ``workload``."""
    return tuple(name for name, _, _, _, on in EXTRAS if workload in on)


def layers_for(workload: str) -> tuple:
    """Names of every per-layer metric ``workload``'s traced run reports."""
    return COMMON_LAYER_NAMES + tuple(row[0] for row in WORKLOAD_LAYERS if row[3] == workload)


def benchmark_json() -> dict:
    """The driver-facing declaration (the content of ``BENCHMARK.json``)."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in COMMON_LAYERS
        ],
    }
