"""The five workloads of the ledger.

Every workload has the same shape, so every end-to-end metric is real on
each of them:

1. **set-up** (timed, repeated): everything the program does before the
   first timed operation — ``calibrate()``, ``Database.create``, server
   start;
2. **cycles**, as many as fit ``--seconds`` (at least five), each one
   a. a **cold round**: a fresh index is driven from its first query until
      it reports CONVERGED (``first_query_ms``, ``preconv_*``,
      ``converge_s``), then
   b. **steady windows** on that converged index: the workload's own
      operation mix (``read_*``, ``ops_per_s`` and the workload's own
      figures).

Cold rounds and steady windows alternate so that every metric samples the
whole run: interference that lasts a few seconds then spoils a few samples
of each metric instead of every sample of one.

What differs between workloads is the facade the operations go through and
the shape of the data and predicates — which is what decides which layer
does the work.  All timing is taken from outside, around calls into public
functions.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys

import numpy as np

import gen
import probes
import spec
from common import (
    HERE, Spans, median, now, peak_rss_mb, percentile, remove_dir,
    reset_peak_rss, scratch_dir, summary,
)

from repro import Database, IndexingSession, ServiceClient, Table, calibrate, shard_table

#: Set-up is repeated so ``setup_s`` is a median, not one sample: at least
#: three times, and a cheap one until it has been given a second in total.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_REPEATS_MOST = 10
#: Fewest cycles (cold rounds, and so steady windows) behind a reported figure.
MIN_CYCLES = 5
#: Single reads per steady window: a per-window p99 has 10 samples beyond it.
WINDOW_READS = 1000
#: Fewest samples behind any reported p99.
P99_SAMPLES = 1000


class Report:
    """What one run of one workload measured."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.metrics: dict = {}   # name -> summary dict, or None
        self.notes: dict = {}     # name -> why the metric is null
        self.info: dict = {}      # sizes, counts and other context
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def put(self, name: str, samples) -> None:
        """Quiet quartile of a timing over rounds or windows (see ``summary``)."""
        self.metrics[name] = summary(list(samples), spec.BETTER[name])

    def put_median(self, name: str, samples) -> None:
        """Median over ``samples``: set-up times, counts, model quantities."""
        self.metrics[name] = summary(list(samples))

    def put_value(self, name: str, value, n: int = 1) -> None:
        """One pooled figure computed from ``n`` samples."""
        value = float(value)
        self.metrics[name] = {"value": value, "median": value, "q1": value, "q3": value,
                              "n": int(n)}

    def put_null(self, name: str, reason: str) -> None:
        self.metrics[name] = None
        self.notes[name] = reason

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 50:
            self.failures.append(message)

    def as_dict(self) -> dict:
        return {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds,
            "traced": self.traced, "attempted": self.attempted,
            "failed": self.failed, "failures": self.failures,
            "metrics": self.metrics, "notes": self.notes, "info": self.info,
        }


class Workload:
    """Template of one workload run; subclasses supply the facade."""

    name = ""
    #: An index that never converges within the cap fails the round.
    convergence_required = True
    #: Span name of one read (the facade it goes through).
    read_span = "read"

    def __init__(self, seed: int, seconds: float, traced: bool, scale: float = 1.0) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.scale = float(scale)
        self.smoke = scale < 1.0
        self.sizes = dict(spec.WORKLOADS[self.name][1])
        self.sizes["rows"] = max(20_000, int(self.sizes["rows"] * scale))
        self.min_cycles = 2 if self.smoke else MIN_CYCLES
        self.setup_repeats = 1 if self.smoke else SETUP_REPEATS
        self.window_reads = 200 if self.smoke else WINDOW_READS
        self.traced = bool(traced)
        self.spans = Spans(traced)
        self.report = Report(self.name, seed, seconds, traced)
        self.report.info["sizes"] = {
            key: value for key, value in self.sizes.items() if not isinstance(value, tuple)
        }
        self.cold_rounds: list = []
        self.windows: list = []
        self.read_cursor = 0

    # -- generator side ------------------------------------------------
    def generate(self) -> None:
        raise NotImplementedError

    def keep_for_layers(self, oracle: gen.Oracle, rng, low_share: float, high_share=None) -> None:
        """What the traced run's probes need from the generator."""
        if self.traced:
            self.oracle = oracle
            self.kernel_sample = self.data[:1_000_000].copy()
            self.ladder_pool = gen.Pool(
                oracle, *gen.ranges(rng, self.window_reads, low_share, high_share))

    # -- program side --------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Drop generator arrays the program no longer needs."""

    def teardown(self) -> None:
        """Release what :meth:`setup` acquired."""

    def fresh_index(self) -> None:
        raise NotImplementedError

    def drop_index(self, owner) -> None:
        """Drop the index and collect it at once.

        A dropped index sits in reference cycles; left to the collector's
        own timing, the arrays of two or three dead indexes pile up or not,
        and ``peak_rss_mb`` flips between values 30 % apart.
        """
        self.index = None
        owner.drop_index("ra")
        gc.collect()

    def read(self, low: int, high: int):
        raise NotImplementedError

    @staticmethod
    def unpack(raw) -> tuple:
        """``(sum, count)`` of a raw read result."""
        return raw.value_sum, raw.count

    def converged(self) -> bool:
        raise NotImplementedError

    def settle(self) -> None:
        """Leave a converged index behind a cold round (default: it is)."""

    # -- the run -------------------------------------------------------
    @staticmethod
    def pin() -> None:
        """Keep this process, and the children it starts, on one CPU.

        Migrations were the largest run-to-run noise on the two-core host
        this was built on.  The served child shares the CPU on purpose: one
        synchronous connection means client and server take turns, and a
        wake-up on the same CPU is what the scheduler settles on when left
        alone — forcing them apart adds a cross-CPU wake-up (about 50 µs in
        this VM) to every request and hides the program's own cost.
        """
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def run(self) -> Report:
        report = self.report
        self.pin()
        self.generate()
        setups = []
        try:
            while len(setups) < self.setup_repeats or (
                sum(setups) < SETUP_SECONDS and len(setups) < SETUP_REPEATS_MOST
                and not self.smoke
            ):
                if setups:
                    self.teardown()
                started = now()
                self.setup()
                setups.append(now() - started)
            report.put_median("setup_s", setups)
            self.after_setup()
            # The generator's tapes are tens of thousands of long-lived
            # tuples; frozen, the collector stops rescanning them in the
            # middle of timed operations (the program's own garbage is
            # still collected).
            gc.collect()
            gc.freeze()
            reset_peak_rss()
            self.measure(now() + self.seconds)
            self.after_measure()
            self.put_cold()
            self.put_steady()
            if self.traced:
                self.common_layers()
                self.layers()
            self.put_peak_rss()
        finally:
            self.teardown()
        self.after_teardown()
        if self.traced:
            self.spans.write(os.path.join(HERE, "out", f"trace-{self.name}.jsonl"))
            report.info["span_self_seconds"] = self.spans.self_seconds()
        return report

    def measure(self, deadline: float) -> None:
        """Cycles of one cold round and the steady windows it pays for."""
        share = self.sizes["cold_share"]
        while len(self.cold_rounds) < self.min_cycles or now() < deadline:
            started = now()
            span = self.spans.begin("cold_round", len(self.cold_rounds)) if self.traced else None
            self.cold_rounds.append(self.cold_round())
            if span is not None:
                self.spans.end(span)
            self.settle()
            self.steady(now() + (now() - started) * (1.0 - share) / share)

    def after_measure(self) -> None:
        """What a workload still has to run once its cycles are over."""

    def put_peak_rss(self) -> None:
        self.report.put_value("peak_rss_mb", peak_rss_mb())

    def after_teardown(self) -> None:
        """Figures that only exist once the program has shut down."""

    # -- cold rounds ---------------------------------------------------
    def drive(self, pool: gen.Pool, cap: int, span: str, observe=None) -> dict:
        """Query a fresh index with ``pool`` until it converges (or ``cap``).

        ``observe`` (traced run) is called after each query, outside its
        timed region.
        """
        lows, highs = pool.lows, pool.highs
        latencies, raws = [], []
        spans = self.spans
        converged = False
        for position in range(min(cap, len(pool))):
            started = now()
            raw = self.read(lows[position], highs[position])
            ended = now()
            latencies.append(ended - started)
            raws.append(raw)
            if spans.enabled:
                spans.add(span, position, started, ended)
            if observe is not None:
                observe(ended - started)
            if self.converged():
                converged = True
                break
        self.check(pool, range(len(raws)), raws, span)
        self.report.attempted += len(raws)
        if self.convergence_required and not converged:
            self.report.fail(f"{span}: not converged after {len(raws)} queries")
        return {"latencies": latencies, "converged": converged}

    def cold_round(self) -> dict:
        """One repetition of the cold experiment; same inputs every round."""
        self.fresh_index()
        outcome = self.drive(self.cold_pool, self.sizes["cap"], self.read_span)
        latencies = outcome["latencies"]
        return {
            "first_query_ms": latencies[0] * 1e3,
            "converge_s": sum(latencies),
            "latencies": latencies,
            "queries": len(latencies),
        }

    def put_cold(self) -> None:
        rounds = self.cold_rounds
        report = self.report
        report.put("first_query_ms", [r["first_query_ms"] for r in rounds])
        report.put("converge_s", [r["converge_s"] for r in rounds])
        report.put("preconv_p50_ms", [float(np.median(r["latencies"])) * 1e3 for r in rounds])
        report.info["cycles"] = len(rounds)
        report.info["queries_to_converge"] = [r["queries"] for r in rounds]
        if "preconv_p99_ms" not in spec.extras_for(self.name):
            return
        pooled = np.concatenate([r["latencies"] for r in rounds]) * 1e3
        if pooled.size >= P99_SAMPLES or self.smoke:
            report.put_value("preconv_p99_ms", percentile(pooled, 0.99), pooled.size)
        else:
            report.put_null(
                "preconv_p99_ms",
                f"{pooled.size} pre-convergence samples pooled over {len(rounds)} "
                f"rounds, {P99_SAMPLES} needed for a p99",
            )

    # -- steady windows ------------------------------------------------
    def window_traced(self) -> bool:
        """A traced run records spans in every other steady window only, so
        one run yields both sides of ``ledger.trace_overhead_ratio``."""
        self.spans.enabled = self.traced and len(self.windows) % 2 == 0
        return self.spans.enabled

    def steady(self, deadline: float) -> None:
        """At least one window; more while the cycle's budget lasts."""
        while True:
            self.windows.append(self.window())
            if now() >= deadline:
                break
        self.spans.enabled = self.traced

    def window(self) -> dict:
        """Closed loop of ``window_reads`` single reads on the converged index."""
        pool = self.read_pool
        lows, highs = pool.lows, pool.highs
        spans = self.spans
        traced = self.window_traced()
        latencies, raws, positions = [], [], []
        cursor = self.read_cursor
        window_started = now()
        for _ in range(self.window_reads):
            position = cursor % len(pool)
            started = now()
            raw = self.read(lows[position], highs[position])
            ended = now()
            latencies.append(ended - started)
            raws.append(raw)
            positions.append(position)
            if traced:
                spans.add(self.read_span, cursor, started, ended)
            cursor += 1
        elapsed = now() - window_started
        self.read_cursor = cursor
        self.check(pool, positions, raws, "steady read")
        self.report.attempted += len(raws)
        return {"reads": latencies, "ops_per_s": len(raws) / elapsed}

    def put_steady(self) -> None:
        windows = self.windows
        report = self.report
        report.put("read_p50_us", [float(np.median(w["reads"])) * 1e6 for w in windows])
        report.put("read_p99_us", [percentile(w["reads"], 0.99) * 1e6 for w in windows])
        rates = [w["ops_per_s"] for w in windows]
        report.put("ops_per_s", rates)
        report.info["steady_windows"] = len(windows)
        if self.traced:
            report.put_value("ledger.trace_overhead_ratio",
                             median(rates[0::2]) / median(rates[1::2]), len(rates))

    # -- oracle check, between the timed regions ---------------------------
    def check(self, pool: gen.Pool, positions, raws, what: str) -> None:
        """Compare answers with the oracle; a mismatch is a failed operation."""
        got = [self.unpack(raw) for raw in raws]
        for position, have, want in pool.mismatches(positions, got):
            self.report.fail(f"{what} {position}: got {have}, oracle {want}")

    # -- traced run ----------------------------------------------------
    def ladder_session(self):
        """The session whose converged index the ladder's rungs go through."""
        return self.session

    def served_session(self):
        """The session behind the ladder's MVCC reader rung (default: the same)."""
        return None

    def converged_twin(self):
        """A plain in-memory session over the same column, PQ converged."""
        session = IndexingSession(Table({"ra": self.data}))
        index = session.create_index(
            "ra", method="PQ", budget_fraction=self.sizes["budget_fraction"])
        for low, high in zip(self.ladder_pool.lows, self.ladder_pool.highs):
            session.between("ra", low, high)
            if index.converged:
                break
        return session

    def common_layers(self) -> None:
        """The per-layer metrics every workload reports (``spec.COMMON_LAYERS``).

        Nested facades cannot be seen into from outside, so the same
        predicates are replayed at each boundary, floor upwards; a rung's
        self time is its median minus the rung it wraps.  The codec wraps
        nothing: its cost is its own.
        """
        report = self.report
        pool = self.ladder_pool
        lows, highs = pool.lows, pool.highs
        rungs = probes.ladder_in_process(
            self.oracle, self.ladder_session(), lows, highs, self.served_session())
        responses = [
            {"ok": True, "sum": int(value_sum), "count": int(count), "version": 0}
            for value_sum, count in zip(pool.sums, pool.counts)
        ]
        rungs["serve.protocol.codec_us"] = probes.codec_us(lows, highs, responses)
        self.rungs = rungs
        floor = rungs["floor.searchsorted_us"]
        report.put_value("floor.searchsorted_us", floor, len(pool))
        below = floor
        for stem in spec.LADDER:
            if stem == "serve.protocol.codec":
                below = 0.0
            self.put_rung(stem, rungs[stem + "_us"], below)
            below = rungs[stem + "_us"]
        for name, value in probes.kernel_probes(self.kernel_sample).items():
            report.put_value(name, value, probes.REPEATS)

    def put_rung(self, stem: str, total: float, below: float) -> None:
        count = len(self.ladder_pool)
        self.report.put_value(stem + "_us", total, count)
        self.report.put_value(stem + ".self_us", total - below, count)
        self.report.put_value(stem + ".x_floor", total / self.rungs["floor.searchsorted_us"], count)

    def layers(self) -> None:
        """Per-layer metrics only this workload has (traced run only)."""


# ======================================================================
class ExploreCold(Workload):
    """In-memory exploration: four algorithms, fixed budget and τ policy."""

    name = "explore_cold"
    read_span = "engine.session.between"
    ALGORITHMS = ("PQ", "PMSD", "PB", "PLSD")

    def generate(self) -> None:
        data_rng, cold_rng, read_rng, tau_rng, layer_rng = gen.generators(self.seed, self.name, 5)
        self.data = gen.column(data_rng, self.sizes["rows"])
        oracle = gen.Oracle(self.data)
        share = self.sizes["selectivity"]
        self.keep_for_layers(oracle, layer_rng, share)
        self.cold_pool = gen.Pool(oracle, *gen.ranges(cold_rng, self.sizes["cap"], share))
        self.tau_pool = gen.Pool(oracle, *gen.ranges(tau_rng, self.sizes["tau_cap"], share))
        self.read_pool = gen.Pool(oracle, *gen.ranges(read_rng, 4 * self.window_reads, share))
        self.budget = {"budget_fraction": self.sizes["budget_fraction"]}
        self.calibrate_seconds = []

    def setup(self) -> None:
        started = now()
        constants = calibrate()
        self.calibrate_seconds.append(now() - started)
        self.session = IndexingSession(Table({"ra": self.data}), constants=constants)
        self.index = None

    def fresh_index(self, method: str = "PQ", **budget) -> None:
        self.drop_index(self.session)
        self.index = self.session.create_index("ra", method=method, **(budget or self.budget))

    def read(self, low, high):
        return self.session.between("ra", low, high)

    def converged(self) -> bool:
        return self.index.converged

    def cold_round(self) -> dict:
        """Arm A (fixed budget fraction) then arm B (τ policy), all four
        algorithms each; arm A alone feeds the common metrics."""
        arm_a = self.arm(self.cold_pool, self.sizes["cap"], self.budget, "arm_a")
        arm_a["tau"] = self.arm(
            self.tau_pool, self.sizes["tau_cap"],
            {"interactivity_budget": self.sizes["tau_seconds"]}, "arm_b")
        return arm_a

    def arm(self, pool, cap, budget, label) -> dict:
        per_algorithm = {}
        phases = {}
        ratios = []
        for method in self.ALGORITHMS:
            self.fresh_index(method, **budget)
            observe = None
            if self.traced and label == "arm_b":
                index = self.index

                def observe(actual, index=index):
                    predicted = index.last_stats.predicted_cost
                    if predicted:
                        ratios.append(predicted / actual)

            outcome = self.drive(pool, cap, f"{label}.{method.lower()}", observe)
            per_algorithm[method] = outcome["latencies"]
            if self.traced:
                for phase, usage in self.session.status()["ra"]["phase_stats"].items():
                    entry = phases.setdefault(phase, {"queries": 0, "indexing_seconds": 0.0})
                    entry["queries"] += usage["queries"]
                    entry["indexing_seconds"] += usage["indexing_seconds"]
        firsts = [latencies[0] for latencies in per_algorithm.values()]
        return {
            "first_query_ms": float(np.mean(firsts)) * 1e3,
            "converge_s": sum(sum(latencies) for latencies in per_algorithm.values()),
            "latencies": np.concatenate(list(per_algorithm.values())),
            "queries": sum(len(latencies) for latencies in per_algorithm.values()),
            "per_algorithm": per_algorithm,
            "phases": phases,
            "predicted_over_actual": ratios,
        }

    def put_cold(self) -> None:
        super().put_cold()
        report = self.report
        tau = self.sizes["tau_seconds"]
        tau_rounds = [r["tau"] for r in self.cold_rounds]
        pooled = np.concatenate([r["latencies"] for r in tau_rounds])
        report.put_value("tau_miss_share", float(np.mean(pooled > tau)), pooled.size)
        report.put("tau_converge_s", [r["converge_s"] for r in tau_rounds])
        report.info["tau_queries_to_converge"] = [r["queries"] for r in tau_rounds]
        self.tau_latencies = pooled

    def fixed_delta_queries(self, method: str) -> int:
        """Queries to converge under ``FixedDelta``: no clock in the loop,
        so the count must repeat exactly."""
        counts = []
        for _ in range(2):
            self.fresh_index(method, fixed_delta=0.25)
            outcome = self.drive(self.cold_pool, self.sizes["cap"], f"fixed_delta.{method.lower()}")
            counts.append(len(outcome["latencies"]))
        if counts[0] != counts[1]:
            self.report.fail(f"{method}: queries_to_converge not exact under FixedDelta: {counts}")
        return counts[0]

    def layers(self) -> None:
        report = self.report
        rounds = self.cold_rounds
        for method in self.ALGORITHMS:
            stem = f"progressive.{method.lower()}"
            latencies = [r["per_algorithm"][method] for r in rounds]
            report.put(stem + ".first_query_ms", [lat[0] * 1e3 for lat in latencies])
            report.put(stem + ".converge_s", [sum(lat) for lat in latencies])
            report.put_value(stem + ".queries_to_converge", self.fixed_delta_queries(method))
        for phase in ("creation", "refinement", "consolidation"):
            usage = [r["phases"].get(phase, {"queries": 0, "indexing_seconds": 0.0}) for r in rounds]
            report.put_median(f"core.phase.{phase}_s", [u["indexing_seconds"] for u in usage])
            report.put_median(f"core.phase.{phase}_queries", [u["queries"] for u in usage])
        report.put_median("core.calibration.calibrate_s", self.calibrate_seconds)
        tau = self.sizes["tau_seconds"]
        report.put_value("core.policy.tau_p50_ratio",
                         np.median(self.tau_latencies) / tau, self.tau_latencies.size)
        report.put_value("core.policy.tau_p99_ratio",
                         percentile(self.tau_latencies, 0.99) / tau, self.tau_latencies.size)
        ratios = np.concatenate([r["tau"]["predicted_over_actual"] for r in rounds])
        report.put_value("core.cost_model.predicted_over_actual_p50", np.median(ratios), ratios.size)
        report.put_median("core.policy.queries_to_converge", [r["tau"]["queries"] for r in rounds])


# ======================================================================
class ServeConverged(Workload):
    """A QueryServer child process driven over AF_UNIX by one connection."""

    name = "serve_converged"
    read_span = "serve.client.between"

    def generate(self) -> None:
        data_rng, cold_rng, tape_rng, open_rng, arrival_rng, layer_rng = gen.generators(
            self.seed, self.name, 6)
        self.data = gen.column(data_rng, self.sizes["rows"])
        self.oracle = gen.Oracle(self.data)
        self.keep_for_layers(self.oracle, layer_rng, 0.001, 0.01)
        self.cold_pool = gen.Pool(self.oracle, *gen.ranges(cold_rng, self.sizes["cap"], 0.001, 0.01))
        requests = int(60_000 * max(self.scale, 0.1))
        batch = self.sizes["batch_size"]
        self.tape = gen.serve_tape(tape_rng, self.oracle, self.data, requests, batch)
        self.open_tape = gen.serve_tape(open_rng, self.oracle, self.data, requests // 2, batch)
        self.arrivals = gen.poisson_arrivals(arrival_rng, self.sizes["open_rate"], len(self.open_tape))
        self.open_requests = 100 if self.smoke else P99_SAMPLES
        self.tape_cursor = 0
        self.open_windows: list = []
        self.child = None
        self.client = None
        self.child_rss_mb = None

    def setup(self) -> None:
        self.directory = scratch_dir("serve")
        data_path = os.path.join(self.directory, "data.npy")
        np.save(data_path, self.data)
        self.socket_path = os.path.join(self.directory, "s.sock")
        self.child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_child.py"), data_path,
             self.socket_path, str(self.sizes["budget_fraction"]),
             "1" if self.traced else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.ready = json.loads(self.child.stdout.readline())
        self.client = ServiceClient(self.socket_path, role="reader")
        self.pinned = self.client.versions.get("ra", 0)

    def after_setup(self) -> None:
        # The program is the child; in this process only the load generator
        # allocates, and its collector pauses would be charged to requests.
        gc.disable()

    def control(self, command: str) -> str:
        self.child.stdin.write(command + "\n")
        self.child.stdin.flush()
        return self.child.stdout.readline().strip()

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.child is not None:
            try:
                self.child.stdin.write("quit\n")
                self.child.stdin.flush()
                self.child_rss_mb = json.loads(self.child.stdout.readline())["rss_mb"]
                self.child.wait(timeout=30)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.child.kill()
                self.child.wait()
            self.child = None
            remove_dir(self.directory)

    def put_peak_rss(self) -> None:
        """The program is the server child; its peak arrives at shutdown."""

    def after_teardown(self) -> None:
        if self.child_rss_mb is not None:
            self.report.put_value("peak_rss_mb", self.child_rss_mb)

    def fresh_index(self) -> None:
        self.control("reset")

    def read(self, low, high):
        return self.client.between("ra", low, high)

    @staticmethod
    def unpack(raw) -> tuple:
        return raw["sum"], raw["count"]

    def converged(self) -> bool:
        return self.control("converged") == "1"

    # -- closed loop, then open loop ------------------------------------
    def call(self, verb, argument):
        client = self.client
        if verb == "equals":
            return client.equals("ra", argument)
        if verb == "between":
            return client.between("ra", argument[0], argument[1])
        if verb == "batch":
            return client.batch("ra", argument)
        return client.refresh()

    def steady(self, deadline: float) -> None:
        """Closed-loop windows, then one open-loop window, per cycle."""
        open_seconds = self.open_requests / self.sizes["open_rate"]
        super().steady(deadline - open_seconds)
        self.open_windows.append(self.open_window())

    def window(self) -> dict:
        """No think time; the window ends after ``window_reads`` single reads."""
        tape = self.tape
        spans = self.spans
        batch = self.sizes["batch_size"]
        traced = self.window_traced()
        reads, by_verb = [], {"equals": [], "batch": [], "refresh": []}
        answers = []
        operations = 0
        cursor = self.tape_cursor
        window_started = now()
        while len(reads) < self.window_reads:
            position = cursor % len(tape)
            verb, argument, _ = tape[position]
            started = now()
            raw = self.call(verb, argument)
            ended = now()
            if verb == "between" or verb == "equals":
                reads.append(ended - started)
            if verb != "between":
                by_verb[verb].append(ended - started)
            operations += batch if verb == "batch" else 1
            answers.append((position, raw))
            if traced:
                spans.add(f"serve.client.{verb}", cursor, started, ended)
            cursor += 1
        elapsed = now() - window_started
        self.report.attempted += cursor - self.tape_cursor
        self.tape_cursor = cursor
        self.check_served(tape, answers)
        return {"reads": reads, "ops_per_s": operations / elapsed, "by_verb": by_verb}

    def open_window(self) -> dict:
        """Poisson arrivals at a fixed rate on the one connection.

        Latency runs from the intended send time, so a stall is charged to
        every request it delays; ``lag`` is how late the generator itself
        was.  One window is ``P99_SAMPLES`` requests and gives one p99.
        """
        tape, arrivals = self.open_tape, self.arrivals
        spans = self.spans
        count = self.open_requests
        first = (len(self.open_windows) * count) % (len(tape) - count)
        latencies = np.empty(count)
        lateness = np.empty(count)
        answers = []
        origin = now() - (arrivals[first - 1] if first else 0.0)
        for offset in range(count):
            position = first + offset
            verb, argument, _ = tape[position]
            due = origin + arrivals[position]
            while True:
                sent = now()
                if sent >= due:
                    break
            raw = self.call(verb, argument)
            ended = now()
            latencies[offset] = ended - due
            lateness[offset] = sent - due
            answers.append((position, raw))
            if spans.enabled:
                spans.add(f"open.serve.client.{verb}", position, sent, ended)
        self.report.attempted += count
        self.check_served(tape, answers)
        return {"p99_us": percentile(latencies, 0.99) * 1e6,
                "lag_p99_us": percentile(lateness, 0.99) * 1e6}

    def put_steady(self) -> None:
        super().put_steady()
        report = self.report
        report.put("open_p99_us", [w["p99_us"] for w in self.open_windows])
        report.info["open_loop"] = {
            "rate_per_s": self.sizes["open_rate"], "windows": len(self.open_windows),
            "samples_per_p99": self.open_requests,
            "lag_p99_us": median([w["lag_p99_us"] for w in self.open_windows]),
        }

    def check_served(self, tape, answers) -> None:
        """Served answers against the oracle, at the pinned version."""
        for position, raw in answers:
            verb, _, expected = tape[position]
            if verb == "refresh":
                ok = raw.get("ra", self.pinned) == self.pinned
            elif verb == "batch":
                ok = (raw["sums"], raw["counts"]) == expected and raw["version"] == self.pinned
            else:
                ok = (raw["sum"], raw["count"]) == expected and raw["version"] == self.pinned
            if not ok:
                self.report.fail(f"served {verb} #{position}: got {raw}, oracle {expected}")

    # -- the ladder's top rungs ------------------------------------------
    def ladder_session(self):
        """An in-process twin of the served session."""
        self.twin = self.converged_twin()
        return self.twin

    def layers(self) -> None:
        report = self.report
        rungs = self.rungs
        lows, highs = self.ladder_pool.lows, self.ladder_pool.highs
        client = self.client
        unix = probes.each_us(lambda low, high: client.between("ra", low, high), lows, highs)
        with ServiceClient(("127.0.0.1", self.ready["tcp_port"]), role="reader") as tcp:
            over_tcp = probes.each_us(lambda low, high: tcp.between("ra", low, high), lows, highs)
        # The socket client wraps the reader view and pays the codec, so the
        # self times from the floor up to the AF_UNIX client sum to its total.
        self.put_rung("serve.client.unix_between", unix,
                      rungs["engine.shared.reader_between_us"] + rungs["serve.protocol.codec_us"])
        self.put_rung("serve.client.tcp_between", over_tcp, unix)

        batches = [argument for verb, argument, _ in self.tape if verb == "batch"][:200]
        batch = self.sizes["batch_size"]
        in_process = []
        for bounds in batches:
            started = now()
            self.twin.execute_batch([tuple(pair) for pair in bounds], column_name="ra")
            in_process.append((now() - started) / batch)
        report.put_value("engine.batch.us_per_query", median(in_process) * 1e6, len(batches))
        by_verb = {"equals": [], "batch": [], "refresh": []}
        for window in self.windows:
            for verb, latencies in window["by_verb"].items():
                by_verb[verb].extend(latencies)
        report.put_value("serve.client.batch_us_per_query",
                         np.median(by_verb["batch"]) / batch * 1e6, len(by_verb["batch"]))
        report.put_value("serve.client.equals_p50_us",
                         np.median(by_verb["equals"]) * 1e6, len(by_verb["equals"]))
        report.put_value("serve.client.refresh_p50_us",
                         np.median(by_verb["refresh"]) * 1e6, len(by_verb["refresh"]))
        report.put("loadgen.lag_p99_us", [w["lag_p99_us"] for w in self.open_windows])

        stats = json.loads(self.control("stats"))
        lanes = stats["scheduler"]["lanes"].values()
        lockfree = sum(lane["lockfree_reads"] for lane in lanes)
        serialized = sum(lane["serialized_ops"] for lane in lanes)
        report.put_value("serve.scheduler.lockfree_share",
                         lockfree / max(1, lockfree + serialized), lockfree + serialized)
        report.put_value("serve.scheduler.throttled", stats["throttled"])

        # The program's own tracer on and off, alternating closed-loop windows.
        self.traced = False  # no spans of ours while the program's are compared
        rates = {"on": [], "off": []}
        for number in range(2 * self.min_cycles):
            mode = "on" if number % 2 == 0 else "off"
            self.control(f"tracing {mode}")
            rates[mode].append(self.window()["ops_per_s"])
        self.traced = True
        report.put_value("obs.tracing_on_ratio",
                         median(rates["on"]) / median(rates["off"]), 2 * self.min_cycles)


# ======================================================================
class DatabaseWorkload(Workload):
    """Shared facade of the two workloads that run on a ``Database``."""

    read_span = "persist.database.between"
    db = None

    def create(self):
        raise NotImplementedError

    def setup(self) -> None:
        self.directory = scratch_dir(self.name)
        self.db = self.create()
        self.index = None

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close(checkpoint=False)
            self.db = None
            remove_dir(self.directory)

    def fresh_index(self) -> None:
        self.drop_index(self.db)
        self.index = self.db.create_index(
            "ra", method="PQ", budget_fraction=self.sizes["budget_fraction"]
        )

    def read(self, low, high):
        return self.db.between("ra", low, high)

    def converged(self) -> bool:
        return self.index.converged

    def ladder_session(self):
        return self.db.session


class DurableMixed(DatabaseWorkload):
    """A Database on disk: reads beside fsync-committed write transactions."""

    name = "durable_mixed"
    #: Committed writes between the last checkpoint and the restart.
    RESTART_TAIL = 50

    def generate(self) -> None:
        data_rng, cold_rng, tape_rng, probe_rng, layer_rng = gen.generators(self.seed, self.name, 5)
        self.data = gen.column(data_rng, self.sizes["rows"])
        self.oracle = gen.Oracle(self.data)
        self.keep_for_layers(self.oracle, layer_rng, 0.01)
        # The column changes under the tape, so answers are checked against
        # the generator's model as it stands, not against a frozen pool.
        self.model = gen.MutableOracle(self.oracle)
        self.cold_pool = gen.Pool(self.oracle, *gen.ranges(cold_rng, self.sizes["cap"], 0.01))
        operations = int(40_000 * max(self.scale, 0.1))
        self.tape = gen.durable_tape(
            tape_rng, operations, self.sizes["write_share"], self.sizes["insert_rows"]
        )
        self.probes = gen.ranges(probe_rng, 200, 0.0001, 0.2)
        self.uncommitted = probe_rng.integers(0, gen.DOMAIN, size=self.sizes["insert_rows"])
        self.tape_cursor = 0
        self.commit_count = 0
        self.checkpoints: list = []
        self.pending_rows_max = 0

    def create(self):
        return Database.create(self.directory, {"ra": self.data})

    def check(self, pool, positions, raws, what: str) -> None:
        for position, raw in zip(positions, raws):
            want = self.model.read(pool.lows[position], pool.highs[position])
            if (raw.value_sum, raw.count) != want:
                self.report.fail(
                    f"{what} {position}: got {(raw.value_sum, raw.count)}, oracle {want}")

    def execute(self, operation, cursor: int, traced: bool):
        """One tape entry: a read, or a write transaction with its commit.

        Returns ``(kind, answer, latency)``.
        """
        db, spans = self.db, self.spans
        kind = operation[0]
        started = now()
        if kind == "read":
            raw = db.between("ra", operation[1], operation[2])
            ended = now()
            if traced:
                spans.add("persist.database.between", cursor, started, ended)
            return kind, (raw.value_sum, raw.count), ended - started
        written = probes.apply_write(db, operation)
        applied = now()
        db.commit()
        ended = now()
        if traced:
            request = spans.add("write_transaction", cursor, started, ended)
            spans.add(f"persist.database.{kind}", cursor, started, applied, request)
            spans.add("persist.database.commit", cursor, applied, ended, request)
        return kind, written, ended - started

    def window(self) -> dict:
        """The tape until ``window_reads`` reads are done (writes between)."""
        tape = self.tape
        traced = self.window_traced()
        every = self.sizes["checkpoint_every"]
        reads, commits, answers = [], [], []
        first = cursor = self.tape_cursor
        window_started = now()
        while len(reads) < self.window_reads and cursor < len(tape):
            kind, answer, latency = self.execute(tape[cursor], cursor, traced)
            answers.append(answer)
            cursor += 1
            if kind == "read":
                reads.append(latency)
                continue
            commits.append(latency)
            self.commit_count += 1
            if self.commit_count % every == 0:
                self.pending_rows_max = max(self.pending_rows_max,
                                            self.index.pending_delta_rows())
                started = now()
                self.db.checkpoint()
                ended = now()
                self.checkpoints.append(ended - started)
                if traced:
                    self.spans.add("persist.database.checkpoint", cursor, started, ended)
        elapsed = now() - window_started
        self.tape_cursor = cursor
        self.replay(first, answers)
        if len(reads) < self.window_reads:
            self.report.fail("the write tape ran out before the window was full")
        return {"reads": reads, "ops_per_s": (cursor - first) / elapsed, "commits": commits}

    def replay(self, first: int, answers) -> None:
        """Apply executed tape entries to the model and compare the answers."""
        self.report.attempted += len(answers)
        for offset, have in enumerate(answers):
            operation = self.tape[first + offset]
            want = self.model.apply(operation)
            if have != want:
                self.report.fail(
                    f"durable op {first + offset} {operation[0]}: got {have}, oracle {want}")

    def put_steady(self) -> None:
        super().put_steady()
        report = self.report
        commits = [w["commits"] for w in self.windows if w["commits"]]
        report.put("commit_p50_us", [float(np.median(w)) * 1e6 for w in commits])
        pooled = np.concatenate(commits)
        if pooled.size >= P99_SAMPLES or self.smoke:
            report.put_value("commit_p99_us", percentile(pooled, 0.99) * 1e6, pooled.size)
        else:
            report.put_null("commit_p99_us", f"{pooled.size} commits, {P99_SAMPLES} needed for a p99")
        if self.checkpoints:
            report.put("checkpoint_s", self.checkpoints)
        else:
            report.put_null("checkpoint_s", "no checkpoint cycle completed")
            report.fail("no checkpoint cycle completed")
        report.attempted += len(self.checkpoints)
        report.info["commits"] = int(pooled.size)
        report.info["checkpoints"] = len(self.checkpoints)
        report.info["flush_policy"] = self.sizes["flush_policy"]

    def after_measure(self) -> None:
        self.status_before_restart = self.db.status()["indexes"]["ra"]
        self.restart()

    def restart(self) -> None:
        """Close without checkpoint, reopen, first answer — five times.

        A checkpoint and then exactly ``RESTART_TAIL`` committed writes come
        first, so every run replays the same length of WAL; one more insert
        is left uncommitted, and recovery must discard it.
        """
        report = self.report
        self.db.checkpoint()
        first = cursor = self.tape_cursor
        answers = []
        tail = 0
        while tail < self.RESTART_TAIL and cursor < len(self.tape):
            kind, answer, _ = self.execute(self.tape[cursor], cursor, False)
            answers.append(answer)
            tail += kind != "read"
            cursor += 1
        self.replay(first, answers)
        self.db.insert(self.uncommitted)
        low, high = 0, gen.DOMAIN
        want = self.model.read(low, high)
        samples = []
        self.open_seconds = []
        for number in range(self.min_cycles):
            self.db.close(checkpoint=False)
            started = now()
            self.db = Database.open(self.directory)
            opened = now()
            raw = self.db.between("ra", low, high)
            ended = now()
            samples.append(ended - started)
            self.open_seconds.append(opened - started)
            if self.traced:
                request = self.spans.add("restart", number, started, ended)
                self.spans.add("persist.database.open", number, started, opened, request)
                self.spans.add("persist.database.between", number, opened, ended, request)
            report.attempted += 1
            if (raw.value_sum, raw.count) != want:
                report.fail(f"first answer after restart: got {(raw.value_sum, raw.count)}, oracle {want}")
        report.put("restart_first_answer_s", samples)
        self.index = self.db.index_for("ra")
        lows, highs = self.probes
        for low, high in zip(lows.tolist(), highs.tolist()):
            raw = self.db.between("ra", low, high)
            report.attempted += 1
            if (raw.value_sum, raw.count) != self.model.read(low, high):
                report.fail(f"committed-state probe [{low}, {high}] differs after restart")

    def layers(self) -> None:
        report = self.report
        inserts = [operation[1] for operation in self.tape if operation[0] == "insert"][:300]
        for name, value in probes.wal_probe(inserts).items():
            report.put_value(name, value, len(inserts))
        report.put_value("storage.delta.insert_us_per_row",
                         probes.delta_insert_us_per_row(self.data, inserts), len(inserts))

        # Overlay correction on an in-memory twin of the converged index:
        # the pending rows stay below the merge trigger, so no fold starts.
        session = self.converged_twin()
        pool = self.cold_pool
        trigger = session.index_for("ra").merge_trigger_rows()
        pending = np.concatenate(inserts)[: max(1, trigger // 2)]
        reads = min(len(pool), self.window_reads)
        report.put_value("core.overlay.correction_us", probes.overlay_correction_us(
            session, pool.lows[:reads], pool.highs[:reads], pending), reads)

        status = self.status_before_restart
        report.put_value("core.overlay.pending_rows_max", self.pending_rows_max)
        report.put_value("core.overlay.folds_completed", status["writes"]["folds_completed"])
        merge = status["phase_stats"].get("merge", {"indexing_seconds": 0.0})
        report.put_value("core.phase.merge_s", merge["indexing_seconds"])
        report.put("persist.database.open_s", self.open_seconds)

        writes = [operation for operation in self.tape if operation[0] != "read"][:300]
        rows = min(100_000, self.data.size)
        first = probes.durable_fixed_probe(self.data[:rows], pool, writes)
        second = probes.durable_fixed_probe(self.data[:rows], pool, writes)
        for name, value in first.items():
            if name in spec.EXACT and value != second[name]:
                report.fail(f"{name} not exact under one seed: {value} vs {second[name]}")
            report.put_value(name, value, 2)


# ======================================================================
class OutOfCoreCold(DatabaseWorkload):
    """Block-compressed column four times the memory budget."""

    name = "outofcore_cold"

    def generate(self) -> None:
        data_rng, cold_rng, read_rng, layer_rng = gen.generators(self.seed, self.name, 4)
        self.data = gen.column(data_rng, self.sizes["rows"])
        oracle = gen.Oracle(self.data)
        self.keep_for_layers(oracle, layer_rng, 0.01)
        self.cold_pool = gen.Pool(oracle, *gen.ranges(cold_rng, self.sizes["cap"], 0.01))
        self.read_pool = gen.Pool(oracle, *gen.ranges(read_rng, 4 * self.window_reads, 0.01))
        self.raw_bytes = self.data.nbytes
        self.memory_delta = {
            "block_cache": dict.fromkeys(
                ("hits", "misses", "evictions", "bytes_decompressed", "decompress_seconds"), 0),
            "scratch": dict.fromkeys(("spill_count", "spilled_bytes"), 0),
        }

    def create(self):
        return Database.create(
            self.directory, {"ra": self.data}, compress=True,
            memory_budget=self.sizes["memory_budget"],
        )

    def after_setup(self) -> None:
        # The program reads the column from its file from here on; the
        # generator's copy would only inflate the peak RSS being measured.
        self.block_sample = self.data[: 1 << 16].copy()
        del self.data

    def cold_round(self) -> dict:
        """Block-cache and scratch counters are summed over the cold rounds."""
        if not self.traced:
            return super().cold_round()
        before = self.db.status()["memory"]
        outcome = super().cold_round()
        after = self.db.status()["memory"]
        for component, counters in self.memory_delta.items():
            for key in counters:
                counters[key] += after[component][key] - before.get(component, {}).get(key, 0)
        return outcome

    def layers(self) -> None:
        report = self.report
        rounds = len(self.cold_rounds)
        cache, scratch = self.memory_delta["block_cache"], self.memory_delta["scratch"]
        lookups = cache["hits"] + cache["misses"]
        report.put_value("persist.compress.cache_hit_rate", cache["hits"] / max(1, lookups), lookups)
        report.put_value("persist.compress.evictions", cache["evictions"] / rounds, rounds)
        report.put_value("persist.compress.bytes_decompressed_per_row",
                         cache["bytes_decompressed"] / rounds / self.sizes["rows"], rounds)
        report.put_value("persist.compress.decompress_s", cache["decompress_seconds"] / rounds, rounds)
        report.put_value("persist.compress.decode_block_mrows_s",
                         probes.decode_block_mrows_s(self.block_sample), probes.REPEATS)
        columns = os.path.join(self.directory, "columns")
        stored = sum(os.path.getsize(os.path.join(columns, name)) for name in os.listdir(columns))
        report.put_value("persist.compress.file_bytes_per_raw_byte", stored / self.raw_bytes)
        report.put_value("storage.scratch.spill_count", scratch["spill_count"] / rounds, rounds)
        report.put_value("storage.scratch.spilled_bytes", scratch["spilled_bytes"] / rounds, rounds)
        report.put_value("storage.membudget.rss_over_budget",
                         peak_rss_mb() * (1 << 20) / self.sizes["memory_budget"])


# ======================================================================
class ShardedClustered(Workload):
    """Eight range shards; predicates zoom into two of them."""

    name = "sharded_clustered"
    read_span = "engine.session.between"
    # The cold shards see too few queries to converge, so the logical index
    # does not: the round is the fixed cold stream, ``converge_s`` its time.
    convergence_required = False

    def generate(self) -> None:
        data_rng, cold_rng, read_rng, layer_rng = gen.generators(self.seed, self.name, 4)
        self.data = gen.column(data_rng, self.sizes["rows"])
        self.oracle = gen.Oracle(self.data)
        shards, hot = self.sizes["shards"], self.sizes["hot_shards"]
        self.keep_for_layers(self.oracle, layer_rng, 0.005)
        if self.traced:  # the ladder, like the steady windows, reads the hot shards
            self.ladder_pool = gen.Pool(self.oracle, *gen.clustered_ranges(
                layer_rng, self.oracle, self.window_reads, shards, hot))
        self.sizes["cap"] = self.sizes["cold_queries"]
        self.cold_pool = gen.Pool(self.oracle, *gen.clustered_ranges(
            cold_rng, self.oracle, self.sizes["cap"], shards, hot, 10))
        self.read_pool = gen.Pool(self.oracle, *gen.clustered_ranges(
            read_rng, self.oracle, 4 * self.window_reads, shards, hot))

    def setup(self) -> None:
        table = Table({"ra": self.data})
        shard_table(table, "ra", self.sizes["shards"])
        self.session = IndexingSession(table)
        self.index = None

    def teardown(self) -> None:
        if getattr(self, "session", None) is not None:
            self.session.drop_index("ra")

    def fresh_index(self) -> None:
        self.drop_index(self.session)
        self.index = self.session.create_sharded_index(
            "ra", "PQ", shards=self.sizes["shards"], parallel=False,
            budget_fraction=self.sizes["budget_fraction"],
        )

    def read(self, low, high):
        return self.session.between("ra", low, high)

    def converged(self) -> bool:
        return False

    def hot_converged(self) -> bool:
        status = self.index.shard_status()["shards"]
        return all(status[shard]["converged"] for shard in self.sizes["hot_shards"])

    def settle(self) -> None:
        """Converge the hot shards; the steady windows read only those."""
        pool = self.read_pool
        for position in range(len(pool)):
            if position % 16 == 0 and self.hot_converged():
                return
            self.read(pool.lows[position], pool.highs[position])
        self.report.fail("hot shards did not converge")

    def served_session(self):
        # The MVCC reader view does not take sharded columns
        # (``ShardedColumn`` has no ``snapshot``), so that one rung goes over
        # an unsharded twin of the column.
        return self.converged_twin()

    def cold_round(self) -> dict:
        outcome = super().cold_round()
        if self.traced:
            status = self.index.shard_status()
            outcome["router"] = status["router"]
            outcome["converged_shards"] = sum(
                1 for shard in status["shards"].values() if shard["converged"])
        return outcome

    def layers(self) -> None:
        report = self.report
        rounds = self.cold_rounds
        shares = {r["router"]["pruned_fraction"] for r in rounds}
        if len(shares) != 1:
            report.fail(f"shard.router.pruned_share not exact across rounds: {sorted(shares)}")
        report.put_value("shard.router.pruned_share", shares.pop(), len(rounds))
        report.put("shard.index.us_per_touched_shard", [
            r["converge_s"] / r["router"]["shards_dispatched"] * 1e6 for r in rounds])
        report.put_median("shard.index.converged_shards", [r["converged_shards"] for r in rounds])
        pool = self.cold_pool
        report.put_value("shard.router.route_us",
                         probes.each_us(self.index.router.route, pool.lows, pool.highs), len(pool))
        cores = os.cpu_count() or 1
        if cores < 4:
            report.put_null("shard.executor.parallel_speedup",
                            f"nproc = {cores}: a parallel arm below 4 cores measures "
                            "process overhead, not speed-up")
            return
        self.session.drop_index("ra")
        self.index = self.session.create_sharded_index(
            "ra", "PQ", shards=self.sizes["shards"], parallel=True,
            budget_fraction=self.sizes["budget_fraction"])
        parallel = self.drive(pool, self.sizes["cap"], "parallel.engine.session.between")
        report.put_value("shard.executor.parallel_speedup",
                         report.metrics["converge_s"]["value"] / sum(parallel["latencies"]))


WORKLOADS = {
    cls.name: cls
    for cls in (ExploreCold, ServeConverged, DurableMixed, OutOfCoreCold, ShardedClustered)
}
