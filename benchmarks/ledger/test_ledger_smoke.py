"""Tier-1 smoke test of the ledger: names, finiteness, no failed operation."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_spec():
    assert declared() == spec.benchmark_json()


def test_smoke_run_reports_exactly_the_declared_names():
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "7"],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stdout[-2000:]
    document = json.loads(completed.stdout.strip().splitlines()[-1])
    benchmark = declared()
    assert set(document["workloads"]) == {entry["name"] for entry in benchmark["workloads"]}
    for name, entry in document["workloads"].items():
        assert entry["ops_failed"] == 0, (name, entry["failures"])
        assert entry["ops_attempted"] > 0
        for section in ("end_to_end", "per_layer"):
            names = {metric["name"] for metric in benchmark[section]}
            assert set(entry[section]) == names, (name, section)
            for metric, value in entry[section].items():
                assert math.isfinite(value), (name, metric, value)
        for metric, value in entry["end_to_end"].items():
            assert value > 0, (name, metric, value)
        own = spec.extras_for(name) + spec.layers_for(name)[len(spec.COMMON_LAYER_NAMES):]
        assert set(entry["ledger_only"]) == set(own), name
        for metric, value in entry["ledger_only"].items():
            if value is None:
                assert entry["notes"].get(metric), (name, metric, "null without a reason")
            else:
                assert math.isfinite(value), (name, metric, value)
