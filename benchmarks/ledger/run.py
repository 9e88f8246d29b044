"""The latency ledger: one benchmark, five workloads, per-layer attribution.

Driver form (one workload, one JSON result on the last line)::

    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1

Ledger form (every workload, each in its own child process)::

    python3 benchmarks/ledger/run.py --seed S [--workload W] [--trace] [--smoke]
    python3 benchmarks/ledger/run.py --seed S --selfcheck

See ``README.md`` beside this file for the metric and workload names.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402
from common import OUT, host_fingerprint, use_repo_sources  # noqa: E402

#: Row scale and measured seconds of ``--smoke``.
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 0.4


#: glibc otherwise moves these two thresholds as the program frees large
#: blocks, and the same allocation history then leaves different resident sets.
MALLOC = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def fix_layout() -> None:
    """Re-execute once with address randomisation off, a fixed hash seed and
    fixed allocator thresholds.

    Where the loader and the allocator happen to put things moved converged
    reads by 25 % and the peak resident set by 20 % from one process to the
    next on the host this was built on — more than any bound here.  One fixed
    layout repeats; children (the query server) inherit it.  Where the kernel
    refuses, the run goes on randomised.
    """
    if os.environ.get("LEDGER_FIXED_LAYOUT") == "1":
        return
    addr_no_randomize = 0x0040000
    try:
        ctypes.CDLL(None, use_errno=True).personality(addr_no_randomize)
    except (OSError, AttributeError):
        pass
    environment = dict(os.environ, LEDGER_FIXED_LAYOUT="1", PYTHONHASHSEED="0", **MALLOC)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
              environment)


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: float = 1.0):
    """Run one workload in this process; returns its report."""
    from workloads import WORKLOADS  # imports the program: main() put it on the path

    return WORKLOADS[name](seed, seconds, traced, scale).run()


def driver_line(report) -> str:
    """The driver's result object: exactly the declared metrics, as numbers."""
    names = spec.COMMON_LAYER_NAMES if report.traced else spec.END_TO_END_NAMES
    metrics = {}
    for name in names:
        entry = report.metrics.get(name)
        value = entry["value"] if entry else math.nan
        if not math.isfinite(value):
            report.fail(f"metric {name} was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": spec.UNITS[name]}
    return json.dumps({
        "correct": report.failed == 0,
        "attempted": max(1, report.attempted),
        "failed": report.failed,
        "metrics": metrics,
    })


# ----------------------------------------------------------------------
# Ledger form
# ----------------------------------------------------------------------
def child_report(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in its own process (its RSS is its own)."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"report-{name}{'-traced' if traced else ''}.json")
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "1" if traced else "0", "--report", path,
    ]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"ledger: workload {name} exited with {completed.returncode}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def format_metric(name: str, entry, note) -> str:
    unit = spec.UNITS[name]
    if entry is None:
        return f"  {name:<48} null  ({note})"
    spread = ""
    if entry["n"] > 1 and entry["q1"] != entry["q3"]:
        spread = f"  [q1 {entry['q1']:.6g}, median {entry['median']:.6g}, q3 {entry['q3']:.6g}]"
    return f"  {name:<48} {entry['value']:>14.6g} {unit:<8} n={entry['n']}{spread}"


def print_report(report: dict) -> None:
    name = report["workload"]
    traced = report["traced"]
    print(f"\n== {name} ({'traced' if traced else 'untraced'}) seed={report['seed']} "
          f"ops_attempted={report['attempted']} ops_failed={report['failed']}")
    if traced:
        names = spec.layers_for(name)
    else:
        names = spec.END_TO_END_NAMES + spec.extras_for(name)
    for metric in names:
        print(format_metric(metric, report["metrics"].get(metric),
                            report["notes"].get(metric, "not measured")))
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def ledger(names, seed: int, seconds: float, traced: bool) -> int:
    print(json.dumps({"host": host_fingerprint()}))
    failed = 0
    for name in names:
        report = child_report(name, seed, seconds, False)
        print_report(report)
        failed += report["failed"]
        if traced:
            report = child_report(name, seed, seconds, True)
            print_report(report)
            failed += report["failed"]
    return 1 if failed else 0


def smoke(names, seed: int) -> int:
    """Every workload, untraced and traced, at 1/20 scale in this process.

    Prints one JSON document: per workload the driver's two metric sets, and
    under ``ledger_only`` the workload's own figures (a number, or ``null``
    with the reason under ``notes``).
    """
    document = {"workloads": {}}
    failed = 0
    for name in names:
        entry = {"ops_attempted": 0, "ops_failed": 0, "failures": [], "ledger_only": {},
                 "notes": {}}
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            report = run_workload(name, seed, SMOKE_SECONDS, traced, SMOKE_SCALE)
            line = json.loads(driver_line(report))
            entry[section] = {metric: body["value"] for metric, body in line["metrics"].items()}
            entry["ops_attempted"] += report.attempted
            entry["ops_failed"] += report.failed
            entry["failures"] += report.failures
            own = spec.layers_for(name)[len(spec.COMMON_LAYER_NAMES):] if traced \
                else spec.extras_for(name)
            for metric in own:
                body = report.metrics.get(metric)
                entry["ledger_only"][metric] = body["value"] if body else None
            entry["notes"].update(report.notes)
        failed += entry["ops_failed"]
        document["workloads"][name] = entry
    print(json.dumps(document))
    return 1 if failed else 0


def selfcheck(names, seed: int, seconds: float) -> int:
    """Two untraced ledgers of the same code, workload order alternated."""
    first = {name: child_report(name, seed, seconds, False) for name in names}
    second = {name: child_report(name, seed, seconds, False) for name in reversed(names)}
    verdict = 0
    print(f"{'workload':<18} {'metric':<24} {'run 1':>12} {'run 2':>12} {'gap':>8} {'bound':>6}")
    for name in names:
        for metric in spec.END_TO_END_NAMES + spec.extras_for(name):
            one, two = first[name]["metrics"].get(metric), second[name]["metrics"].get(metric)
            if one is None and two is None:
                # Not a disagreement: the run is too short to sample it.
                print(f"{name:<18} {metric:<24} {'null':>12} {'null':>12} {'':>8} {'':>6} "
                      f"SKIP ({first[name]['notes'][metric]})")
                continue
            if one is None or two is None:
                print(f"{name:<18} {metric:<24} {'null' if one is None else 'value':>12} "
                      f"{'null' if two is None else 'value':>12} {'':>8} {'':>6} FAIL")
                verdict = 1
                continue
            a, b = one["value"], two["value"]
            bound = spec.BOUNDS[metric]
            if metric in spec.ABSOLUTE_BOUNDS:
                gap = abs(a - b)
            else:
                gap = abs(a - b) / min(abs(a), abs(b)) if min(abs(a), abs(b)) else math.inf
            passed = gap <= bound
            verdict |= 0 if passed else 1
            print(f"{name:<18} {metric:<24} {a:>12.5g} {b:>12.5g} {gap:>8.3f} {bound:>6.2f} "
                  f"{'PASS' if passed else 'FAIL'}")
        for report in (first[name], second[name]):
            if report["failed"]:
                print(f"{name}: ops_failed={report['failed']} {report['failures'][:3]}")
                verdict = 1
    return verdict


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload run; giving it selects "
                             "the driver form (needs --workload)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--report", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_repo_sources()
    fix_layout()
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    if args.smoke:
        return smoke(names, args.seed)
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    if args.selfcheck:
        return selfcheck(names, args.seed, seconds)
    if args.workload and args.seconds is not None:
        report = run_workload(args.workload, args.seed, seconds, bool(args.trace))
        line = driver_line(report)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                json.dump(report.as_dict(), handle)
        print(line)
        return 0
    return ledger(names, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
