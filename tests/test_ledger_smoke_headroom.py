"""The ledger's smoke assertions, with a ``durable_mixed`` tape long enough.

``benchmarks/ledger/test_ledger_smoke.py`` replays ``durable_mixed`` for a
fixed wall-clock time from a fixed 4 000-operation tape, which the pending-read
path uses up on a fast host (see the root ``conftest.py``).  This runs that
test's own assertions over the same smoke document, the one difference being
``durable_mixed``'s scale: 0.25 instead of 0.05, a 10 000-operation tape.
Every name, every oracle check and ``ops_failed == 0`` still have to hold.
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "benchmarks", "ledger")

#: ``run.smoke`` for the other four workloads as the ledger runs them, then for
#: ``durable_mixed`` at the larger scale; one merged document on stdout.
SMOKE_WITH_HEADROOM = """
import contextlib, io, json, sys
sys.path.insert(0, {ledger!r})
import run, spec
run.use_repo_sources()

def smoke(names):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run.smoke(names, {seed})
    return status, json.loads(out.getvalue().strip().splitlines()[-1])

status, document = smoke([name for name in spec.WORKLOADS if name != "durable_mixed"])
run.SMOKE_SCALE = 0.25
durable_status, durable = smoke(["durable_mixed"])
document["workloads"].update(durable["workloads"])
print(json.dumps(document))
sys.exit(status or durable_status)
"""


def test_smoke_assertions_hold_when_the_tape_is_long_enough(monkeypatch):
    sys.path.insert(0, LEDGER)
    try:
        import test_ledger_smoke as ledger_test
    finally:
        sys.path.remove(LEDGER)
    run_process = subprocess.run

    def run_with_headroom(command, **options):
        seed = int(command[command.index("--seed") + 1])
        script = SMOKE_WITH_HEADROOM.format(ledger=LEDGER, seed=seed)
        return run_process([sys.executable, "-c", script], **options)

    monkeypatch.setattr(ledger_test.subprocess, "run", run_with_headroom)
    ledger_test.test_smoke_run_reports_exactly_the_declared_names()

