"""The concurrent query service: MVCC readers over one progressive engine.

* :mod:`repro.serve.protocol` — the wire format: JSON lines, ``b1`` read frames.
* :mod:`repro.serve.sync` — the writer-preferring reader–writer lock used
  for the engine-wide write gate and the per-index work lanes.
* :mod:`repro.serve.connection` — connection classes (τ + fairness weight)
  and the per-socket request handler.
* :mod:`repro.serve.scheduler` — the :class:`ProgressiveScheduler`: work
  lanes serializing all index mutation, lock-free converged reads, τ
  admission tickets and the cross-client fairness ledger.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the threaded
  socket server and the thin synchronous client.

The heavier submodules are re-exported lazily so importing
:mod:`repro.serve` from the engine layer (which the server itself builds
on) never creates an import cycle.
"""

from repro.serve.connection import DEFAULT_CLASSES, ConnectionClass
from repro.serve.sync import RWLock

__all__ = [
    "DEFAULT_CLASSES",
    "ConnectionClass",
    "ProgressiveScheduler",
    "QueryServer",
    "RWLock",
    "ServiceClient",
    "ServiceError",
    "WorkAccount",
    "WorkLane",
]

_LAZY = {
    "ProgressiveScheduler": ("repro.serve.scheduler", "ProgressiveScheduler"),
    "WorkAccount": ("repro.serve.scheduler", "WorkAccount"),
    "WorkLane": ("repro.serve.scheduler", "WorkLane"),
    "QueryServer": ("repro.serve.server", "QueryServer"),
    "ServiceClient": ("repro.serve.client", "ServiceClient"),
    "ServiceError": ("repro.serve.client", "ServiceError"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attribute)
    globals()[name] = value
    return value
