"""The package layering of ``repro``: imports only go downward.

``storage`` → ``core`` → ``progressive``/``cracking`` → ``engine`` →
``persist``/``shard`` → ``serve``, with the small shared packages below
(``errors``, ``obs``, ``kernels``) and the drivers above.  Every import
counts, function-local ones too.  The back edges that exist are listed in
``BACK_EDGES``; a new one fails here, and a listed one that is gone fails
too, so the list only shrinks.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

#: Package -> level; a module may import its own level and below.
LEVELS = {
    "errors": 0, "obs": 0, "kernels": 1, "storage": 2, "core": 3, "btree": 4,
    "progressive": 5, "cracking": 5, "baselines": 5, "workloads": 5,
    "engine": 6, "experiments": 7, "extensions": 7, "persist": 7, "shard": 7,
    "serve": 8, "__init__": 9, "__main__": 9,
}

#: (module, package it reaches up into), as they stand.
BACK_EDGES = {
    ("repro.storage.column", "persist"),
    ("repro.storage.membudget", "persist"),
    ("repro.core.calibration", "progressive"),
    ("repro.engine.registry", "shard"),
    ("repro.engine.session", "shard"),
    ("repro.engine.shared", "serve"),
    ("repro.persist.database", "serve"),
}


def module_names() -> list:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
    return sorted(names)


def package_of(name: str) -> str:
    parts = name.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def imported_packages(name: str) -> set:
    """The ``repro`` packages module ``name`` imports, anywhere in it."""
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            targets = [node.module]
            if node.module == "repro":
                targets = [f"repro.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {package_of(target) for target in targets if target.startswith("repro.")}
    return found


def edges() -> set:
    return {
        (name, target)
        for name in module_names()
        for target in imported_packages(name)
        if LEVELS[target] > LEVELS[package_of(name)]
    }


def test_every_module_imports_and_has_a_level():
    for name in module_names():
        importlib.import_module(name)
        assert package_of(name) in LEVELS, name


def test_imports_only_go_down():
    assert edges() - BACK_EDGES == set()


def test_every_listed_back_edge_still_exists():
    assert BACK_EDGES - edges() == set()
