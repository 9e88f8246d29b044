"""Compile ``kernels.c`` once per toolchain and host, and cache the result.

The shared object lives in ``$XDG_CACHE_HOME/repro-kernels`` (``~/.cache``
by default; a private temporary directory when that is not writable) under a
name keyed on everything that decides what ``cc -march=native`` emits: the
source, the flags, ``cc --version``, the machine and its CPU flags.  It is
built under a temporary name and published with ``os.replace``, so processes
racing on a cold cache each publish a complete file and all load one.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")
FLAGS = ("-O3", "-march=native", "-fPIC", "-shared")


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            return next((line for line in handle if line.startswith("flags")), "")
    except OSError:
        return ""


def _cache_key(source: bytes) -> str:
    version = subprocess.run(
        ["cc", "--version"], check=True, capture_output=True, timeout=30
    ).stdout
    parts = (source, " ".join(FLAGS).encode(), version,
             platform.machine().encode(), _cpu_flags().encode())
    return hashlib.sha256(b"\0".join(parts)).hexdigest()[:32]


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-kernels")


def _scratch_file(name: str) -> str:
    """An empty file beside where ``name`` will be published: in the cache
    directory, or in a private temporary one when that is not writable."""
    directory = _cache_dir()
    try:
        os.makedirs(directory, exist_ok=True)
        fd, scratch = tempfile.mkstemp(prefix=name + ".", dir=directory)
    except OSError:
        directory = tempfile.mkdtemp(prefix="repro-kernels-")
        atexit.register(shutil.rmtree, directory, ignore_errors=True)
        fd, scratch = tempfile.mkstemp(prefix=name + ".", dir=directory)
    os.close(fd)
    return scratch


def load_library() -> tuple[ctypes.CDLL, str]:
    """The compiled kernels and the path they were loaded from.

    Raises :class:`OSError` or :class:`subprocess.SubprocessError` when
    there is no ``cc``, it fails, or the result cannot be loaded.
    """
    with open(SOURCE, "rb") as handle:
        name = f"kernels-{_cache_key(handle.read())}.so"
    path = os.path.join(_cache_dir(), name)
    if not os.path.exists(path):
        scratch = _scratch_file(name)
        path = os.path.join(os.path.dirname(scratch), name)
        try:
            subprocess.run(["cc", *FLAGS, "-o", scratch, SOURCE],
                           check=True, capture_output=True, timeout=300)
            os.replace(scratch, path)
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
    return ctypes.CDLL(path), path
