"""Content-addressed in-process cache for built programs, oracles and
CCDP transforms.

Building a workload's IR and running the CCDP compiler are pure
functions of (workload name, size arguments) and (program, machine
parameters, CCDP overrides) respectively, and both are reused many
times per process: every version run of a sweep shares one built
program, every PE count shares one oracle, and benchmark sessions
rebuild the same handful of programs across modules.  This module
memoises them under *content keys* — canonical JSON of every input that
affects the result, hashed with SHA-256 — so equal inputs hit the cache
regardless of which caller (CLI, sweep worker, benchmark fixture)
produced them, and unequal inputs can never collide on a partial key.

The cache is per-process by design.  Parallel sweep workers each carry
their own copy (populated on first use, or inherited pre-warmed via
``fork``), so no cross-process locking or shared mutable state exists;
determinism follows because the cached values are themselves pure.

Programs and transform results are returned *shared*, not cloned: the
runtime treats IR as immutable (the interpreters never mutate a
program), which is the same contract ``ExperimentRunner`` has always
relied on when reusing ``self.program`` across runs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from ..machine.params import MachineParams

log = logging.getLogger("repro.progcache")

_PROGRAMS: Dict[str, object] = {}
_ORACLES: Dict[str, dict] = {}
_TRANSFORMS: Dict[str, Tuple[object, object]] = {}

#: Cache effectiveness counters (observable by tests and diagnostics).
#: ``plan_hits`` has no cache behind it and always reads 0; it remains
#: only because the cold-process benchmark's state guard reads it.
COUNTERS = {"program_hits": 0, "program_misses": 0,
            "oracle_hits": 0, "oracle_misses": 0,
            "transform_hits": 0, "transform_misses": 0,
            "plan_hits": 0}


def _canonical(value):
    """Reduce a key component to canonical JSON-encodable form."""
    if isinstance(value, MachineParams):
        return {k: _canonical(v) for k, v in sorted(asdict(value).items())}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Fall back to repr for exotic override values; repr equality is a
    # conservative (never falsely equal) stand-in for content equality.
    return repr(value)


def content_key(*parts) -> str:
    """SHA-256 over the canonical JSON encoding of ``parts``."""
    blob = json.dumps(_canonical(parts), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def get_program(spec, size_args: Dict[str, int]):
    """Memoised ``spec.build(**size_args)``."""
    key = content_key("program", spec.name, size_args)
    if key not in _PROGRAMS:
        COUNTERS["program_misses"] += 1
        _PROGRAMS[key] = spec.build(**size_args)
    else:
        COUNTERS["program_hits"] += 1
    return _PROGRAMS[key]


def get_oracle(spec, size_args: Dict[str, int]) -> dict:
    """Memoised ``spec.oracle(**size_args)`` (NumPy reference results)."""
    key = content_key("oracle", spec.name, size_args)
    if key not in _ORACLES:
        COUNTERS["oracle_misses"] += 1
        _ORACLES[key] = spec.oracle(**size_args)
    else:
        COUNTERS["oracle_hits"] += 1
    return _ORACLES[key]


def get_transform(name: str, size_args: Dict[str, int], program,
                  params: MachineParams, ccdp_overrides: Dict[str, object]):
    """Memoised ``ccdp_transform(program, CCDPConfig(machine=params)
    .with_(**ccdp_overrides))`` → ``(transformed_program, CCDPReport)``.

    ``program`` must be the build for ``(name, size_args)``; the key is
    derived from those plus the *full* machine description, so two
    parameter sets differing in any field (PE count, cache size, queue
    slots, ...) can never share a transform.
    """
    key = content_key("ccdp", name, size_args, params, ccdp_overrides)
    if key not in _TRANSFORMS:
        from ..coherence import CCDPConfig, ccdp_transform
        COUNTERS["transform_misses"] += 1
        config = CCDPConfig(machine=params).with_(**ccdp_overrides)
        _TRANSFORMS[key] = ccdp_transform(program, config)
    else:
        COUNTERS["transform_hits"] += 1
    return _TRANSFORMS[key]


def result_digest(data: bytes) -> str:
    """SHA-256 of a serialized result payload — the verification token
    the farm journal stores next to every ``done`` record."""
    return hashlib.sha256(data).hexdigest()


class DiskStore:
    """Content-addressed on-disk result store (``<farm_dir>/results``).

    One pickled payload per content key, written atomically (temp file
    + ``fsync`` + ``rename``) so a ``kill -9`` at any instant leaves
    either the complete old state or the complete new state — never a
    torn entry a resume could trust.

    Reads are *paranoid by design*: a missing file, a short read, a
    digest mismatch or an unpicklable payload logs a warning, evicts
    the entry, and returns ``None`` — the caller recomputes.  Corrupt
    caches may cost work; they can never crash a sweep or smuggle a
    wrong result past the digest check.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pkl"

    # -- writing -------------------------------------------------------
    def put_bytes(self, key: str, data: bytes) -> str:
        """Atomically store ``data`` under ``key``; returns its digest."""
        path = self.path_for(key)
        tmp = path.with_name(f".{key}.{os.getpid()}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return result_digest(data)

    def put(self, key: str, obj: object) -> Tuple[str, bytes]:
        data = pickle.dumps(obj)
        return self.put_bytes(key, data), data

    # -- reading -------------------------------------------------------
    def _evict(self, key: str, why: str) -> None:
        log.warning("result store %s: evicting %s (%s); will recompute",
                    self.root, key[:16], why)
        try:
            self.path_for(key).unlink()
        except OSError:
            pass

    def get_bytes(self, key: str,
                  expect_digest: Optional[str] = None) -> Optional[bytes]:
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._evict(key, f"unreadable: {exc}")
            return None
        if expect_digest is not None and result_digest(data) != expect_digest:
            self._evict(key, "digest mismatch (corrupt or truncated entry)")
            return None
        return data

    def get(self, key: str,
            expect_digest: Optional[str] = None) -> Optional[object]:
        """Verified unpickle of ``key``'s entry, or ``None`` (evicting
        on any corruption)."""
        data = self.get_bytes(key, expect_digest)
        if data is None:
            return None
        try:
            return pickle.loads(data)
        except Exception as exc:
            self._evict(key, f"bad pickle: {exc!r}")
            return None


def clear() -> None:
    """Drop every cached artifact (tests; memory pressure)."""
    _PROGRAMS.clear()
    _ORACLES.clear()
    _TRANSFORMS.clear()
    for k in COUNTERS:
        COUNTERS[k] = 0


__all__ = ["content_key", "get_program", "get_oracle", "get_transform",
           "result_digest", "DiskStore", "clear", "COUNTERS"]
