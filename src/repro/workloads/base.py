"""Workload infrastructure: a registry of the paper's four application
case studies, each with an IR builder and a NumPy oracle.

A :class:`WorkloadSpec` builds the *source* program (the parallelised
code, before any version-specific handling); the harness derives the
SEQ / BASE / NAIVE versions by execution configuration and the CCDP
version through :func:`repro.coherence.ccdp_transform`.

The oracle mirrors the IR computation exactly (same recurrences, same
initialisation formulas) in NumPy, so every run — any version, any PE
count — can be checked for numerical correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir.program import Program


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark program from the paper's evaluation."""

    name: str
    description: str
    build: Callable[..., Program]
    oracle: Callable[..., Dict[str, np.ndarray]]
    check_arrays: Tuple[str, ...]
    default_args: Dict[str, int]
    paper_args: Dict[str, int]
    suite: str = ""   #: "SPEC CFP92" or "SPEC CFP95"

    def build_default(self, **overrides) -> Program:
        args = {**self.default_args, **overrides}
        return self.build(**args)


_REGISTRY: Dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec) -> WorkloadSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate workload {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def workload(name: str) -> WorkloadSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; have {sorted(_REGISTRY)}") from None


def all_workloads() -> List[WorkloadSpec]:
    return list(_REGISTRY.values())


def check_result(result_arrays: Dict[str, np.ndarray],
                 oracle_arrays: Dict[str, np.ndarray],
                 check: Sequence[str], rtol: float = 1e-9,
                 atol: float = 1e-9) -> Optional[str]:
    """Compare run output against the oracle; returns an error message or
    ``None`` when everything matches."""
    for name in check:
        got = result_arrays[name]
        want = oracle_arrays[name]
        if got.shape != want.shape:
            return f"{name}: shape {got.shape} != {want.shape}"
        if not np.allclose(got, want, rtol=rtol, atol=atol):
            bad = np.argwhere(~np.isclose(got, want, rtol=rtol, atol=atol))
            i = tuple(bad[0])
            return (f"{name}: mismatch at {i}: got {got[i]!r}, "
                    f"want {want[i]!r} ({len(bad)} elements differ)")
    return None


__all__ = ["WorkloadSpec", "register", "workload", "all_workloads",
           "check_result"]
