"""Execution configurations: the program *versions* of the paper's
methodology, plus the hardware-coherent baselines from related work.

Every version is declared once, as a :class:`SchemeSpec` in the
:data:`SCHEMES` registry; ``Version.ALL``, CLI choices, validation
error messages and per-version policy (cache shared data?  CRAFT
overheads?  hardware protocol?) are all derived from it, so adding a
scheme is a one-line registry entry.

* ``SEQ``    — sequential baseline: one PE, everything local and cached,
  no epoch machinery.  Table 1 speedups divide by this time.
* ``BASE``   — the paper's BASE codes: CRAFT-style software shared
  memory.  Shared data is **not cached** (that is how CRAFT avoids the
  coherence problem), every shared access pays an address-translation
  overhead, and every parallel epoch pays the ``doshared`` setup cost.
* ``CCDP``   — the optimised codes: shared data is cached, direct local
  addressing (no CRAFT overheads), and the program has been transformed
  by :func:`repro.coherence.ccdp_transform` to stay coherent.
* ``NAIVE``  — shared data cached *without* the CCDP transformation.
  Incoherent on purpose: tests use it to demonstrate that the machine
  model really does produce stale reads and wrong numbers.
* ``MESI``   — shared data cached under a snooping MESI bus protocol
  (:mod:`repro.machine.protocols.mesi`): writes invalidate remote
  copies, so the untransformed program stays coherent in hardware.
* ``DIR``    — full-map home-node directory protocol
  (:mod:`repro.machine.protocols.directory`).
* ``DIR_LP`` — the same directory with limited pointers (overflow
  falls back to broadcast invalidation).
* ``DIR_PP`` — directory with epoch-driven phase-priority request
  ordering (Li & An): requests of the current phase bypass home-node
  occupancy waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..faults.models import FaultPlan


@dataclass(frozen=True)
class SchemeSpec:
    """One coherence/execution scheme, declared exactly once."""

    name: str
    description: str
    cache_shared: bool = True    #: may shared data live in the D-cache?
    craft_overheads: bool = False  #: CRAFT software-shared-memory costs
    protocol: Optional[str] = None  #: hardware protocol kind, or None
    transformed: bool = False    #: run the CCDP-transformed program
    fuzz: bool = True            #: include in the differential fuzz matrix

    def policy(self, decl) -> Tuple[bool, bool, bool]:
        """``(cacheable, craft, prefetch_live)`` of one array: may its
        data live in the D-cache, do its references pay CRAFT costs, and
        do its prefetch and vector statements run?  Private arrays are
        cached and CRAFT-free; prefetches of shared data are timing noops
        when shared data is uncached or a hardware protocol owns the
        line states."""
        if not decl.is_shared:
            return True, False, True
        return (self.cache_shared, self.craft_overheads,
                self.cache_shared and self.protocol is None)


#: Name -> spec.  Declaration order is presentation order everywhere
#: (CLI choices, tables, fuzz matrix).
SCHEMES: Dict[str, SchemeSpec] = {
    spec.name: spec for spec in (
        SchemeSpec("seq", "sequential baseline (1 PE)"),
        SchemeSpec("base", "CRAFT software shared memory, shared uncached",
                   cache_shared=False, craft_overheads=True),
        SchemeSpec("ccdp", "compiler-directed coherence via prefetching",
                   transformed=True),
        SchemeSpec("naive", "shared cached, no coherence (stale on purpose)"),
        SchemeSpec("mesi", "snooping MESI bus protocol", protocol="mesi"),
        SchemeSpec("dir", "full-map home-node directory protocol",
                   protocol="dir"),
        SchemeSpec("dir-lp", "limited-pointer directory (broadcast overflow)",
                   protocol="dir-lp", fuzz=False),
        SchemeSpec("dir-pp", "phase-priority directory (Li & An ordering)",
                   protocol="dir-pp", fuzz=False),
    )
}


def scheme_names() -> str:
    """Comma-separated registry names, for error messages."""
    return ", ".join(SCHEMES)


class Version:
    SEQ = "seq"
    BASE = "base"
    CCDP = "ccdp"
    NAIVE = "naive"
    MESI = "mesi"
    DIR = "dir"
    DIR_LP = "dir-lp"
    DIR_PP = "dir-pp"

    ALL = tuple(SCHEMES)
    #: Versions whose final values must match SEQ bit-exactly with zero
    #: stale reads (everything but the intentionally incoherent NAIVE).
    COHERENT = tuple(name for name in SCHEMES if name != "naive")
    #: Versions driven by a hardware coherence protocol.
    PROTOCOL = tuple(name for name, spec in SCHEMES.items() if spec.protocol)


class Backend:
    REFERENCE = "reference"  #: one Python closure call per memory reference
    BATCHED = "batched"      #: bulk NumPy traces for affine loop bodies

    ALL = (REFERENCE, BATCHED)


@dataclass(frozen=True)
class ExecutionConfig:
    """Runtime knobs of one run; the scheme policy (shared caching,
    CRAFT costs, hardware protocol) derives from ``version`` alone."""

    version: str = Version.CCDP
    on_stale: str = "record"   #: "record" or "raise"
    backend: str = Backend.REFERENCE  #: "reference" or "batched"
    fault_plan: Optional[FaultPlan] = None  #: seeded fault injection, or None
    oracle: bool = False       #: arm the shadow coherence oracle
    tracer: Optional[object] = None  #: repro.obs.Tracer (machine events)

    def __post_init__(self) -> None:
        if self.version not in SCHEMES:
            raise ValueError(
                f"unknown version {self.version!r}; "
                f"expected one of {scheme_names()}")
        if self.backend not in Backend.ALL:
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of {', '.join(Backend.ALL)}")
        if self.on_stale not in ("record", "raise"):
            raise ValueError(
                f"unknown on_stale policy {self.on_stale!r}; "
                f"expected 'record' or 'raise'")
        if self.fault_plan is not None and not isinstance(self.fault_plan,
                                                          FaultPlan):
            raise ValueError(
                f"fault_plan must be a FaultPlan or None, got "
                f"{type(self.fault_plan).__name__} (build one with "
                f"repro.faults.parse_fault_plan or FaultPlan(models=...))")
        if self.tracer is not None and not callable(
                getattr(self.tracer, "emit", None)):
            raise ValueError(
                f"tracer must expose an emit(event) method, got "
                f"{type(self.tracer).__name__} (build one with "
                f"repro.obs.Tracer)")

    @property
    def spec(self) -> SchemeSpec:
        return SCHEMES[self.version]

    @property
    def cache_shared(self) -> bool:
        return self.spec.cache_shared

    @property
    def craft_overheads(self) -> bool:
        return self.spec.craft_overheads

    @property
    def protocol(self) -> Optional[str]:
        return self.spec.protocol

    @staticmethod
    def for_version(version: str, on_stale: str = "record",
                    backend: str = Backend.REFERENCE,
                    fault_plan: Optional[FaultPlan] = None,
                    oracle: bool = False,
                    tracer: Optional[object] = None) -> "ExecutionConfig":
        return ExecutionConfig(version, on_stale=on_stale, backend=backend,
                               fault_plan=fault_plan, oracle=oracle,
                               tracer=tracer)


__all__ = ["SchemeSpec", "SCHEMES", "scheme_names", "Version", "Backend",
           "ExecutionConfig"]
