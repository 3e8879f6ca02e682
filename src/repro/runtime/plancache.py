"""Per-(program, version, machine-params) compiled-plan cache.

The batched backend pays a real compilation cost per interpreter: every
innermost loop is planned into slot/latency/address-stream form, NumPy
latency tables are built, and the reference closures are compiled twice
(sequential + vectorised value planes).  All of that is a pure function
of ``(program, machine parameters, execution config)`` — so this module
keeps the whole *interpreter* warm across runs, keyed through
:mod:`repro.harness.progcache` content keys, and bit-exactly resets its
machine state before each reuse.  Chunk planning and address-stream
compilation are thereby paid once per process and shared across sweep
cells, benchmark rounds and repeated CLI runs.

Exactness contract: a warm run must be indistinguishable from a cold
run — values, versions, cache contents, stats, clocks, queue state and
epoch records all start from the exact post-construction state.  The
reset below therefore zeroes *in place* (compiled closures capture
views into ``values_flat``; rebinding the arrays would detach them) and
replaces every accumulator the interpreter or machine mutates.

Runs that attach per-event machinery the cached interpreter cannot
rebind — fault plans, the coherence oracle, read tracing — bypass the
cache entirely and run cold.  A machine-event tracer *is* rebindable
(every hot-path emission reads ``machine.tracer`` dynamically), so
traced and untraced runs share one warm interpreter.

Hit/miss counters live in :data:`repro.harness.progcache.COUNTERS`
(``plan_hits`` / ``plan_misses``) so sweep output can report cache
effectiveness alongside the program/transform caches.
"""

from __future__ import annotations

from collections import OrderedDict

from ..machine.stats import PEStats

#: Field -> zero value for every PEStats counter, for in-place resets
#: (cheaper than 64 fresh dataclass constructions per warm run).
_FRESH_PE_STATS = dict(PEStats().__dict__)

#: key -> (program ref, interpreter).  The program reference pins the
#: object so its ``id()`` (part of the key) can never be reused.
_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_CAPACITY = 256


def eligible(config) -> bool:
    """True when runs under ``config`` may reuse a warm interpreter."""
    return (config.backend == "batched" and config.fault_plan is None
            and not config.oracle)


def _key(program, params, config, trace_epochs: bool) -> tuple:
    from ..harness.progcache import content_key
    return (id(program),
            content_key("plan", params,
                        [config.version, config.on_stale, config.backend,
                         bool(config.cache_shared),
                         bool(config.craft_overheads)],
                        bool(trace_epochs)))


def _counters() -> dict:
    from ..harness.progcache import COUNTERS
    return COUNTERS


def fetch(program, params, config, trace_epochs: bool = False):
    """A reset, ready-to-run warm interpreter, or ``None`` on miss."""
    key = _key(program, params, config, trace_epochs)
    hit = _CACHE.get(key)
    counters = _counters()
    if hit is None:
        counters["plan_misses"] = counters.get("plan_misses", 0) + 1
        return None
    counters["plan_hits"] = counters.get("plan_hits", 0) + 1
    _CACHE.move_to_end(key)
    _, interp = hit
    _reset(interp, config)
    return interp


def store(program, params, config, trace_epochs, interp) -> None:
    """Admit a freshly built interpreter for future warm reuse."""
    _CACHE[_key(program, params, config, trace_epochs)] = (program, interp)
    while len(_CACHE) > _CAPACITY:
        _CACHE.popitem(last=False)


def clear() -> None:
    _CACHE.clear()


def size() -> int:
    return len(_CACHE)


def _reset(interp, config) -> None:
    """Restore the exact post-construction machine/interpreter state."""
    machine = interp.machine
    memory = machine.memory
    memory.values_flat[:] = 0.0
    memory.versions_flat[:] = 0
    for arr in memory.private_values.values():
        arr[:] = 0.0
    # One fill per stacked plane clears every PE's cache at once; the
    # per-PE cache arrays are row views of these planes (Machine builds
    # them that way and DirectMappedCache mutates in place).
    machine.cache_tags.fill(-1)
    machine.cache_data.fill(0.0)
    machine.cache_vers.fill(0)
    machine.clocks.fill(0.0)
    for pe in machine.pes:
        queue = pe.queue
        queue.entries = []
        queue.dropped = 0
        queue.issued = 0
        queue.high_water = 0
        vectors = pe.vectors
        vectors.transfers = []
        vectors.issued = 0
        pe.last_prefetch_pe = None
        pe.dropped_lines = set()
        # Zero the counters in place: machine.stats.per_pe aliases these
        # objects, so no rebinding is needed anywhere.
        pe.stats.__dict__.update(_FRESH_PE_STATS)
    if machine.protocol is not None:
        machine.protocol.reset()
    st = machine.stats
    st.stale_reads = 0
    st.stale_examples = []
    st.barriers = 0
    st.epochs = 0
    machine._epoch_writers = {}
    machine.races = 0
    machine.race_examples = []
    # The tracer is the one config field allowed to differ between the
    # cached and requesting configs; every emission site reads it
    # dynamically, so rebinding here retargets the whole run.
    machine.tracer = config.tracer
    interp.config = config
    interp.epochs = []
    interp._synced = True
    for ctx in interp._loop_ctx.values():
        ctx.values.clear()
    for ctx in interp._reg_stack:
        ctx.values.clear()
    interp.batch_chunks = 0
    interp.batch_fallbacks = 0
    interp.fault_fallbacks = 0
    interp.batch_refs = 0
    interp.fallback_reasons = {}


__all__ = ["eligible", "fetch", "store", "clear", "size"]
