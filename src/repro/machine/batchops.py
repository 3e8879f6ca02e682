"""Bulk (vectorized) primitives for the batched execution backend.

The heart of this module is :func:`classify_events`: an exact direct-mapped
cache simulation over a whole read trace.  It runs as a handful of NumPy
array operations using a *shifted comparison*: sort reads by cache set
(stable); every read installs its line, so a read hits iff it repeats the
previous line of its set-run, or the set's initial resident line at the
start of a run.  No Python loop.

:func:`replay_chunk` is the prefetch replay engine: an exact, allocation-free
scan over one batched chunk's pre-classified events that reproduces the
reference machine's prefetch semantics — invalidate-before-prefetch, queue
occupancy/coalescing/reclaim, capacity-drop → bypass-fetch degradation
(paper rule 2), extract-vs-late arrival stalls and vector-transfer stalls —
without touching the live machine.  The batched runtime commits its outcome
wholesale, or discards it untouched when the scan flags a hazard.

:func:`protocol_scan` is the same idea under a hardware protocol: one pass
over a PE's events in program order, read hits and owner writes charged
inline, every other shared miss or write priced by the protocol itself at
the event's exact clock.  The batched backend's protocol chunks and trace
replay under mesi/dir both run it.

:func:`classify_events` takes ``initial_tags`` so a trace can be classified
against a *warm* cache — this is what lets the batched backend splice bulk
chunks into the middle of a simulation without touching per-word state.
With ``initial_tags=None`` it answers cold-cache questions instead: ``ccdp
profile`` uses it for a read trace's hit rate, its miss rate under other
cache sizes, and its most-conflicted sets.

:func:`commit_run` applies any of these priced runs to the live machine
(stats, stalls, clock, tags, prefetch state, refill of the touched lines);
both the batched backend and trace replay end every bulk run in it.

Also here: :func:`latency_table`, the one memoised per-home cost vector
per ``(pe, kind, extra)`` that turns the machine's scalar cost model into
O(1) indexing inside scan loops, and the bulk cache refill and stale-line
helpers the commit and the chunk guards use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .prefetchq import PrefetchEntry

# Event kinds of protocol_scan.
READ = 0
WRITE = 1
INSTALL = 2

# Outcome codes per read.
OUT_HIT = 0
OUT_MISS = 1


@dataclass
class EventClassification:
    """Exact outcome of replaying a read trace against a direct-mapped cache.

    ``changed_sets`` lists the cache sets whose resident line after the
    trace differs from the initial state, with ``changed_lines`` the new
    resident line per such set."""

    outcomes: np.ndarray       # int8 per read: OUT_HIT / OUT_MISS
    changed_sets: np.ndarray   # int64, sets whose final resident line changed
    changed_lines: np.ndarray  # int64, final resident line per changed set


def classify_events(line_addrs: np.ndarray, n_lines: int,
                    initial_tags: Optional[np.ndarray] = None) -> EventClassification:
    """Replay the reads of ``line_addrs`` against a direct-mapped cache.

    ``initial_tags`` is the resident line per set before the trace (-1
    empty); ``None`` means a cold cache.  Every read installs its line.
    """
    line_addrs = np.asarray(line_addrs, dtype=np.int64)
    n = line_addrs.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return EventClassification(np.empty(0, dtype=np.int8), empty,
                                   empty.copy())
    sets = line_addrs % n_lines  # already int64 from the asarray above
    if initial_tags is None:
        init = np.full(n_lines, -1, dtype=np.int64)
    else:
        init = np.asarray(initial_tags, dtype=np.int64)
    if n_lines <= 0x7FFF:
        # Radix-sorting narrow keys is markedly cheaper; set indices
        # always fit in int16 for realistic cache geometries.
        order = np.argsort(sets.astype(np.int16), kind="stable")
    else:
        order = np.argsort(sets, kind="stable")
    ss = sets[order]
    sl = line_addrs[order]

    # Segment start per set-run (reads of one set stay in trace order).
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = ss[1:] != ss[:-1]

    hit = np.empty(n, dtype=bool)
    hit[0] = True
    np.equal(sl[1:], sl[:-1], out=hit[1:])
    starts = np.flatnonzero(seg_start)
    hit[starts] = init[ss[starts]] == sl[starts]
    outcomes = np.empty(n, dtype=np.int8)
    outcomes[order] = np.where(hit, np.int8(OUT_HIT), np.int8(OUT_MISS))

    # Final resident line per touched set: the last read of its run.
    seg_last = np.empty(n, dtype=bool)
    seg_last[-1] = True
    seg_last[:-1] = seg_start[1:]
    csets = ss[seg_last]
    fin = sl[seg_last]
    changed = fin != init[csets]
    return EventClassification(outcomes, csets[changed], fin[changed])


# -- prefetch replay scan engine ---------------------------------------------

# Replay event kinds (distinct from trace kinds above: replay events carry
# per-event costs and are interleaved with queue/transfer state).
RE_COST = 0   # fixed-cost event (uncached read, uncacheable write, OOB prefetch)
RE_READ = 1   # cacheable read (hit / extract / miss / drop-bypass)
RE_WRITE = 2  # cacheable write-through (ghost-dirty hazard detection)
RE_PF = 3     # in-bounds line prefetch (invalidate + queue issue)

# Stall codes in ReplayOutcome.stalls (the commit step must apply idle time
# per stall, in order, exactly as the reference interpreter does).
STALL_VECTOR = 0    # read raced an in-flight vector transfer
STALL_LATE = 1      # read arrived before its prefetch (late-arrival wait)

# Dynamic-outcome record codes (machine-event synthesis in the batched
# backend): replay_chunk fills one code per RE_READ / RE_PF event when the
# caller passes a ``record`` list, so the commit step can synthesise the
# exact event stream the reference interpreter would have emitted.
REC_NONE = -1          # event emits nothing (RE_COST slots keep this)
REC_HIT = 0            # read_hit
REC_EXTRACT = 1        # pf_complete (queue extract at the use point)
REC_MISS = 2           # read_miss
REC_DROP_BYPASS = 3    # bypass_fetch kind="pf_drop" (paper rule 2)
REC_PF_ISSUE = 4       # pf_issue
REC_PF_COALESCE = 5    # pf_coalesce
REC_PF_DROP = 6        # pf_drop (queue capacity)
REC_KILL_FLAG = 8      # OR'd onto pf codes: invalidate killed a resident line


@dataclass
class ReplayOutcome:
    """Result of one exact prefetch-replay scan over a chunk's events.

    ``hazard`` means the scan detected a state it cannot commit exactly (a
    write-through into a line invalidated earlier in the same chunk, whose
    ghost contents would then diverge from final memory); the caller must
    fall back to the reference path.  Nothing in the scan mutates live
    machine state, so a hazard costs only the scan itself."""

    hazard: bool
    clock: float = 0.0
    busy: float = 0.0
    tags: Optional[List[int]] = None       #: final per-set resident lines
    queue: Optional[List[tuple]] = None    #: (line, arrival, issued_at, home, array)
    dropped: Optional[set] = None          #: final dropped-line set (rule 2)
    q_issued: int = 0                      #: PrefetchQueue.issued delta
    q_dropped: int = 0                     #: PrefetchQueue.dropped delta
    q_hw: int = 0                          #: queue high-water during the scan
    stalls: Optional[List[tuple]] = None   #: ordered (code, cycles)
    ghosts: Optional[List[tuple]] = None   #: (set, line, array) needing refill
    counters: Optional[dict] = None        #: PEStats deltas from the scan


def replay_chunk(kinds: np.ndarray, pre: np.ndarray, cost: np.ndarray,
                 lines: np.ndarray, misscost: np.ndarray, unccost: np.ndarray,
                 localf: np.ndarray, sharedf: np.ndarray, fill: np.ndarray,
                 home: np.ndarray, invalf: np.ndarray, slot_of: np.ndarray,
                 slot_arrays: Sequence[Optional[str]],
                 tags0: np.ndarray, n_lines: int, clock0: float, tail: float,
                 queue0: Sequence[tuple], queue_cap: int,
                 dropped0, transfers: Sequence[tuple],
                 cache_hit: float, extract_cost: float,
                 reclaim_lag: float,
                 record: Optional[list] = None,
                 busy0: float = 0.0) -> ReplayOutcome:
    """Exact scan of one chunk's replay events against shadow PE state.

    Mirrors ``Machine.read`` / ``Machine.prefetch_line`` event by event —
    same costs, same queue coalesce/capacity/reclaim rules, same stall
    resolution — but against *copies* of the PE's tags, prefetch queue and
    dropped-line set.  ``pre[i]`` is the fixed (arith/overhead) cost charged
    before event *i*; ``tail`` is charged once after the last event.

    Invalidate-before-prefetch leaves *ghost sets*: the tag is cleared but
    the reference cache keeps the line's data frozen at invalidation time.
    The scan tracks ghosts so the commit step can refill them from final
    memory — exact as long as no later write-through dirtied the ghost line,
    which is precisely the hazard this function detects.

    When ``record`` (a mutable sequence of length ``n``, prefilled with
    ``REC_NONE``) is supplied, the scan writes one ``REC_*`` code per
    RE_READ / RE_PF event so the caller can synthesise the exact machine
    events the reference path would have emitted.

    Per-event inputs may be arrays or sequences.  ``busy0`` seeds the busy
    sum, so a caller that passes the PE's live busy cycles gets them back
    added in event order.
    """
    n = len(kinds)
    kl, prel, costl, linel, missl, uncl, locl, shrl, filll, homel, invl, \
        slotl = (a.tolist() if isinstance(a, np.ndarray) else a
                 for a in (kinds, pre, cost, lines, misscost, unccost,
                           localf, sharedf, fill, home, invalf, slot_of))

    tags = tags0.tolist()
    queue = list(queue0)
    dropped = set(dropped0)
    ghosts: dict = {}        # set index -> (line, array)
    ghost_lines: set = set()
    stalls: List[tuple] = []
    tlist = list(transfers)  # (line_lo, line_hi, completion)

    hits = misses = local_fills = remote_fills = 0
    drop_bypass = extracted = 0
    pf_issued = pf_dropped = invalidations = 0
    q_issued = q_dropped = 0
    q_hw = len(queue)
    rec = record is not None
    clock = clock0
    busy = busy0

    for i in range(n):
        p = prel[i]
        if p:
            clock += p
            busy += p
        k = kl[i]
        if k == RE_COST:
            c = costl[i]
            clock += c
            busy += c
            continue
        line = linel[i]
        if k == RE_READ:
            if shrl[i] and line in dropped:
                # Paper rule 2: a dropped prefetch degrades this use to a
                # one-shot bypass fetch (no install, no hit/miss counters).
                dropped.discard(line)
                c = uncl[i]
                clock += c
                busy += c
                drop_bypass += 1
                if rec:
                    record[i] = REC_DROP_BYPASS
                continue
            s = line % n_lines
            if tags[s] == line:
                if tlist:
                    best = 0.0
                    found = False
                    for (t_lo, t_hi, t_comp) in tlist:
                        if t_lo <= line <= t_hi and (not found or t_comp < best):
                            best = t_comp
                            found = True
                    if found and best > clock:
                        stalls.append((STALL_VECTOR, best - clock))
                        clock = best
                clock += cache_hit
                busy += cache_hit
                hits += 1
                if rec:
                    record[i] = REC_HIT
                continue
            qi = -1
            for j in range(len(queue)):
                if queue[j][0] == line:
                    qi = j
                    break
            if qi >= 0:
                arrival = queue[qi][1]
                if arrival > clock:
                    stalls.append((STALL_LATE, arrival - clock))
                    clock = arrival
                clock += extract_cost
                busy += extract_cost
                del queue[qi]
                extracted += 1
                tags[s] = line
                if s in ghosts:
                    ghost_lines.discard(ghosts.pop(s)[0])
                if rec:
                    record[i] = REC_EXTRACT
                continue
            c = missl[i]
            clock += c
            busy += c
            misses += 1
            if rec:
                record[i] = REC_MISS
            if locl[i]:
                local_fills += 1
            else:
                remote_fills += 1
            tags[s] = line
            if s in ghosts:
                ghost_lines.discard(ghosts.pop(s)[0])
            continue
        if k == RE_WRITE:
            c = costl[i]
            clock += c
            busy += c
            if ghost_lines and line in ghost_lines:
                # Write-through into a ghosted line: the reference cache
                # keeps pre-write contents, final memory would not.
                return ReplayOutcome(hazard=True)
            continue
        # RE_PF: invalidate-before-prefetch, then queue issue.
        s = line % n_lines
        kflag = 0
        if invl[i] and tags[s] == line:
            tags[s] = -1
            invalidations += 1
            ghosts[s] = (line, slot_arrays[slotl[i]])
            ghost_lines.add(line)
            kflag = REC_KILL_FLAG
        c = costl[i]
        clock += c
        busy += c
        if queue:
            lim = clock - reclaim_lag
            keep = [e for e in queue if e[1] > lim]
            if len(keep) != len(queue):
                queue = keep
        found = False
        for e in queue:
            if e[0] == line:
                found = True
                break
        if found:
            accepted = True          # coalesced: no new entry, no counters
            code = REC_PF_COALESCE
        elif len(queue) >= queue_cap:
            q_dropped += 1
            accepted = False
            code = REC_PF_DROP
        else:
            queue.append((line, clock + filll[i], clock, homel[i],
                          slot_arrays[slotl[i]]))
            q_issued += 1
            accepted = True
            code = REC_PF_ISSUE
            if len(queue) > q_hw:
                q_hw = len(queue)
        if rec:
            record[i] = code | kflag
        if accepted:
            pf_issued += 1
            dropped.discard(line)
        else:
            pf_dropped += 1
            dropped.add(line)
    clock += tail
    busy += tail

    return ReplayOutcome(
        hazard=False, clock=clock, busy=busy, tags=tags, queue=queue,
        dropped=dropped, q_issued=q_issued, q_dropped=q_dropped, q_hw=q_hw,
        stalls=stalls, ghosts=[(s, g[0], g[1]) for s, g in ghosts.items()],
        counters={
            "cache_hits": hits, "cache_misses": misses,
            "local_fills": local_fills, "remote_fills": remote_fills,
            "pf_drop_bypass": drop_bypass, "prefetch_extracted": extracted,
            "prefetch_issued": pf_issued, "pf_dropped": pf_dropped,
            "invalidations": invalidations,
        })


def protocol_scan(proto, pe: int, clock: float, busy: float,
                  pre: Sequence[float], kinds: Sequence[int],
                  lines: Sequence[int], homes: Sequence[int],
                  costs: Sequence[float]) -> tuple:
    """Exact scan of one PE's events under a hardware protocol; returns
    ``(clock, busy, hits, local_fills)`` after the last event.

    Events run in order against a list copy of the tags.  ``pre[i]`` is
    charged before event *i*.  A READ hit costs ``cache_hit``; a READ
    miss on a private line (``homes[i] < 0``) costs ``costs[i]``, and a
    shared miss costs the protocol's ``read_miss`` plus ``costs[i]`` (the
    CRAFT extra).  An INSTALL is a cacheable shared write: inline when
    this PE owns the line (the table's silent owner entry), otherwise the
    protocol's ``write``; either way the line ends resident.  Any other
    kind is a fixed cost, ``costs[i]``.  Each protocol call sees the
    event's exact clock with the event's set restored to its pre-event
    tag.  Only this PE acts during the scan, so no other PE's state, the
    bus or the home horizons can move between two of its events.  The
    caller refills the data of touched lines and counts the rest.
    """
    tags = proto.tags[pe]
    tl = tags.tolist()
    nl = proto.nl
    ch = proto.params.cache_hit
    wl = proto.params.write_local
    read_miss = proto.read_miss
    write = proto.write
    st = proto.st[pe]
    owned = proto.owner_state
    hits = lf = 0
    for p, k, line, h, c in zip(pre, kinds, lines, homes, costs):
        if p:
            clock += p
            busy += p
        if k == READ:
            s = line % nl
            if tl[s] == line:
                clock += ch
                busy += ch
                hits += 1
                continue
            if h < 0:
                lf += 1
            else:
                lf += h == pe
                tags[s] = tl[s]
                c += read_miss(pe, line, h, clock)
            tl[s] = line
        elif k == INSTALL:
            s = line % nl
            if tl[s] == line and st[s] == line << 2 | owned:
                c = wl
            else:
                tags[s] = tl[s]
                c = write(pe, line, h, clock)
                tl[s] = line
        clock += c
        busy += c
    tags[:] = tl
    return clock, busy, hits, lf


def commit_run(machine, pe: int, deltas: dict, busy: float, clock: float,
               stalls: Sequence[tuple] = (), tags=None, lines=(),
               private: Sequence[tuple] = (),
               scan: Optional[ReplayOutcome] = None,
               last_prefetch: Optional[int] = None) -> None:
    """Apply one bulk-priced run of PE ``pe``'s events to the live machine.

    ``deltas`` are the run's :class:`PEStats` counter deltas, ``busy``
    and ``clock`` the PE's final busy cycles and clock, ``stalls`` the
    pricer's ordered ``(code, cycles)`` waits (added one at a time, as
    ``wait_until`` does) and ``tags`` the new tags as ``(sets, lines)``:
    a diff, or ``slice(None)`` and a scan's full list (None: nothing
    changed, or a protocol scan wrote them in place).  ``scan``
    is a prefetch scan's outcome, whose queue, dropped lines and ghost
    sets go live, with ``last_prefetch`` the home of its last issue.
    ``lines`` (sorted, distinct, shared) and ``private`` (``(array,
    lines)`` pairs) are the lines the run touched: those still resident
    are refilled from final memory, so the caller applies the run's
    writes first."""
    pe_obj = machine.pes[pe]
    st = pe_obj.stats
    st.add_bulk(**deltas)
    st.busy_cycles = busy
    for code, s in stalls:
        s = float(s)
        st.idle_cycles += s
        if code == STALL_VECTOR:
            st.vector_stall_cycles += s
        else:
            st.prefetch_late_cycles += s
    pe_obj.clock = clock
    cache = pe_obj.cache
    if tags is not None:
        cache.tags[tags[0]] = tags[1]
    if scan is not None:
        queue = pe_obj.queue
        queue.replace_entries(
            PrefetchEntry(line_addr=ln, array=ar, arrival=arr,
                          issued_at=isd, home_pe=hm)
            for (ln, arr, isd, hm, ar) in scan.queue)
        queue.issued += scan.q_issued
        queue.dropped += scan.q_dropped
        if scan.q_hw > queue.high_water:
            queue.high_water = scan.q_hw
        pe_obj.dropped_lines = scan.dropped
        if last_prefetch is not None:
            pe_obj.last_prefetch_pe = last_prefetch
    memory = machine.memory
    if len(lines):
        bulk_fill_lines(cache, lines, memory.values_flat,
                        memory.versions_flat)
    contents = machine._line_contents  # private lines: zero-padded
    for array, arr_lines in private:
        for line in arr_lines:
            s = line % cache.n_lines
            if cache.tags[s] == line:
                cache.data[s], cache.vers[s] = contents(array, line, pe)
    if scan is not None:
        # Ghost sets (invalidated, tag already -1) keep data frozen at
        # invalidation time; hazard-free means no later write dirtied
        # the line, so refilling from final memory reproduces it.
        for (s, line, array) in scan.ghosts:
            cache.data[s], cache.vers[s] = contents(array, line, pe)


# -- latency tables ----------------------------------------------------------

def latency_table(machine, pe: int, kind: str, extra: float = 0.0
                  ) -> np.ndarray:
    """Cost per home PE of one access by ``pe``, CRAFT ``extra`` included:
    ``kind`` "r" is a cache-miss read (``Machine.read_latency``), "w" a
    shared write (``Machine.write_latency``) and "u" an uncached or bypass
    read (a local one streams at ``uncached_local_read``).  Memoised on
    the machine per ``(pe, kind, extra)``; scan loops index it (or its
    ``tolist()``) instead of the scalar cost model."""
    key = (pe, kind, extra)
    table = machine.latency_tables.get(key)
    if table is None:
        p = machine.params
        cost = machine.write_latency if kind == "w" else machine.read_latency
        table = machine.latency_tables[key] = np.array(
            [(p.uncached_local_read if kind == "u" and owner == pe
              else cost(pe, owner)) + extra for owner in range(p.n_pes)],
            dtype=np.float64)
    return table


# -- bulk cache refill helpers ----------------------------------------------

def bulk_fill_lines(cache, lines: Sequence[int],
                    values_flat: np.ndarray, versions_flat: np.ndarray) -> None:
    """Refill whole cache lines from the flat memory backing.

    Only lines still resident (tag match) are filled — callers pass the set
    of lines installed during a batched chunk, some of which may have been
    evicted again before the chunk ended."""
    lw = cache.line_words
    nl = cache.n_lines
    if len(lines) > 8:  # NumPy's ~9 us fixed cost pays off near 8 lines
        ln = np.asarray(lines, dtype=np.int64)
        ix = ln % nl
        ok = cache.tags[ix] == ln
        if not bool(ok.any()):
            return
        ln = ln[ok]
        ix = ix[ok]
        word_ix = ln[:, None] * lw + np.arange(lw, dtype=np.int64)
        cache.data[ix] = values_flat[word_ix]
        cache.vers[ix] = versions_flat[word_ix]
        return
    for line in lines:
        ix = line % nl
        if cache.tags[ix] == line:
            base = line * lw
            cache.data[ix, :] = values_flat[base:base + lw]
            cache.vers[ix, :] = versions_flat[base:base + lw]


_EMPTY_LINES = np.empty(0, dtype=np.int64)


def stale_lines(cache, versions_flat: np.ndarray) -> np.ndarray:
    """Resident line addresses holding any word whose cached version lags
    memory.  The batched backend falls back only when one of these lines
    intersects a line the chunk itself touches; disjoint stale residue is
    harmless (chunk reads hit fresh lines, the commit refills only chunk
    lines, so the stale data survives untouched — exactly as the scalar
    interpreter would leave it)."""
    valid = np.flatnonzero(cache.tags >= 0)
    if not valid.size:
        return _EMPTY_LINES
    lw = cache.line_words
    lines = cache.tags[valid]
    addrs = lines[:, None] * lw + np.arange(lw, dtype=np.int64)
    mask = (cache.vers[valid] < versions_flat[addrs]).any(axis=1)
    if not mask.any():
        return _EMPTY_LINES
    return lines[mask]


def live_stale_lines(machine, pe: int) -> np.ndarray:
    """:func:`stale_lines` of PE ``pe``'s cache, or none without a scan
    where no resident copy can be stale: only a remote write leaves a
    copy behind memory, so never on one PE, and a hardware protocol
    kills remote copies."""
    if machine.protocol is not None or len(machine.pes) == 1:
        return _EMPTY_LINES
    return stale_lines(machine.pes[pe].cache, machine.memory.versions_flat)


__all__ = [
    "READ", "WRITE", "INSTALL",
    "OUT_HIT", "OUT_MISS",
    "RE_COST", "RE_READ", "RE_WRITE", "RE_PF",
    "STALL_VECTOR", "STALL_LATE",
    "REC_NONE", "REC_HIT", "REC_EXTRACT", "REC_MISS", "REC_DROP_BYPASS",
    "REC_PF_ISSUE", "REC_PF_COALESCE", "REC_PF_DROP", "REC_KILL_FLAG",
    "EventClassification", "classify_events",
    "ReplayOutcome", "replay_chunk", "protocol_scan", "commit_run",
    "latency_table", "bulk_fill_lines", "stale_lines", "live_stale_lines",
]
