"""Bulk (vectorized) primitives for the batched execution backend.

The heart of this module is :func:`classify_events`: an exact direct-mapped
cache simulation over a whole read trace.  It runs as a handful of NumPy
array operations using a *shifted comparison*: sort reads by cache set
(stable); every read installs its line, so a read hits iff it repeats the
previous line of its set-run, or the set's initial resident line at the
start of a run.  No Python loop.

:func:`replay_chunk` is the prefetch replay engine: an exact scan over
one chunk's events (one cost row per slot, one line and home PE per
event) that reproduces the reference machine's prefetch semantics —
invalidate-before-prefetch, the DTB chain, queue occupancy/coalescing/
reclaim, capacity-drop → bypass-fetch degradation (paper rule 2),
extract-vs-late arrival stalls and vector-transfer stalls — and its
stale-line semantics (a fresh word of a stale line hits; a stale word is
a hazard) without touching the live machine.  The batched runtime
commits its outcome wholesale, or discards it untouched when the scan
flags a hazard.

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
(stats, stalls, clock, tags, prefetch state, refill of the touched lines
or, after a scan, of the lines it installed plus the words it wrote);
both the batched backend and trace replay end every bulk run in it.

Also here: :func:`latency_table`, the one memoised per-home cost vector
per ``(pe, kind, extra)`` that turns the machine's scalar cost model into
O(1) indexing inside scan loops, and the bulk cache refill and stale-line
helpers the commit, the chunk guards and trace replay use.
"""

from __future__ import annotations

import math
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
RE_COST = 0   # fixed-cost event (uncached read, uncacheable write)
RE_READ = 1   # cacheable read (hit / extract / miss / drop-bypass)
RE_WRITE = 2  # cacheable write-through (ghost-dirty hazard detection)
RE_PF = 3     # line prefetch (invalidate + queue issue); line -1: bare issue

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
REC_DTB_FLAG = 16      # OR'd onto pf codes: the issue paid a DTB setup


@dataclass
class ReplayOutcome:
    """Result of one exact prefetch-replay scan over a chunk's events.

    ``hazard`` names a state the scan cannot commit exactly, and the
    caller must fall back to the reference path: ``"replay_hazard"``, a
    write-through into a line invalidated earlier in the same chunk
    (whose ghost contents would then diverge from final memory), or
    ``"stale_overlap"``, a read of a stale cached word.  Nothing in the
    scan mutates live machine state, so a hazard costs only the scan."""

    hazard: Optional[str]
    clock: float = 0.0
    busy: float = 0.0
    tags: Optional[tuple] = None           #: (sets, lines) that changed
    queue: Optional[List[PrefetchEntry]] = None  #: final queue entries
    dropped: Optional[set] = None          #: final dropped-line set (rule 2)
    q_issued: int = 0                      #: PrefetchQueue.issued delta
    q_dropped: int = 0                     #: PrefetchQueue.dropped delta
    q_hw: int = 0                          #: queue high-water during the scan
    last_pf: Optional[int] = None          #: home of the last issue (DTB)
    stalls: Optional[List[tuple]] = None   #: ordered (code, cycles)
    fills: Optional[list] = None           #: (set, (line, array)) installed
    patches: Optional[list] = None         #: (set, (line, array, words))
    counters: Optional[dict] = None        #: PEStats deltas from the scan


def replay_chunk(rows: Sequence[tuple], n_iter: int, lines: Sequence[int],
                 homes: Sequence[int], pe: int, tags0: np.ndarray,
                 n_lines: int, clock0: float, tail: float,
                 queue0: Sequence[PrefetchEntry], queue_cap: int,
                 dropped0, transfers: Sequence,
                 cache_hit: float, extract_cost: float,
                 reclaim_lag: float, issue_cost: float = 0.0,
                 dtb_cost: float = 0.0, last_pf: Optional[int] = None,
                 addrs: Sequence[int] = (), stale: Optional[tuple] = None,
                 record: Optional[list] = None,
                 busy0: float = 0.0) -> ReplayOutcome:
    """Exact scan of one chunk's replay events against shadow PE state.

    Mirrors ``Machine.read`` / ``write`` / ``prefetch_line`` event by
    event — same costs, queue coalesce/capacity/reclaim rules, DTB chain
    and stall resolution — against *copies* of the PE's tags, prefetch
    queue and dropped-line set.  The events are ``n_iter`` repetitions
    of ``rows``, one ``(kind, pre, table, utable, invalidate, array)``
    per slot: ``pre`` is charged before the event, which costs
    ``table[h]`` for its home PE ``h`` (a miss for RE_READ, the fill
    latency for RE_PF); ``utable``, set on shared reads only, prices a
    dropped-prefetch bypass.  ``lines``, ``homes`` and ``addrs`` (word
    addresses, for RE_WRITE and the stale check) hold one entry per
    event, iteration-major; home -1 is private data, which the tables
    price at this PE's cost.  ``tail`` is charged after each iteration.

    A set ends holding either a line the chunk installed (a miss or an
    extract: ``fills``, refilled from final memory at commit) or the
    line it held at the start, which gains only the chunk's
    write-throughs (``patches``) and keeps any stale word.
    Invalidate-before-prefetch freezes a line's data with the tag
    cleared (a *ghost*); a later write-through into it would diverge
    from that data: the ``replay_hazard``.  With ``stale`` — ``(cached
    versions, memory versions, line words)`` where a remote write may
    have left words stale — a read hit on a start line's stale word the
    chunk did not write is the ``stale_overlap`` hazard.

    With ``record`` (one ``REC_NONE`` per event) the scan writes one
    ``REC_*`` code per RE_READ / RE_PF event for event synthesis.
    ``transfers`` are the PE's vector transfers; ``busy0`` seeds the
    busy sum, so the PE's live busy cycles come back added in event
    order.
    """
    tags = tags0.tolist()
    queue = list(queue0)
    # The queue holds one entry per line; qlines mirrors its lines and
    # qmin bounds its arrivals from below (reclaim is a no-op above it).
    qlines = {e.line_addr for e in queue}
    qmin = min([e.arrival for e in queue], default=math.inf)
    dropped = set(dropped0)
    fills: dict = {}         # set -> (line, array) installed by the chunk
    patches: dict = {}       # set -> (line, array, words) of a start line
    ghosts: dict = {}        # set -> line the chunk invalidated there
    if stale is not None:
        vers, mem_vers, lw = stale
    stalls: List[tuple] = []
    # (line_lo, line_hi, completion) of the vector transfers, or none
    # when all have completed: the clock never runs back to a stall.
    tlist: Sequence[tuple] = ()
    for t in transfers:
        if t.completion > clock0:
            tlist = [(t.line_lo, t.line_hi, t.completion) for t in transfers]
            break

    hits = misses = local_fills = remote_fills = 0
    drop_bypass = extracted = dtb_setups = 0
    pf_issued = pf_dropped = invalidations = 0
    q_issued = q_dropped = 0
    q_hw = len(queue)
    rec = record is not None
    clock = clock0
    busy = busy0
    i = -1

    for _ in range(n_iter):
        for k, p, tab, utab, inval, array in rows:
            i += 1
            if p:
                clock += p
                busy += p
            if k == RE_COST:
                c = tab[homes[i]]
                clock += c
                busy += c
                continue
            line = lines[i]
            if k == RE_READ:
                h = homes[i]
                if utab is not None and line in dropped:
                    # Paper rule 2: a dropped prefetch degrades this use
                    # to a one-shot bypass fetch (no install, no hit/miss
                    # counters).
                    dropped.discard(line)
                    c = utab[h]
                    clock += c
                    busy += c
                    drop_bypass += 1
                    if rec:
                        record[i] = REC_DROP_BYPASS
                    continue
                s = line % n_lines
                if tags[s] == line:
                    if stale is not None and s not in fills:
                        a = addrs[i]
                        if vers[s, a % lw] < mem_vers[a] and (
                                s not in patches or a not in patches[s][2]):
                            return ReplayOutcome(hazard="stale_overlap")
                    if tlist:
                        best = 0.0
                        found = False
                        for (t_lo, t_hi, t_comp) in tlist:
                            if t_lo <= line <= t_hi and (
                                    not found or t_comp < best):
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
                if line in qlines:
                    qi = 0
                    while queue[qi].line_addr != line:
                        qi += 1
                    arrival = queue[qi].arrival
                    if arrival > clock:
                        stalls.append((STALL_LATE, arrival - clock))
                        clock = arrival
                    clock += extract_cost
                    busy += extract_cost
                    del queue[qi]
                    qlines.discard(line)
                    extracted += 1
                    if rec:
                        record[i] = REC_EXTRACT
                else:
                    c = tab[h]
                    clock += c
                    busy += c
                    misses += 1
                    if rec:
                        record[i] = REC_MISS
                    if h == pe or h < 0:
                        local_fills += 1
                    else:
                        remote_fills += 1
                tags[s] = line
                fills[s] = (line, array)
                if patches:
                    patches.pop(s, None)
                if ghosts:
                    ghosts.pop(s, None)
                continue
            if k == RE_WRITE:
                c = tab[homes[i]]
                clock += c
                busy += c
                s = line % n_lines
                if ghosts and ghosts.get(s) == line:
                    # Write-through into a ghosted line: the reference
                    # cache keeps pre-write contents, final memory would
                    # not.
                    return ReplayOutcome(hazard="replay_hazard")
                if tags[s] == line and s not in fills:
                    patch = patches.get(s)
                    if patch is None:
                        patch = patches[s] = (line, array, [])
                    patch[2].append(addrs[i])
                continue
            # RE_PF: an out-of-bounds look-ahead is a bare issue; else
            # invalidate-before-prefetch, DTB chain, then queue issue.
            if line < 0:
                clock += issue_cost
                busy += issue_cost
                continue
            h = homes[i]
            if h < 0:
                h = pe
            c = issue_cost
            flags = 0
            if h != last_pf:
                c += dtb_cost
                dtb_setups += 1
                last_pf = h
                flags = REC_DTB_FLAG
            s = line % n_lines
            if inval and tags[s] == line:
                tags[s] = -1
                invalidations += 1
                ghosts[s] = line
                flags |= REC_KILL_FLAG
            clock += c
            busy += c
            if qmin <= clock - reclaim_lag:
                lim = clock - reclaim_lag
                queue = [e for e in queue if e.arrival > lim]
                qlines = {e.line_addr for e in queue}
                qmin = min([e.arrival for e in queue], default=math.inf)
            if line in qlines:
                accepted = True          # coalesced: no new entry, no counters
                code = REC_PF_COALESCE
            elif len(queue) >= queue_cap:
                q_dropped += 1
                accepted = False
                code = REC_PF_DROP
            else:
                arrival = clock + tab[h]
                queue.append(PrefetchEntry(line, array, arrival, clock, h))
                qlines.add(line)
                if arrival < qmin:
                    qmin = arrival
                q_issued += 1
                accepted = True
                code = REC_PF_ISSUE
                if len(queue) > q_hw:
                    q_hw = len(queue)
            if rec:
                record[i] = code | flags
            if accepted:
                pf_issued += 1
                dropped.discard(line)
            else:
                pf_dropped += 1
                dropped.add(line)
        if tail:
            clock += tail
            busy += tail

    changed = fills.keys() | ghosts.keys()
    return ReplayOutcome(
        hazard=None, clock=clock, busy=busy,
        tags=(list(changed), [tags[s] for s in changed]), queue=queue,
        dropped=dropped, q_issued=q_issued, q_dropped=q_dropped, q_hw=q_hw,
        last_pf=last_pf, stalls=stalls, fills=list(fills.items()),
        patches=list(patches.items()),
        counters={
            "cache_hits": hits, "cache_misses": misses,
            "local_fills": local_fills, "remote_fills": remote_fills,
            "pf_drop_bypass": drop_bypass, "prefetch_extracted": extracted,
            "prefetch_issued": pf_issued, "pf_dropped": pf_dropped,
            "invalidations": invalidations, "dtb_setups": dtb_setups,
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
               scan: Optional[ReplayOutcome] = None) -> None:
    """Apply one bulk-priced run of PE ``pe``'s events to the live machine.

    ``deltas`` are the run's :class:`PEStats` counter deltas, ``busy``
    and ``clock`` the PE's final busy cycles and clock, ``stalls`` the
    pricer's ordered ``(code, cycles)`` waits (added one at a time, as
    ``wait_until`` does) and ``tags`` the changed tags as ``(sets,
    lines)`` (None: nothing changed, or a protocol scan wrote them in
    place).  ``lines`` (sorted, distinct, shared) and ``private``
    (``(array, lines)`` pairs) are the lines the run touched: those
    still resident are refilled from final memory, so the caller applies
    the run's writes first.  ``scan`` is a prefetch scan's outcome
    instead: its queue, dropped lines and DTB home go live, its fills
    are refilled and its patches written."""
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
        if type(tags[0]) is list:  # a scan's diff: a few sets
            for s, line in zip(*tags):
                cache.tags[s] = line
        else:
            cache.tags[tags[0]] = tags[1]
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
    if scan is None:
        return
    queue = pe_obj.queue
    queue.replace_entries(scan.queue)
    queue.issued += scan.q_issued
    queue.dropped += scan.q_dropped
    if scan.q_hw > queue.high_water:
        queue.high_water = scan.q_hw
    pe_obj.dropped_lines = scan.dropped
    pe_obj.last_prefetch_pe = scan.last_pf
    # A shared line is a slice of the line-aligned flat backing; a
    # private line is always fresh, so a patch refills it whole.
    values, versions = memory.values_flat, memory.versions_flat
    lw = cache.line_words
    decls = memory.decls
    data, vers = cache.data, cache.vers
    sets, lines = [], []
    for s, (line, array) in scan.fills:
        if decls[array].is_shared:
            sets.append(s)
            lines.append(line)
        else:
            data[s], vers[s] = contents(array, line, pe)
    if len(sets) > 4:  # the gathers' fixed cost pays off above 4 lines
        data[sets] = values.reshape(-1, lw)[lines]
        vers[sets] = versions.reshape(-1, lw)[lines]
    else:
        for s, w in zip(sets, lines):
            w *= lw
            data[s] = values[w:w + lw]
            vers[s] = versions[w:w + lw]
    for s, (line, array, words) in scan.patches:
        if decls[array].is_shared:
            for w in words:
                data[s, w - line * lw] = values[w]
                vers[s, w - line * lw] = versions[w]
        else:
            data[s], vers[s] = contents(array, line, pe)


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
    memory, over the whole cache.  Trace replay routes a segment op that
    touches one of these to the reference path."""
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


def touches_stale(cache, versions_flat: np.ndarray, lines) -> bool:
    """True when any of the distinct ``lines`` is resident with a word
    whose cached version lags memory: O(len(lines)), whatever the cache
    size."""
    ln = np.asarray(lines, dtype=np.int64)
    ix = ln % cache.n_lines
    res = cache.tags[ix] == ln
    if not res.any():
        return False
    lw = cache.line_words
    addrs = ln[res, None] * lw + np.arange(lw, dtype=np.int64)
    return bool((cache.vers[ix[res]] < versions_flat[addrs]).any())


__all__ = [
    "READ", "WRITE", "INSTALL",
    "OUT_HIT", "OUT_MISS",
    "RE_COST", "RE_READ", "RE_WRITE", "RE_PF",
    "STALL_VECTOR", "STALL_LATE",
    "REC_NONE", "REC_HIT", "REC_EXTRACT", "REC_MISS", "REC_DROP_BYPASS",
    "REC_PF_ISSUE", "REC_PF_COALESCE", "REC_PF_DROP", "REC_KILL_FLAG",
    "REC_DTB_FLAG",
    "EventClassification", "classify_events",
    "ReplayOutcome", "replay_chunk", "protocol_scan", "commit_run",
    "latency_table", "bulk_fill_lines", "stale_lines", "live_stale_lines",
    "touches_stale",
]
