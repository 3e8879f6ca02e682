"""Bounded explicit-state exploration of the protocol transition tables.

Each protocol runs the one table in its class (``MESIProtocol.table``,
``DirectoryProtocol.table``).  This suite drives the real machine, so
the code under test is the code the simulator runs.  It goes
breadth-first over every (PE, line, read/write) operation, from the
cold state until no new state appears.  The machines are small enough
to enumerate: 2-3 PEs and one 3-line shared array on 2-set caches, so
the array's first and last lines share a set and conflict evictions
are reached too.

States are deduplicated on the protocol's per-set state arrays and
holder masks, the cache tags and the directory records.  Clocks and
the bus and home-controller horizons are not part of a state.  At every
reachable state the suite checks:

* single writer: at most one live M copy per line;
* E/M exclusive: a live E or M copy is the only live copy;
* dirty => owner in M: a live M copy is the directory's recorded owner,
  and a recorded owner holds M unless its copy was silently evicted
  (the next request reconciles that);
* live copies are a subset of the sharers, unless the limited-pointer
  broadcast bit is set;
* every live copy holds memory's current words and versions, and no
  read was stale (the machine's counter and the shadow oracle).
"""

import time

import pytest

from repro.ir.arrays import ArrayDecl
from repro.machine.machine import Machine
from repro.machine.params import t3d
from repro.machine.protocols.base import E, I, M, RD, WR
from repro.machine.protocols.directory import DirEntry

CASES = [
    # (protocol, PEs, machine overrides)
    ("mesi", 3, {}),
    ("dir", 3, {}),
    ("dir-lp", 3, {"dir_ptr_limit": 1}),
    ("dir-pp", 2, {}),
]


def state_key(m):
    """Tags, per-set states, holder masks and directory records."""
    p = m.protocol
    entries = getattr(p, "entries", {})
    return (b"".join(pe.cache.tags.tobytes() for pe in m.pes),
            tuple(map(tuple, p.st)),
            tuple(sorted(p.holders.items())),
            tuple(sorted((line, (e.sharers, e.owner, e.bcast))
                         for line, e in entries.items())))


def snapshot(m):
    p = m.protocol
    caches = [(pe.cache.tags.copy(), pe.cache.data.copy(),
               pe.cache.vers.copy()) for pe in m.pes]
    return (caches, m.memory.values_flat.copy(), m.memory.versions_flat.copy(),
            m.oracle.shadow["a"].copy(), [row[:] for row in p.st],
            dict(p.holders),
            [(line, (e.sharers, e.owner, e.bcast))
             for line, e in getattr(p, "entries", {}).items()],
            dict(getattr(p, "home_of", {})))


def restore(m, snap):
    caches, values, versions, shadow, st, holders, entries, home_of = snap
    for pe, (tags, data, vers) in zip(m.pes, caches):
        pe.cache.tags[:] = tags
        pe.cache.data[:] = data
        pe.cache.vers[:] = vers
    m.memory.values_flat[:] = values
    m.memory.versions_flat[:] = versions
    m.oracle.shadow["a"][:] = shadow
    p = m.protocol
    for row, saved in zip(p.st, st):
        row[:] = saved
    p.holders.clear()
    p.holders.update(holders)
    if hasattr(p, "entries"):
        p.entries.clear()
        p.entries.update((line, DirEntry(*rec)) for line, rec in entries)
        p.home_of.clear()
        p.home_of.update(home_of)


def check_invariants(m, lines, path):
    p = m.protocol
    lw = m.params.line_words
    for line in lines:
        s = line % p.nl
        live = {q: p._code(q, line) for q in range(p.n_pes)
                if p._code(q, line) != I}
        writers = [q for q, code in live.items() if code == M]
        where = f"line {line} after {path}: {live}"
        assert len(writers) <= 1, f"two writers, {where}"
        if any(code in (E, M) for code in live.values()):
            assert len(live) == 1, f"E/M not exclusive, {where}"
        words = slice(line * lw, (line + 1) * lw)
        for q in live:
            cache = m.pes[q].cache
            assert (cache.vers[s] == m.memory.versions_flat[words]).all(), \
                f"PE{q} holds an old version, {where}"
            assert (cache.data[s] == m.memory.values_flat[words]).all(), \
                f"PE{q} holds old data, {where}"
            assert p.holders.get(line, 0) >> q & 1, f"PE{q} not a holder, {where}"
        entry = getattr(p, "entries", {}).get(line)
        if not hasattr(p, "entries"):
            continue
        if writers:
            assert entry is not None and entry.owner == writers[0], \
                f"live M copy is not the recorded owner, {where}"
        if entry is not None and entry.dirty:
            assert p._code(entry.owner, line) in (M, I), \
                f"dirty owner PE{entry.owner} not in M, {where}"
        if live and not (entry is not None and entry.bcast):
            assert entry is not None and all(
                entry.sharers >> q & 1 for q in live), \
                f"live copy outside the sharers, {where}"


def explore(kind, n_pes, overrides):
    probe = t3d(n_pes)
    lw = probe.line_words
    params = t3d(n_pes, cache_bytes=2 * probe.line_bytes, **overrides)
    m = Machine([ArrayDecl("a", (3 * lw,))], params, oracle=True,
                protocol=kind)
    flats = [0, lw, 2 * lw]
    lines = [m.addr_map.addr("a", f) // lw for f in flats]
    nl = m.params.n_lines
    assert lines[0] % nl == lines[2] % nl != lines[1] % nl
    ops = [(pe, k, write) for pe in range(n_pes) for k in range(3)
           for write in (False, True)]
    seen = {state_key(m): ()}
    frontier = [(snapshot(m), state_key(m), ())]
    cells = set()
    bcast = False
    value = 0.0
    while frontier:
        found = []
        for snap, snap_key, path in frontier:
            moved = True
            for pe, k, write in ops:
                if moved:
                    restore(m, snap)
                cells.add((m.protocol._code(pe, lines[k]), WR if write else RD))
                if write:
                    value += 1.0
                    m.write(pe, "a", flats[k], value)
                else:
                    m.read(pe, "a", flats[k])
                assert m.stats.stale_reads == 0
                new_key = state_key(m)
                # A read that left the state as it was (a hit) changed
                # nothing but clocks: the next op needs no restore.
                moved = write or new_key != snap_key
                if new_key in seen:
                    continue
                new_path = path + ((pe, k, "w" if write else "r"),)
                seen[new_key] = new_path
                check_invariants(m, lines, new_path)
                bcast = bcast or any(rec[2] for _, rec in new_key[3])
                found.append((snapshot(m), new_key, new_path))
        frontier = found
    return m, len(seen), cells, bcast


@pytest.mark.parametrize("kind,n_pes,overrides", CASES,
                         ids=[case[0] for case in CASES])
def test_exploration_reaches_fixpoint_with_invariants(kind, n_pes, overrides):
    t0 = time.perf_counter()
    m, n_states, cells, bcast = explore(kind, n_pes, overrides)
    elapsed = time.perf_counter() - t0
    table = m.protocol.table
    # Every (state, event) the table defines was taken, and so was every
    # read hit: reads in a valid state never reach the protocol.
    defined = {(code, WR) for code, row in enumerate(table)
               if row[WR] is not None}
    assert defined | {(code, RD) for code, _ in defined} == cells
    assert m.oracle.violations == 0 and m.oracle.confirmed_stale == 0
    stats = m.stats.per_pe
    assert sum(s.c2c_transfers for s in stats) > 0
    assert sum(s.writebacks for s in stats) > 0
    assert sum(s.coh_invalidations for s in stats) > 0
    if kind == "mesi":
        assert sum(s.silent_upgrades for s in stats) > 0
    if kind == "dir-lp":
        assert bcast and sum(s.dir_broadcasts for s in stats) > 0
    assert n_states > 100
    assert elapsed < 10.0, f"{kind}: {n_states} states in {elapsed:.1f} s"
