"""Protocol litmus suite: every state x event transition cell, driven
table-style against the MESI and directory protocols.

Each cell is one registered function asserting three things about one
``(state, event)`` pair: the next state, the bus/directory messages
emitted (as typed tracer events), and the cycle cost charged to the
acting PE.  Completeness tests assert the registries cover 100% of the
transition tables:

* MESI: states {M, E, S, I} x events {PrRd, PrWr, BusRd, BusRdX,
  BusUpgr, Evict}.  Cells whose precondition cannot arise (a BusUpgr
  snooped in M or E would need another sharer while we hold the line
  exclusively) assert the protocol invariant that forbids them.
* Directory: local states {M, S, I} x events {PrRd, PrWr, RemoteRd,
  RemoteWr, Evict}.

Cross-PE interleavings the ISSUE calls out — write-after-read
invalidation, E->M silent upgrade, dirty cache-to-cache supply,
limited-pointer overflow -> broadcast, phase-priority bypass — are the
scenario tests at the bottom.

Topology note: ``a`` is a (4, 8) BLOCK_LAST array at 4 PEs, so flats
0-7 live on PE0 (lines 1-2 of the global line space), 8-15 on PE1,
16-23 on PE2, 24-31 on PE3.  With ``cache_bytes=128`` (4 lines per
cache) lines 1 and 5 conflict in the same set, which the eviction
cells exploit.
"""

import pytest

from repro.ir.arrays import ArrayDecl
from repro.machine.machine import Machine
from repro.machine.params import t3d
from repro.obs import Tracer

PROTO_KINDS = ("bus_tx", "coh_wb", "silent_upgrade", "coh_inval",
               "dir_req", "dir_bcast")


def make(protocol, n_pes=4, cache_bytes=512):
    params = t3d(n_pes, cache_bytes=cache_bytes)
    return Machine([ArrayDecl("a", (4, 8))], params, tracer=Tracer(),
                   protocol=protocol)


def line(m, flat):
    return m.addr_map.addr("a", flat) // m.params.line_words


def msg(m, p, q):
    return m.params.dir_msg_base + m.params.remote_per_hop * m.torus.hops(p, q)


class Probe:
    """Clock/stat/event deltas around one action on one PE."""

    def __init__(self, m, pe):
        self.m, self.pe = m, pe
        self.clock0 = m.pes[pe].clock
        self.mark = len(m.tracer.events)

    @property
    def cost(self):
        return self.m.pes[self.pe].clock - self.clock0

    @property
    def events(self):
        return [e for e in self.m.tracer.events[self.mark:]
                if e[0] in PROTO_KINDS]


# -- state constructors ----------------------------------------------------
def to_E(m, pe, flat):
    m.read(pe, "a", flat)
    assert m.protocol.state(pe, line(m, flat)) == "E"


def to_S(m, pe, other, flat):
    m.read(pe, "a", flat)
    m.read(other, "a", flat)
    assert m.protocol.state(pe, line(m, flat)) == "S"
    assert m.protocol.state(other, line(m, flat)) == "S"


def to_M(m, pe, flat):
    m.write(pe, "a", flat, 1.0)
    assert m.protocol.state(pe, line(m, flat)) == "M"


# -- MESI transition table -------------------------------------------------
MESI_STATES = ("M", "E", "S", "I")
MESI_EVENTS = ("PrRd", "PrWr", "BusRd", "BusRdX", "BusUpgr", "Evict")
MESI_CELLS = {}


def mesi_cell(state, event):
    def deco(fn):
        MESI_CELLS[(state, event)] = fn
        return fn
    return deco


@mesi_cell("I", "PrRd")
def _i_prrd():
    # Cold read with no other holder: BusRd, memory supplies, -> E.
    m = make("mesi")
    p = Probe(m, 0)
    m.read(0, "a", 0)
    assert m.protocol.state(0, line(m, 0)) == "E"
    assert p.events == [("bus_tx", 0, "busrd", line(m, 0), 0)]
    assert p.cost == m.params.bus_cycle + m.params.local_mem
    assert m.pes[0].stats.bus_rd == 1


@mesi_cell("I", "PrWr")
def _i_prwr():
    # Write miss: BusRdX write-allocates the line in M.
    m = make("mesi")
    ln = line(m, 0)
    p = Probe(m, 0)
    m.write(0, "a", 0, 2.5)
    assert m.protocol.state(0, ln) == "M"
    assert m.pes[0].cache.tags[ln % m.pes[0].cache.n_lines] == ln
    assert p.events == [("bus_tx", 0, "busrdx", ln, 0)]
    assert p.cost == (m.params.bus_cycle + m.params.local_mem
                      + m.params.write_local)
    # the installed line holds the just-written value
    assert m.read(0, "a", 0) == 2.5
    assert m.pes[0].stats.cache_hits == 1


@mesi_cell("I", "BusRd")
def _i_busrd():
    # A remote BusRd is no business of a non-holder.
    m = make("mesi")
    ln = line(m, 0)
    m.read(1, "a", 0)
    assert m.protocol.state(0, ln) == "I"


@mesi_cell("I", "BusRdX")
def _i_busrdx():
    # No holders anywhere: BusRdX invalidates nothing (no coh_inval).
    m = make("mesi")
    p = Probe(m, 1)
    m.write(1, "a", 0, 1.0)
    assert m.protocol.state(0, line(m, 0)) == "I"
    assert [e for e in p.events if e[0] == "coh_inval"] == []


@mesi_cell("I", "BusUpgr")
def _i_busupgr():
    # PE2 and PE1 share; PE1 upgrades.  Bystander PE0 stays I.
    m = make("mesi")
    to_S(m, 1, 2, 0)
    m.write(1, "a", 0, 1.0)
    assert m.protocol.state(0, line(m, 0)) == "I"
    assert m.protocol.state(1, line(m, 0)) == "M"


@mesi_cell("I", "Evict")
def _i_evict():
    # Installing over an empty set retires no victim: no coh_wb.
    m = make("mesi", cache_bytes=128)
    p = Probe(m, 0)
    m.read(0, "a", 0)
    assert [e for e in p.events if e[0] == "coh_wb"] == []


@mesi_cell("E", "PrRd")
def _e_prrd():
    m = make("mesi")
    to_E(m, 0, 0)
    p = Probe(m, 0)
    m.read(0, "a", 0)
    assert m.protocol.state(0, line(m, 0)) == "E"
    assert p.events == []
    assert p.cost == m.params.cache_hit


@mesi_cell("E", "PrWr")
def _e_prwr():
    # The paper-perfect silent upgrade: E->M without a bus transaction.
    m = make("mesi")
    to_E(m, 0, 0)
    p = Probe(m, 0)
    m.write(0, "a", 0, 3.0)
    assert m.protocol.state(0, line(m, 0)) == "M"
    assert p.events == [("silent_upgrade", 0, line(m, 0))]
    assert p.cost == m.params.write_local
    assert m.pes[0].stats.silent_upgrades == 1
    assert m.pes[0].stats.bus_upgr == 0


@mesi_cell("E", "BusRd")
def _e_busrd():
    # Clean sharing: both end S, memory (not c2c) supplies.
    m = make("mesi")
    to_E(m, 0, 0)
    p = Probe(m, 1)
    m.read(1, "a", 0)
    assert m.protocol.state(0, line(m, 0)) == "S"
    assert m.protocol.state(1, line(m, 0)) == "S"
    assert p.events == [("bus_tx", 1, "busrd", line(m, 0), 0)]
    assert m.pes[1].stats.c2c_transfers == 0


@mesi_cell("E", "BusRdX")
def _e_busrdx():
    # Clean invalidation: no writeback, one copy killed.
    m = make("mesi")
    ln = line(m, 0)
    to_E(m, 0, 0)
    p = Probe(m, 1)
    m.write(1, "a", 0, 1.0)
    assert m.protocol.state(0, ln) == "I"
    assert m.pes[0].cache.tags[ln % m.pes[0].cache.n_lines] != ln
    assert ("coh_inval", 1, ln, 1) in p.events
    assert [e for e in p.events if e[0] == "coh_wb"] == []


@mesi_cell("E", "BusUpgr")
def _e_busupgr():
    # Invariant cell: E means no other cache holds the line, so no
    # peer can be in S to issue a BusUpgr.
    m = make("mesi")
    to_E(m, 0, 0)
    assert m.protocol._live_others(0, line(m, 0)) == []


@mesi_cell("E", "Evict")
def _e_evict():
    # Clean victim: silently dropped, no writeback.
    m = make("mesi", cache_bytes=128)
    to_E(m, 0, 0)            # line 1
    p = Probe(m, 0)
    m.read(0, "a", 16)       # line 5 conflicts with line 1 (4-line cache)
    assert m.protocol.state(0, line(m, 0)) == "I"
    assert [e for e in p.events if e[0] == "coh_wb"] == []


@mesi_cell("S", "PrRd")
def _s_prrd():
    m = make("mesi")
    to_S(m, 0, 1, 0)
    p = Probe(m, 0)
    m.read(0, "a", 0)
    assert m.protocol.state(0, line(m, 0)) == "S"
    assert p.events == []
    assert p.cost == m.params.cache_hit


@mesi_cell("S", "PrWr")
def _s_prwr():
    # Write-after-read invalidation: BusUpgr kills the other copy.
    m = make("mesi")
    ln = line(m, 0)
    to_S(m, 0, 1, 0)
    p = Probe(m, 0)
    stall0 = m.pes[0].stats.bus_stall_cycles
    m.write(0, "a", 0, 4.0)
    assert m.protocol.state(0, ln) == "M"
    assert m.protocol.state(1, ln) == "I"
    assert p.events == [("bus_tx", 0, "busupgr", ln, 0),
                        ("coh_inval", 0, ln, 1)]
    stall = m.pes[0].stats.bus_stall_cycles - stall0
    assert p.cost == stall + m.params.bus_cycle + m.params.write_local
    assert m.pes[0].stats.bus_upgr == 1
    assert m.pes[0].stats.coh_invalidations == 1


@mesi_cell("S", "BusRd")
def _s_busrd():
    # More sharers: everyone stays S.
    m = make("mesi")
    to_S(m, 0, 1, 0)
    m.read(2, "a", 0)
    for pe in (0, 1, 2):
        assert m.protocol.state(pe, line(m, 0)) == "S"


@mesi_cell("S", "BusRdX")
def _s_busrdx():
    # A non-holder's write miss invalidates every shared copy.
    m = make("mesi")
    ln = line(m, 0)
    to_S(m, 0, 1, 0)
    p = Probe(m, 2)
    m.write(2, "a", 0, 1.0)
    assert m.protocol.state(0, ln) == "I"
    assert m.protocol.state(1, ln) == "I"
    assert m.protocol.state(2, ln) == "M"
    assert ("coh_inval", 2, ln, 2) in p.events


@mesi_cell("S", "BusUpgr")
def _s_busupgr():
    # A peer sharer upgrades; our copy dies with it.
    m = make("mesi")
    ln = line(m, 0)
    to_S(m, 0, 1, 0)
    m.write(1, "a", 0, 1.0)
    assert m.protocol.state(0, ln) == "I"
    assert m.protocol.state(1, ln) == "M"
    assert m.pes[1].stats.bus_upgr == 1


@mesi_cell("S", "Evict")
def _s_evict():
    m = make("mesi", cache_bytes=128)
    to_S(m, 0, 1, 0)
    p = Probe(m, 0)
    m.read(0, "a", 16)  # conflicting set
    assert m.protocol.state(0, line(m, 0)) == "I"
    assert m.protocol.state(1, line(m, 0)) == "S"  # peer copy survives
    assert [e for e in p.events if e[0] == "coh_wb"] == []


@mesi_cell("M", "PrRd")
def _m_prrd():
    m = make("mesi")
    to_M(m, 0, 0)
    p = Probe(m, 0)
    m.read(0, "a", 0)
    assert m.protocol.state(0, line(m, 0)) == "M"
    assert p.events == []
    assert p.cost == m.params.cache_hit


@mesi_cell("M", "PrWr")
def _m_prwr():
    m = make("mesi")
    to_M(m, 0, 0)
    p = Probe(m, 0)
    m.write(0, "a", 0, 5.0)
    assert m.protocol.state(0, line(m, 0)) == "M"
    assert p.events == []
    assert p.cost == m.params.write_local


@mesi_cell("M", "BusRd")
def _m_busrd():
    # Dirty cache-to-cache supply with a sharing writeback: the owner
    # downgrades M->S and the requester pays the flush cost 4N + P + 1.
    m = make("mesi")
    ln = line(m, 0)
    to_M(m, 0, 0)
    p = Probe(m, 1)
    stall0 = m.pes[1].stats.bus_stall_cycles
    m.read(1, "a", 0)
    assert m.protocol.state(0, ln) == "S"
    assert m.protocol.state(1, ln) == "S"
    assert p.events == [("coh_wb", 0, ln, "downgrade"),
                        ("bus_tx", 1, "busrd", ln, 1)]
    stall = m.pes[1].stats.bus_stall_cycles - stall0
    supply = 4 * m.params.line_words + m.params.n_pes + 1
    assert p.cost == stall + m.params.bus_cycle + supply
    assert m.pes[1].stats.c2c_transfers == 1
    assert m.pes[0].stats.writebacks == 1


@mesi_cell("M", "BusRdX")
def _m_busrdx():
    # Write-miss against a dirty remote copy: flush + invalidate.
    m = make("mesi")
    ln = line(m, 0)
    to_M(m, 0, 0)
    p = Probe(m, 1)
    m.write(1, "a", 0, 6.0)
    assert m.protocol.state(0, ln) == "I"
    assert m.protocol.state(1, ln) == "M"
    assert ("bus_tx", 1, "busrdx", ln, 1) in p.events
    assert ("coh_wb", 0, ln, "evict") in p.events
    assert ("coh_inval", 1, ln, 1) in p.events
    assert m.pes[1].stats.c2c_transfers == 1


@mesi_cell("M", "BusUpgr")
def _m_busupgr():
    # Invariant cell: M is exclusive — no peer sharer exists to upgrade.
    m = make("mesi")
    to_M(m, 0, 0)
    assert m.protocol._live_others(0, line(m, 0)) == []


@mesi_cell("M", "Evict")
def _m_evict():
    # Dirty victim: the one eviction that costs a writeback.
    m = make("mesi", cache_bytes=128)
    ln = line(m, 0)
    to_M(m, 0, 0)
    p = Probe(m, 0)
    m.read(0, "a", 16)  # line 5 conflicts
    assert m.protocol.state(0, ln) == "I"
    assert ("coh_wb", 0, ln, "evict") in p.events
    assert m.pes[0].stats.writebacks == 1


def test_mesi_table_complete():
    want = {(s, e) for s in MESI_STATES for e in MESI_EVENTS}
    assert set(MESI_CELLS) == want


@pytest.mark.parametrize("state,event", sorted(MESI_CELLS))
def test_mesi_cell(state, event):
    MESI_CELLS[(state, event)]()


# -- directory transition table --------------------------------------------
DIR_STATES = ("M", "S", "I")
DIR_EVENTS = ("PrRd", "PrWr", "RemoteRd", "RemoteWr", "Evict")
DIR_CELLS = {}


def dir_cell(state, event):
    def deco(fn):
        DIR_CELLS[(state, event)] = fn
        return fn
    return deco


@dir_cell("I", "PrRd")
def _d_i_prrd():
    # Clean read miss: 2 messages (request + data), home memory supplies.
    m = make("dir")
    ln = line(m, 0)
    p = Probe(m, 0)
    m.read(0, "a", 0)  # home == requester == PE0
    assert m.protocol.state(0, ln) == "S"
    assert p.events == [("dir_req", 0, "rd", ln, 0, 2, 0, 0)]
    assert p.cost == (2 * msg(m, 0, 0) + m.params.dir_proc
                      + m.params.local_mem)
    assert m.protocol.entries[ln].sharers == 0b1
    assert not m.protocol.entries[ln].dirty


@dir_cell("I", "PrWr")
def _d_i_prwr():
    # Write miss, no sharers: request + data, entry goes dirty/owned.
    m = make("dir")
    ln = line(m, 0)
    p = Probe(m, 0)
    m.write(0, "a", 0, 1.5)
    assert m.protocol.state(0, ln) == "M"
    assert p.events == [("dir_req", 0, "rdx", ln, 0, 2, 0, 0)]
    assert p.cost == (2 * msg(m, 0, 0) + m.params.dir_proc
                      + m.params.local_mem + m.params.write_local)
    entry = m.protocol.entries[ln]
    assert entry.dirty and entry.owner == 0 and entry.sharers == 0b1
    assert m.read(0, "a", 0) == 1.5  # write-allocated


@dir_cell("I", "RemoteRd")
def _d_i_remoterd():
    m = make("dir")
    m.read(1, "a", 0)
    assert m.protocol.state(0, line(m, 0)) == "I"


@dir_cell("I", "RemoteWr")
def _d_i_remotewr():
    m = make("dir")
    p = Probe(m, 1)
    m.write(1, "a", 0, 1.0)
    assert m.protocol.state(0, line(m, 0)) == "I"
    assert [e for e in p.events if e[0] == "coh_inval"] == []


@dir_cell("I", "Evict")
def _d_i_evict():
    m = make("dir", cache_bytes=128)
    p = Probe(m, 0)
    m.read(0, "a", 0)
    assert [e for e in p.events if e[0] == "coh_wb"] == []


@dir_cell("S", "PrRd")
def _d_s_prrd():
    m = make("dir")
    to_S(m, 0, 1, 0)
    p = Probe(m, 0)
    m.read(0, "a", 0)
    assert p.events == []
    assert p.cost == m.params.cache_hit


@dir_cell("S", "PrWr")
def _d_s_prwr():
    # Ownership upgrade: invalidation round to the other sharer, then ack.
    m = make("dir")
    ln = line(m, 0)
    to_S(m, 0, 1, 0)
    p = Probe(m, 0)
    stall0 = m.pes[0].stats.dir_stall_cycles
    m.write(0, "a", 0, 2.0)
    assert m.protocol.state(0, ln) == "M"
    assert m.protocol.state(1, ln) == "I"
    # req/ack + (inval + ack) for one sharer = 4 messages
    assert p.events == [("dir_req", 0, "upgr", ln, 0, 4, 0, 0),
                        ("coh_inval", 0, ln, 1)]
    stall = m.pes[0].stats.dir_stall_cycles - stall0
    assert p.cost == (stall + 2 * msg(m, 0, 0) + m.params.dir_proc
                      + msg(m, 0, 1) + msg(m, 1, 0)
                      + m.params.write_local)
    entry = m.protocol.entries[ln]
    assert entry.dirty and entry.owner == 0 and entry.sharers == 0b1


@dir_cell("S", "RemoteRd")
def _d_s_remoterd():
    m = make("dir")
    to_S(m, 0, 1, 0)
    m.read(2, "a", 0)
    for pe in (0, 1, 2):
        assert m.protocol.state(pe, line(m, 0)) == "S"
    assert m.protocol.entries[line(m, 0)].sharers == 0b111


@dir_cell("S", "RemoteWr")
def _d_s_remotewr():
    m = make("dir")
    ln = line(m, 0)
    to_S(m, 0, 1, 0)
    p = Probe(m, 2)
    m.write(2, "a", 0, 1.0)
    assert m.protocol.state(0, ln) == "I"
    assert m.protocol.state(1, ln) == "I"
    assert m.protocol.state(2, ln) == "M"
    assert ("coh_inval", 2, ln, 2) in p.events


@dir_cell("S", "Evict")
def _d_s_evict():
    # Silent eviction leaves a stale pointer at the directory: the next
    # writer still pays the invalidate message, but no live copy dies.
    m = make("dir", cache_bytes=128)
    ln = line(m, 0)
    to_S(m, 0, 1, 0)
    m.read(0, "a", 16)  # evicts PE0's copy of line 1, directory unaware
    assert m.protocol.state(0, ln) == "I"
    assert m.protocol.entries[ln].sharers == 0b11  # stale superset
    p = Probe(m, 1)
    m.write(1, "a", 0, 9.0)
    event = [e for e in p.events if e[0] == "dir_req"][0]
    assert event[5] == 4  # messages still count the dead pointer
    assert ("coh_inval", 1, ln, 0) not in p.events  # but only live copies
    assert [e for e in p.events if e[0] == "coh_inval"] == []


@dir_cell("M", "PrRd")
def _d_m_prrd():
    m = make("dir")
    to_M(m, 0, 0)
    p = Probe(m, 0)
    m.read(0, "a", 0)
    assert p.events == []
    assert p.cost == m.params.cache_hit


@dir_cell("M", "PrWr")
def _d_m_prwr():
    # Owner write: directory-silent.
    m = make("dir")
    to_M(m, 0, 0)
    p = Probe(m, 0)
    m.write(0, "a", 0, 3.0)
    assert p.events == []
    assert p.cost == m.params.write_local


@dir_cell("M", "RemoteRd")
def _d_m_remoterd():
    # 4-hop read of a dirty line: forward, c2c data, sharing writeback.
    m = make("dir")
    ln = line(m, 0)
    to_M(m, 0, 0)
    p = Probe(m, 1)
    stall0 = m.pes[1].stats.dir_stall_cycles
    m.read(1, "a", 0)
    assert m.protocol.state(0, ln) == "S"
    assert m.protocol.state(1, ln) == "S"
    assert p.events == [("coh_wb", 0, ln, "downgrade"),
                        ("dir_req", 1, "rd", ln, 0, 4, 1, 0)]
    stall = m.pes[1].stats.dir_stall_cycles - stall0
    assert p.cost == (stall + msg(m, 1, 0) + m.params.dir_proc
                      + msg(m, 0, 0) + msg(m, 0, 1)
                      + m.params.line_words)
    entry = m.protocol.entries[ln]
    assert not entry.dirty and entry.sharers == 0b11
    assert m.pes[1].stats.c2c_transfers == 1


@dir_cell("M", "RemoteWr")
def _d_m_remotewr():
    # Ownership steal: the old owner flushes c2c and is invalidated.
    m = make("dir")
    ln = line(m, 0)
    to_M(m, 0, 0)
    p = Probe(m, 1)
    m.write(1, "a", 0, 7.0)
    assert m.protocol.state(0, ln) == "I"
    assert m.protocol.state(1, ln) == "M"
    assert ("coh_wb", 0, ln, "evict") in p.events
    assert ("coh_inval", 1, ln, 1) in p.events
    event = [e for e in p.events if e[0] == "dir_req"][0]
    assert event[2] == "rdx" and event[6] == 1  # c2c supply
    entry = m.protocol.entries[ln]
    assert entry.dirty and entry.owner == 1
    assert m.pes[1].stats.c2c_transfers == 1


@dir_cell("M", "Evict")
def _d_m_evict():
    # Dirty victim: writeback; the stale dirty bit reconciles on the
    # next request (memory supplies, 2 messages, no forward).
    m = make("dir", cache_bytes=128)
    ln = line(m, 0)
    to_M(m, 0, 0)
    p = Probe(m, 0)
    m.read(0, "a", 16)
    assert m.protocol.state(0, ln) == "I"
    assert ("coh_wb", 0, ln, "evict") in p.events
    p2 = Probe(m, 1)
    m.read(1, "a", 0)
    event = [e for e in p2.events if e[0] == "dir_req"][0]
    assert event[5] == 2 and event[6] == 0  # clean 2-message supply
    assert not m.protocol.entries[ln].dirty


def test_directory_table_complete():
    want = {(s, e) for s in DIR_STATES for e in DIR_EVENTS}
    assert set(DIR_CELLS) == want


@pytest.mark.parametrize("state,event", sorted(DIR_CELLS))
def test_directory_cell(state, event):
    DIR_CELLS[(state, event)]()


# -- cross-PE scenarios ----------------------------------------------------
def test_bus_arbitration_second_requester_stalls():
    """Two transactions from clock 0: the second pays the first one's
    bus occupancy (address phase + line_words data beats) as stall."""
    m = make("mesi")
    m.read(0, "a", 0)   # PE0 clock was 0; bus busy for bus_cycle + lw
    m.read(1, "a", 8)   # PE1 also starts at clock 0
    occupancy = m.params.bus_cycle + m.params.line_words
    assert m.pes[0].stats.bus_stall_cycles == 0
    assert m.pes[1].stats.bus_stall_cycles == occupancy
    assert m.protocol.bus.transactions == 2


def test_mesi_write_after_read_sharing_chain():
    """Reader caches a line, writer invalidates it, reader re-misses to
    fresh data — zero stale reads, by construction."""
    m = make("mesi")
    assert m.read(1, "a", 0) == 0.0
    m.write(0, "a", 0, 42.0)
    misses0 = m.pes[1].stats.cache_misses
    assert m.read(1, "a", 0) == 42.0   # physically invalidated: re-miss
    assert m.pes[1].stats.cache_misses == misses0 + 1
    assert m.stats.stale_reads == 0


def test_dir_lp_pointer_overflow_broadcasts():
    """More sharers than dir_ptr_limit pointers flips the broadcast bit;
    the next write invalidates by broadcast (fanout P-1)."""
    m = make("dir-lp", n_pes=8)
    ln = line(m, 0)
    limit = m.params.dir_ptr_limit
    readers = list(range(1, limit + 3))  # 6 sharers > 4 pointers
    for pe in readers:
        m.read(pe, "a", 0)
    entry = m.protocol.entries[ln]
    assert entry.bcast
    p = Probe(m, 0)
    m.write(0, "a", 0, 1.0)
    assert ("dir_bcast", 0, ln, m.params.n_pes - 1) in p.events
    assert ("coh_inval", 0, ln, len(readers)) in p.events
    event = [e for e in p.events if e[0] == "dir_req"][0]
    assert event[5] == 2 + 2 * (m.params.n_pes - 1)  # bcast message bill
    assert m.pes[0].stats.dir_broadcasts == 1
    for pe in readers:
        assert m.protocol.state(pe, ln) == "I"
    assert not m.protocol.entries[ln].bcast  # reset after the round


def test_dir_pp_priority_bypasses_home_occupancy():
    """Back-to-back requests to one home: the plain directory stalls the
    second requester behind the controller, phase-priority services it
    eagerly and counts the bypass."""
    plain = make("dir")
    plain.read(1, "a", 0)
    plain.read(2, "a", 4)   # same home (PE0), same start clock
    assert plain.pes[2].stats.dir_stall_cycles == plain.params.dir_proc
    assert plain.pes[2].stats.priority_bypasses == 0

    pp = make("dir-pp")
    pp.read(1, "a", 0)
    pp.read(2, "a", 4)
    assert pp.pes[2].stats.dir_stall_cycles == 0
    assert pp.pes[2].stats.priority_bypasses == 1
    assert pp.pes[2].clock < plain.pes[2].clock


def test_dir_pp_phase_counter_tracks_barriers():
    m = make("dir-pp")
    assert m.protocol.phase == 0
    m.barrier()
    m.barrier()
    assert m.protocol.phase == 2


def test_dir_home_assignment_is_sticky():
    """A line's home is fixed at first touch, wherever later requests
    come from."""
    m = make("dir")
    ln = line(m, 8)        # flats 8-11 live on PE1
    m.read(3, "a", 8)
    assert m.protocol.home_of[ln] == 1
    m.write(2, "a", 8, 1.0)
    assert m.protocol.home_of[ln] == 1


@pytest.mark.parametrize("protocol", ["mesi", "dir", "dir-lp"])
def test_sharing_past_64_pes(protocol):
    """Holder and sharer bitmasks are not capped at 64 PEs: 65 readers
    share a line, and PE 64's write kills the 64 other copies."""
    m = make(protocol, n_pes=65)
    ln = line(m, 0)
    for pe in range(65):
        m.read(pe, "a", 0)
    everyone = (1 << 65) - 1
    assert m.protocol.holders[ln] == everyone
    if protocol != "mesi":
        assert m.protocol.entries[ln].sharers == everyone
    m.write(64, "a", 0, 1.0)
    assert m.pes[64].stats.coh_invalidations == 64
    assert m.protocol.holders[ln] == 1 << 64
    assert m.protocol.state(64, ln) == "M"
    assert all(m.protocol.state(pe, ln) == "I" for pe in range(64))


def test_fault_eviction_reconciles_lazily():
    """A line yanked behind the protocol's back (as eviction-storm
    faults do) reads as I and re-misses cleanly."""
    m = make("mesi")
    ln = line(m, 0)
    to_M(m, 0, 0)
    m.pes[0].cache.invalidate_line(ln)   # simulate a fault eviction
    assert m.protocol.state(0, ln) == "I"
    assert m.read(0, "a", 0) == 1.0      # fresh from memory, no stale
    assert m.stats.stale_reads == 0
