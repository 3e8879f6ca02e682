"""Shared snooping bus: transaction costs and arbitration.

The MESI protocol serialises its coherence transactions (BusRd, BusRdX,
BusUpgr) on one shared split-transaction bus.  Each transaction occupies
the bus for an address phase (``bus_cycle`` cycles) plus any data
transfer; a requester whose transaction would start before the bus is
free stalls until the previous one drains.

The simulator executes PEs sequentially within an epoch, so "time" here
is each PE's own clock.  The bus keeps one monotone ``free_at`` horizon:
a requester at local time ``t`` is granted ``max(t, free_at)`` and the
difference is accounted as arbitration stall.  This is a deterministic
first-come-first-served approximation of bus contention — exact
interleaving-level arbitration would require a global event queue the
machine model intentionally does not have (see DESIGN.md §8).
"""

from __future__ import annotations

from typing import Tuple


class SnoopBus:
    """One shared bus with an occupancy horizon and transaction stats."""

    def __init__(self, bus_cycle: float) -> None:
        self.bus_cycle = float(bus_cycle)
        self.free_at = 0.0
        self.transactions = 0
        self.busy_cycles = 0.0
        self.stall_cycles = 0.0

    def acquire(self, clock: float, occupancy: float) -> Tuple[float, float]:
        """Arbitrate one transaction starting at local time ``clock``.

        ``occupancy`` is the number of cycles the transaction holds the
        bus (address phase + data beats).  Returns ``(grant, stall)``:
        the cycle the transaction begins and the arbitration stall the
        requester pays before it."""
        grant = max(clock, self.free_at)
        stall = grant - clock
        self.free_at = grant + occupancy
        self.transactions += 1
        self.busy_cycles += occupancy
        self.stall_cycles += stall
        return grant, stall


__all__ = ["SnoopBus"]
