"""Formatters that regenerate the paper's Table 1 and Table 2, plus the
cross-scheme Table 3 the paper could not run.

Table 1: speedups of the BASE and CCDP codes over sequential execution
time, per application per PE count.

Table 2: percentage improvement in execution time of the CCDP codes
over the BASE codes.

Table 3: CCDP raced against the hardware coherence baselines (snooping
MESI bus, home-node directory and its limited-pointer / phase-priority
variants): execution time, speedup over SEQ, D-cache miss rate, and the
interconnect bill each scheme pays — bus transactions and cache-to-cache
transfers for the bus, protocol messages for the directory."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..runtime import Version
from .experiment import Sweep
from .paper_data import paper_improvement


def _fmt_cell(value: Optional[float], width: int = 7, digits: int = 2) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    return f"{value:>{width}.{digits}f}"


def _speedup(sweep: Sweep, version: str, n_pes: int) -> Optional[float]:
    """Speedup over SEQ, or ``None`` when either record is missing
    (quarantined cells leave gaps that render as ``-``)."""
    record = sweep.runs.get((version, n_pes))
    if record is None or sweep.seq is None:
        return None
    return sweep.seq.elapsed / record.elapsed


def table1_rows(sweeps: Sequence[Sweep]) -> List[Dict[str, object]]:
    """Structured Table 1 data: one row per PE count, BASE and CCDP
    speedups per workload."""
    pe_counts = sorted({n for sweep in sweeps for n in sweep.pe_counts()})
    rows = []
    for n_pes in pe_counts:
        row: Dict[str, object] = {"n_pes": n_pes}
        for sweep in sweeps:
            for version in (Version.BASE, Version.CCDP):
                value = _speedup(sweep, version, n_pes)
                if value is not None:
                    row[f"{sweep.workload}/{version}"] = value
        rows.append(row)
    return rows


def format_table1(sweeps: Sequence[Sweep]) -> str:
    """Render Table 1 in the paper's layout."""
    names = [sweep.workload for sweep in sweeps]
    header1 = "        " + "".join(f"{name.upper():^16}" for name in names)
    header2 = "#PEs    " + "".join(f"{'BASE':>7} {'CCDP':>7} " for _ in names)
    lines = ["Table 1. Speedups over sequential execution time.",
             header1, header2, "-" * len(header2)]
    for row in table1_rows(sweeps):
        cells = [f"{row['n_pes']:<8d}"]
        for name in names:
            cells.append(_fmt_cell(row.get(f"{name}/base")))
            cells.append(" ")
            cells.append(_fmt_cell(row.get(f"{name}/ccdp")))
            cells.append(" ")
        lines.append("".join(cells))
    return "\n".join(lines)


def table2_rows(sweeps: Sequence[Sweep]) -> List[Dict[str, object]]:
    """Structured Table 2 data: measured improvement plus the paper's
    published value where recoverable."""
    pe_counts = sorted({n for sweep in sweeps for n in sweep.pe_counts()})
    rows = []
    for n_pes in pe_counts:
        row: Dict[str, object] = {"n_pes": n_pes}
        for sweep in sweeps:
            if (Version.BASE, n_pes) in sweep.runs and \
                    (Version.CCDP, n_pes) in sweep.runs:
                row[sweep.workload] = sweep.improvement(n_pes)
                row[f"{sweep.workload}/paper"] = paper_improvement(sweep.workload, n_pes)
        rows.append(row)
    return rows


def format_table2(sweeps: Sequence[Sweep], with_paper: bool = True) -> str:
    """Render Table 2; optionally with the paper's cells alongside."""
    names = [sweep.workload for sweep in sweeps]
    if with_paper:
        header = "#PEs    " + "".join(
            f"{name.upper():>9} {'(paper)':>9}  " for name in names)
    else:
        header = "#PEs    " + "".join(f"{name.upper():>9}  " for name in names)
    lines = ["Table 2. Improvement in execution time of CCDP codes over "
             "BASE codes (%).", header, "-" * len(header)]
    for row in table2_rows(sweeps):
        cells = [f"{row['n_pes']:<8d}"]
        for name in names:
            cells.append(_fmt_cell(row.get(name), 9))
            if with_paper:
                paper = row.get(f"{name}/paper")
                cells.append(" " + _fmt_cell(paper, 9))
            cells.append("  ")
        lines.append("".join(cells))
    return "\n".join(lines)


#: Table 3's default scheme line-up: the paper's optimised codes vs the
#: hardware protocols they were proposed to replace.
TABLE3_VERSIONS = (Version.CCDP, Version.MESI, Version.DIR, Version.DIR_LP)


def _miss_rate(stats: Dict[str, float]) -> Optional[float]:
    accesses = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
    if not accesses:
        return None
    return 100.0 * stats.get("cache_misses", 0) / accesses


def table3_rows(sweeps: Sequence[Sweep],
                versions: Sequence[str] = TABLE3_VERSIONS
                ) -> List[Dict[str, object]]:
    """Structured Table 3 data: one row per (workload, PE count,
    version) with timing and interconnect-traffic columns."""
    rows: List[Dict[str, object]] = []
    for sweep in sweeps:
        for n_pes in sweep.pe_counts():
            for version in versions:
                record = sweep.runs.get((version, n_pes))
                if record is None:
                    continue
                stats = record.stats
                rows.append({
                    "workload": sweep.workload,
                    "n_pes": n_pes,
                    "version": version,
                    "elapsed": record.elapsed,
                    "speedup": (None if sweep.seq is None
                                else sweep.seq.elapsed / record.elapsed),
                    "miss_rate": _miss_rate(stats),
                    "bus_tx": int(stats.get("bus_rd", 0)
                                  + stats.get("bus_rdx", 0)
                                  + stats.get("bus_upgr", 0)),
                    "c2c": int(stats.get("c2c_transfers", 0)),
                    "dir_msgs": int(stats.get("dir_messages", 0)),
                    "invals": int(stats.get("coh_invalidations", 0)),
                    "stale_reads": record.stale_reads,
                    "correct": record.correct,
                })
    return rows


def format_table3(sweeps: Sequence[Sweep],
                  versions: Sequence[str] = TABLE3_VERSIONS) -> str:
    """Render Table 3: one block per workload, schemes side by side at
    each PE count."""
    lines = ["Table 3. CCDP vs hardware coherence schemes.",
             "(bus-tx/c2c: snooping bus traffic; dir-msg: directory "
             "protocol messages; inval: invalidations sent)"]
    header = (f"{'#PEs':<6}{'scheme':<8}{'cycles':>12}{'speedup':>9}"
              f"{'miss%':>8}{'bus-tx':>8}{'c2c':>7}{'dir-msg':>9}"
              f"{'inval':>7}")
    by_workload: Dict[str, List[Dict[str, object]]] = {}
    for row in table3_rows(sweeps, versions):
        by_workload.setdefault(str(row["workload"]), []).append(row)
    for sweep in sweeps:
        rows = by_workload.get(sweep.workload, [])
        if not rows:
            continue
        sizes = ", ".join(f"{k}={v}" for k, v in sweep.size_args.items())
        lines += ["", f"{sweep.workload.upper()} ({sizes})",
                  header, "-" * len(header)]
        last_pes = None
        for row in rows:
            pes = f"{row['n_pes']:<6d}" if row["n_pes"] != last_pes \
                else " " * 6
            last_pes = row["n_pes"]
            flag = "" if row["correct"] else "  WRONG"
            lines.append(
                pes + f"{row['version']:<8}"
                + f"{row['elapsed']:>12.0f}"
                + _fmt_cell(row["speedup"], 9)
                + _fmt_cell(row["miss_rate"], 8)
                + f"{row['bus_tx']:>8d}{row['c2c']:>7d}"
                + f"{row['dir_msgs']:>9d}{row['invals']:>7d}" + flag)
    return "\n".join(lines)


__all__ = ["table1_rows", "format_table1", "table2_rows", "format_table2",
           "TABLE3_VERSIONS", "table3_rows", "format_table3"]
