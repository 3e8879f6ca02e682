"""Farm cells for trace replay: content-addressed, resumable jobs.

One cell = one (trace file, scheme, backend) replay.  The cell key
hashes the trace *contents* (not its path) plus every input the result
depends on, so replays dedup across farm runs sharing a journal and a
re-run after editing the trace re-executes instead of serving a stale
result.  The worker is a module-level function of one JSON-able
payload, as :func:`repro.farm.run_farm` requires.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Callable, Dict, Optional

from .format import TraceError
from .program import TraceProgram
from .reader import (DEFAULT_CHUNK_OPS, jsonl_geometry, read_jsonl_events,
                     sniff_format)


def trace_digest(path) -> str:
    """SHA-256 of the trace file's bytes (streamed)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def replay_key(payload: Dict) -> str:
    """Content key of one replay cell."""
    from ..farm import SCHEMA
    from ..harness.progcache import content_key

    fields = {k: payload.get(k) for k in
              ("format", "version", "pes", "backend", "oracle",
               "cache_bytes", "chunk_ops", "workload", "sizes", "ir",
               "conform")}
    return content_key("replay", SCHEMA, trace_digest(payload["trace"]),
                       fields)


def replay_decls(trace, workload_name: str, sizes: Dict[str, int],
                 ir_path: str, pes: Optional[int]):
    """(decls, n_pes) for a JSONL trace.

    Declarations come from the workload / IR file the trace was recorded
    from (distribution shapes drive home-PE ownership, so self-derived
    1-D decls would misprice remote traffic); with neither given they
    are derived from the trace's own geometry.
    """
    if workload_name and ir_path:
        raise TraceError("give --workload or --ir, not both")
    if workload_name:
        from ..harness import progcache
        from ..workloads import workload
        spec = workload(workload_name)
        resolved = {**spec.default_args,
                    **{k: v for k, v in (sizes or {}).items()
                       if k in spec.default_args}}
        program = progcache.get_program(spec, resolved)
        decls = list(program.arrays.values())
    elif ir_path:
        from ..ir.dsl import parse_program
        with open(ir_path) as fh:
            program = parse_program(fh.read())
        decls = list(program.arrays.values())
    else:
        decls = None
    if pes is None or decls is None:
        geo_pes, geo_sizes = jsonl_geometry(trace)
        if pes is None:
            pes = geo_pes
        if decls is None:
            from .ingest import decls_from_sizes
            decls = decls_from_sizes(geo_sizes)
    return decls, pes


def build_program(payload: Dict) -> TraceProgram:
    fmt = payload.get("format") or sniff_format(payload["trace"])
    chunk_ops = payload.get("chunk_ops") or DEFAULT_CHUNK_OPS
    if fmt == "text":
        return TraceProgram.from_text(payload["trace"],
                                      pes=payload.get("pes"),
                                      chunk_ops=chunk_ops)
    decls, n_pes = replay_decls(payload["trace"],
                                payload.get("workload") or "",
                                payload.get("sizes") or {},
                                payload.get("ir") or "",
                                payload.get("pes"))
    return TraceProgram.from_jsonl(payload["trace"], decls, n_pes,
                                   chunk_ops=chunk_ops)


def replay_record(program: TraceProgram, payload: Dict,
                  epoch_cb: Optional[Callable[[dict], None]] = None) -> Dict:
    """Replay ``program`` under the payload's scheme and backend; returns
    the JSON-able result record, with the ``--conform`` diff against the
    source events when the payload asks for it."""
    from ..machine.params import t3d

    params = t3d(program.n_pes, cache_bytes=payload["cache_bytes"])
    result = program.replay(params, payload["version"],
                            backend=payload["backend"],
                            oracle=bool(payload.get("oracle")),
                            epoch_cb=epoch_cb)
    machine = result.machine
    record = {
        "trace": str(payload["trace"]),
        "version": result.version,
        "backend": result.backend,
        "pes": program.n_pes,
        "elapsed": result.elapsed,
        "stats": machine.stats.as_dict(),
        "epochs": result.epochs,
        "counters": asdict(result.counters),
        "oracle": machine.oracle.summary() if machine.oracle else None,
        "conform": None,
    }
    if payload.get("conform"):
        from ..obs.fold import TIMING_DEPENDENT_FIELDS, reconcile
        record["conform"] = reconcile(
            (event for _, event in read_jsonl_events(payload["trace"])),
            machine, skip=TIMING_DEPENDENT_FIELDS)
    return record


def run_replay_cell(payload: Dict) -> Dict:
    """Execute one replay cell; returns a JSON-able result record."""
    return replay_record(build_program(payload), payload)


def replay_failure(record: Dict) -> Optional[str]:
    """Farm ``failure_of`` hook: a conformance mismatch is a failure."""
    mismatches = record.get("conform")
    if mismatches:
        return "conformance mismatch: " + "; ".join(mismatches[:4])
    return None


__all__ = ["trace_digest", "replay_key", "replay_decls", "build_program",
           "replay_record", "run_replay_cell", "replay_failure"]
