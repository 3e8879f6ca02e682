"""Textual fault-plan specs: the ``--faults`` grammar.

A spec is a comma-separated list of model entries::

    drop=0.3, squeeze=0.2:min_slots=1, jitter=0.5:max_extra=40,
    remotefail=0.1:max_retries=2:backoff=25, evict=0.05:lines=4

Each entry is ``name[=rate][:key=value ...]``; omitted fields keep the
model's defaults.  Three named presets cover the common cases::

    --faults light    a mild mix of every model
    --faults storm    aggressive eviction storms + queue squeezes
    --faults chaos    everything, at hostile rates

Errors are :class:`~repro.faults.models.FaultPlanError` with messages
that say what was wrong *and* what would have been right — they surface
at argument-parsing time, never as a traceback deep inside a run.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Optional

from .models import FaultPlan, FaultPlanError, MODEL_TYPES

_BY_NAME: Dict[str, type] = {cls.name: cls for cls in MODEL_TYPES}

PRESETS: Dict[str, str] = {
    "light": ("drop=0.05,squeeze=0.05:min_slots=2,jitter=0.2:max_extra=16,"
              "remotefail=0.02,evict=0.01:lines=2"),
    "storm": "evict=0.2:lines=8,squeeze=0.5:min_slots=0,drop=0.3",
    "chaos": ("drop=0.4,squeeze=0.4:min_slots=0,jitter=0.8:max_extra=120,"
              "remotefail=0.25:max_retries=4:backoff=80,evict=0.1:lines=6"),
}


def _known() -> str:
    return (f"known models: {', '.join(sorted(_BY_NAME))}; "
            f"presets: {', '.join(sorted(PRESETS))}")


def _parse_number(model: str, key: str, text: str, want_int: bool):
    try:
        return int(text) if want_int else float(text)
    except ValueError:
        kind = "an integer" if want_int else "a number"
        raise FaultPlanError(
            f"{model}: {key} must be {kind}, got {text!r}") from None


def parse_fault_plan(spec: Optional[str], seed: int = 0) -> Optional[FaultPlan]:
    """Parse a ``--faults`` spec into a :class:`FaultPlan`.

    ``None``, ``""`` and ``"none"`` mean no plan (returns ``None``).
    Raises :class:`FaultPlanError` with an actionable message otherwise.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if not spec or spec.lower() == "none":
        return None
    if spec.lower() in PRESETS:
        spec = PRESETS[spec.lower()]
    models = []
    for raw_entry in spec.split(","):
        entry = raw_entry.strip()
        if not entry:
            continue
        head, *opts = entry.split(":")
        name, sep, rate_text = head.partition("=")
        name = name.strip().lower()
        cls = _BY_NAME.get(name)
        if cls is None:
            raise FaultPlanError(
                f"unknown fault model {name!r} in {raw_entry.strip()!r}; "
                + _known())
        kwargs: Dict[str, object] = {}
        if sep:
            kwargs["rate"] = _parse_number(name, "rate", rate_text.strip(),
                                           want_int=False)
        valid = {f.name: f for f in fields(cls) if f.name != "rate"}
        for opt in opts:
            key, sep2, value = opt.partition("=")
            key = key.strip()
            if not sep2 or key not in valid:
                raise FaultPlanError(
                    f"{name}: unknown option {opt.strip()!r}; valid options: "
                    f"{', '.join(sorted(valid)) or '(none)'} "
                    f"(syntax: {name}=RATE:key=value)")
            kwargs[key] = _parse_number(name, key, value.strip(),
                                        want_int=valid[key].type is int
                                        or valid[key].type == "int")
        models.append(cls(**kwargs))
    if not models:
        raise FaultPlanError(
            f"fault spec {spec!r} contains no models; " + _known())
    return FaultPlan(models=tuple(models), seed=seed)


__all__ = ["parse_fault_plan", "PRESETS"]
