"""Bounded regular sections — the array-region abstraction of the
Choi–Yew array dataflow analysis.

A :class:`Section` describes a rectangular region of one array as a
triplet ``(lo, hi, step)`` per dimension (1-based, inclusive).  Loop
bounds that are unknown at compile time widen to the full dimension
extent — the conservative direction for staleness (more references are
flagged potentially-stale, never fewer).

:class:`SectionSet` is a small union-of-sections container with a bound
on the number of disjuncts; when it overflows, sections are merged into
their rectangular hull (again, conservative).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..ir.arrays import ArrayDecl
from .affine import AffineForm, AffineRef


@dataclass(frozen=True)
class Triplet:
    """1-based inclusive ``lo : hi : step`` along one dimension."""

    lo: int
    hi: int
    step: int = 1

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("triplet step must be positive")

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def count(self) -> int:
        return 0 if self.empty else (self.hi - self.lo) // self.step + 1

    def contains(self, index: int) -> bool:
        return (self.lo <= index <= self.hi
                and (index - self.lo) % self.step == 0)

    def overlaps(self, other: "Triplet") -> bool:
        if self.empty or other.empty:
            return False
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return False
        if self.step == 1 or other.step == 1:
            return True
        # Strided overlap: solve lo1 + a*s1 == lo2 + b*s2 within [lo, hi].
        g = gcd(self.step, other.step)
        if (other.lo - self.lo) % g != 0:
            return False
        return True  # a common residue exists within the intersected range (conservative)

    def hull(self, other: "Triplet") -> "Triplet":
        if self.empty:
            return other
        if other.empty:
            return self
        step = gcd(self.step, other.step)
        if (other.lo - self.lo) % step != 0:
            step = 1
        return Triplet(min(self.lo, other.lo), max(self.hi, other.hi), max(step, 1))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.empty:
            return "∅"
        if self.step == 1:
            return f"{self.lo}:{self.hi}"
        return f"{self.lo}:{self.hi}:{self.step}"


@dataclass(frozen=True)
class Section:
    """A rectangular region of one array."""

    array: str
    triplets: Tuple[Triplet, ...]

    @property
    def empty(self) -> bool:
        return any(t.empty for t in self.triplets)

    def count(self) -> int:
        n = 1
        for t in self.triplets:
            n *= t.count()
        return n

    def overlaps(self, other: "Section") -> bool:
        if self.array != other.array or self.empty or other.empty:
            return False
        return all(a.overlaps(b) for a, b in zip(self.triplets, other.triplets))

    def contains_point(self, indices: Sequence[int]) -> bool:
        return all(t.contains(i) for t, i in zip(self.triplets, indices))

    def hull(self, other: "Section") -> "Section":
        if self.array != other.array:
            raise ValueError("hull of sections of different arrays")
        return Section(self.array, tuple(a.hull(b) for a, b in zip(self.triplets, other.triplets)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.array}[{', '.join(map(str, self.triplets))}]"


def full_section(decl: ArrayDecl) -> Section:
    return Section(decl.name, tuple(Triplet(1, extent) for extent in decl.shape))


#: Loop environment: var -> (lo, hi) 1-based inclusive, or None if unknown.
LoopEnv = Dict[str, Optional[Tuple[int, int]]]


def section_of_ref(aref: AffineRef, decl: ArrayDecl, env: LoopEnv) -> Section:
    """Section touched by an affine reference as its loop variables sweep
    the ranges in ``env``.  Variables missing from ``env`` and symbolic
    coefficients widen that dimension to its full extent."""
    triplets: List[Triplet] = []
    for form, extent in zip(aref.dims, decl.shape):
        triplet = _triplet_of_form(form, extent, env)
        triplets.append(triplet)
    return Section(decl.name, tuple(triplets))


def _triplet_of_form(form: AffineForm, extent: int, env: LoopEnv) -> Triplet:
    if form.is_symbolic():
        return Triplet(1, extent)
    lo = hi = form.const
    steps: List[int] = []
    for var, coeff in form.coeffs:
        bounds = env.get(var)
        if bounds is None:
            return Triplet(1, extent)
        vlo, vhi = bounds
        if vlo > vhi:
            return Triplet(1, 0)  # empty loop range
        if coeff >= 0:
            lo += coeff * vlo
            hi += coeff * vhi
        else:
            lo += coeff * vhi
            hi += coeff * vlo
        steps.append(abs(coeff))
    step = steps[0] if len(steps) == 1 else (gcd(*steps) if steps else 1)
    # Clamp into the declared extent: out-of-range parts of a conservative
    # estimate cannot be touched by a valid execution.
    lo = max(lo, 1)
    hi = min(hi, extent)
    return Triplet(lo, hi, max(step, 1)) if lo <= hi else Triplet(1, 0)


class SectionSet:
    """A union of sections of one array with bounded disjunct count."""

    MAX_DISJUNCTS = 8

    def __init__(self, array: str, sections: Iterable[Section] = ()) -> None:
        self.array = array
        self.sections: List[Section] = []
        for section in sections:
            self.add(section)

    def add(self, section: Section) -> bool:
        """Union in a section; returns True when the set changed."""
        if section.array != self.array:
            raise ValueError("section array mismatch")
        if section.empty:
            return False
        for existing in self.sections:
            if _covers(existing, section):
                return False
        self.sections = [s for s in self.sections if not _covers(section, s)]
        self.sections.append(section)
        if len(self.sections) > self.MAX_DISJUNCTS:
            hull = self.sections[0]
            for s in self.sections[1:]:
                hull = hull.hull(s)
            self.sections = [hull]
        return True

    def union(self, other: "SectionSet") -> bool:
        changed = False
        for section in other.sections:
            changed |= self.add(section)
        return changed

    def overlaps(self, section: Section) -> bool:
        return any(s.overlaps(section) for s in self.sections)

    @property
    def empty(self) -> bool:
        return not self.sections

    def copy(self) -> "SectionSet":
        fresh = SectionSet(self.array)
        fresh.sections = list(self.sections)
        return fresh

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SectionSet):
            return NotImplemented
        return self.array == other.array and set(map(str, self.sections)) == set(map(str, other.sections))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " ∪ ".join(map(str, self.sections)) if self.sections else "∅"


def _covers(outer: Section, inner: Section) -> bool:
    """True when ``outer`` provably contains ``inner`` (step-aware only
    for unit steps; otherwise requires equal triplets)."""
    for a, b in zip(outer.triplets, inner.triplets):
        if b.empty:
            continue
        if a.empty:
            return False
        if a.step == 1:
            if not (a.lo <= b.lo and b.hi <= a.hi):
                return False
        elif (a.lo, a.hi, a.step) != (b.lo, b.hi, b.step):
            return False
    return True


__all__ = ["Triplet", "Section", "SectionSet", "full_section",
           "section_of_ref", "LoopEnv"]
