"""Wall-clock spans around each layer's public entry point.

The benchmark's traced run wraps the functions below from outside the
package: every module-level name bound to an entry point is rebound to
a wrapper that records one span per call (name, start, end, parent) in
memory.  Nothing under ``src/`` changes; an untraced run installs no
wrapper at all.

A span's *self time* is its duration minus the part its direct child
spans cover; summing self times per layer (the name's first component)
gives a breakdown that adds up to the traced wall time, and the root
span's own self time is what no layer accounts for.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

Span = List  # [name, start, end, parent_index]


class Recorder:
    """In-memory span store with a parent stack (one thread)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out "
                               f"of order")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, fn: Callable, name, on_result: Optional[Callable] = None
             ) -> Callable:
        """``fn`` with a span around every call.  ``name`` is a string or
        a function of the call's arguments; ``on_result`` sees
        ``(result, args, kwargs)`` after the span closes."""
        recorder = self

        def spanned(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = recorder.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(index)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- derived figures -----------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the duration of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_self(self) -> Dict[str, float]:
        """Self time summed per layer (the span name's first component)."""
        out: Dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = span[0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def inclusive(self, name: str) -> float:
        """Summed duration of spans called ``name`` or ``name.<suffix>``,
        counting a span only when no ancestor also matches (recursion is
        not double counted)."""
        def matches(span_name: str) -> bool:
            return span_name == name or span_name.startswith(name + ".")

        total = 0.0
        for span in self.spans:
            if not matches(span[0]):
                continue
            parent = span[3]
            while parent >= 0 and not matches(self.spans[parent][0]):
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def children_of(self, name: str) -> float:
        """Summed duration of the direct children of spans called ``name``."""
        parents = {i for i, s in enumerate(self.spans) if s[0] == name}
        return sum(s[2] - s[1] for s in self.spans if s[3] in parents)

    def write(self, path) -> None:
        """One JSON object per span, start times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        own = self.self_times()
        with open(path, "w") as fh:
            for i, (span, self_s) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({
                    "id": i, "name": span[0], "parent": span[3],
                    "start_s": span[1] - origin, "end_s": span[2] - origin,
                    "self_s": self_s}) + "\n")


def rebind(original: Callable, replacement: Callable,
           package: str = "repro") -> int:
    """Point every module-level name in ``package`` that is bound to
    ``original`` at ``replacement`` (covers ``from x import f`` copies
    and aliases); returns how many names were rebound."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == package
                                  or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    if count == 0:
        raise RuntimeError(f"no module binds {original!r}; the layer map "
                           f"is out of date")
    return count
