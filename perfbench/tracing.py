"""Spans recorded from outside the package, by wrapping module attributes.

`Tracer.wrap(module, attr, name)` replaces a public function with a
wrapper that records (id, name, start, end, parent) for every call.
Callers that look the function up through the module at call time, as
the package does for its own module-level functions and for the names
it imports (`solve_ivp`, `brentq`), go through the wrapper. Spans stay
in memory (`Tracer.spans`) until the run writes them out at its end;
`restore` puts the originals back.

Parents come from a per-thread stack. A span opened on a thread with an
empty stack (a `reproduce_all` pool worker) takes the current op span
as its parent, so every span of an op hangs off that op.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """An explicit span around a block (the harness uses it per op)."""
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else self._op
        outer_op = self._op
        if parent is None:
            self._op = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._op = outer_op
            self.spans.append((sid, name, start, end, parent))

    def wrap(self, module, attr: str, name, result_hook=None) -> None:
        """Record a span per call of module.attr.

        name is a string or a function of the call's arguments returning
        one; result_hook(name, result) sees each return value.
        """
        original = getattr(module, attr)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack = stack_of()
            parent = stack[-1] if stack else self._op
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = name if isinstance(name, str) else name(*args, **kwargs)
                spans.append((sid, label, start, end, parent))
            if result_hook is not None:
                result_hook(label, result)
            return result

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of owner.attr without recording spans (per-step hooks)."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, _name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, start, end, _parent in spans:
        covered = union_length(
            (max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end
        )
        out[sid] = (end - start) - covered
    return out
