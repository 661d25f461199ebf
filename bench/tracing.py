"""In-memory spans around calls into critspde's public functions.

Tracing lives in the benchmark only: a traced pass rebinds module attributes
(``critspde.harness.simulate_path``, ``numpy.fft.rfft``, ...) inside the
benchmark process and restores them when the pass ends.  ``src/`` carries no
tracing code, and untraced passes run the program untouched.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

NameSpec = Union[str, Callable[[tuple, dict], str]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root
    run_id: int


class Tracer:
    """Collects spans and counters; hooks apply inside installed()."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self._stack: List[int] = []
        self._hooks: List[Tuple[object, str, Callable]] = []

    # --- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def current(self) -> Optional[str]:
        """Name of the innermost open span, if any."""
        return self.spans[self._stack[-1]].name if self._stack else None

    # --- rebinding -----------------------------------------------------------

    def hook(self, owner: object, attr: str, span: Optional[NameSpec] = None,
             on_call: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> None:
        """Register a rebinding of ``owner.attr`` that installed() applies.

        ``span`` names the span recorded around each call (a string, or a
        function of the call's args and kwargs); without it the hook only
        runs ``on_call(tracer, args, kwargs)``.  ``on_result(tracer, result,
        args, kwargs)`` sees each return value, for counters.
        """

        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(self, args, kwargs)
                if span is None:
                    result = original(*args, **kwargs)
                else:
                    name = (span if isinstance(span, str)
                            else span(args, kwargs))
                    with self.span(name):
                        result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(self, result, args, kwargs)
                return result
            return wrapper

        self._hooks.append((owner, attr, make))

    @contextmanager
    def installed(self, run_id: int) -> Iterator[None]:
        """Apply every registered hook for one traced pass, then restore."""
        self.run_id = run_id
        saved = []
        try:
            for owner, attr, make in self._hooks:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # --- output --------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write each span with its self time, one JSON object a line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({**asdict(span), "self": own}) + "\n")


def _covered(intervals: Sequence[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [s.end - s.start - _covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)]
