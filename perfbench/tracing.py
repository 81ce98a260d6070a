"""In-memory spans around the benchmark's calls into gallai_forge.

A span records its name, start and end (``time.perf_counter``), the span
that was open when it started, the item it belongs to, the round it ran in
(a set-up, a pass, or a check) and free-form attributes such as node or
byte counts.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    item: str | None
    round: str
    start: float
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records a span around each call made through ``call`` or ``span``."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.round = "none"
        self._open: list[Span] = []
        self._last: Span | None = None

    @contextmanager
    def span(self, name: str, item: str | None = None):
        parent = self._open[-1] if self._open else None
        if item is None and parent is not None:
            item = parent.item
        rec = Span(len(self.spans), parent.sid if parent else None, name, item, self.round, time.perf_counter())
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        except BaseException:
            rec.failed = True
            raise
        finally:
            rec.end = time.perf_counter()
            self._open.pop()
            self._last = rec

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def annotate(self, **attrs) -> None:
        """Attach attributes to the span that finished last."""
        self._last.attrs.update(attrs)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class NullTracer:
    """Same interface as Tracer; calls straight through and records nothing."""

    enabled = False
    round = "none"

    def span(self, name: str, item: str | None = None):
        return nullcontext()

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def annotate(self, **attrs) -> None:
        pass


@contextmanager
def per_order_spans(tracer: Tracer, search_module):
    """Wrap ``search_two_color`` as seen by ``ramsey_number`` so each order
    it tries gets a ``search.order`` span with its verdict and counters.

    ``ramsey_number`` keeps only the last two orders' outcomes; this is how
    the benchmark sees all of them without touching the library.
    """
    original = search_module.search_two_color

    def traced(n, p_red, p_blue, *args, **kwargs):
        with tracer.span("search.order") as rec:
            outcome = original(n, p_red, p_blue, *args, **kwargs)
        rec.attrs.update(
            n=n,
            jobs=kwargs.get("jobs", 1),
            verdict=outcome.verdict,
            nodes=outcome.nodes,
            prunes=outcome.prunes,
        )
        return outcome

    search_module.search_two_color = traced
    try:
        yield
    finally:
        search_module.search_two_color = original
