"""In-memory spans for the traced benchmark run.

A span is opened around each call the benchmark makes into a layer, and
around calls the library makes internally by replacing, while a traced case
runs, the module or class attribute that the library looks up at call time
(``oracle.refine_alpha_members``, ``AthetaFamily.distance``, ...).  Nothing
under ``src/`` is edited; ``restore`` puts every attribute back.

Each span is a list ``[name, start, end, parent, case, n_in, n_out]``:
``parent`` is the index of the enclosing span (-1 for a root), ``case`` the
case id set by the caller, and ``n_in``/``n_out`` the counts a wrapped call
reports (lines scanned and hits, candidates in and converged, ...).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

NAME, START, END, PARENT, CASE, N_IN, N_OUT = range(7)

#: Aggregate of a span name with no calls.
EMPTY = {"calls": 0, "total": 0.0, "self": 0.0, "n_in": 0, "n_out": 0, "roots": 0.0}

_NULL = nullcontext()


def null_span(name: str):
    """Span factory of the untraced run: records nothing."""
    return _NULL


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.case = None
        self._open: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, self.case, 0, 0]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``counts(args, result)`` returns the span's ``(n_in, n_out)``.
        """
        orig = getattr(owner, attr)
        span = self.span

        def traced(*args, **kwargs):
            with span(name) as rec:
                out = orig(*args, **kwargs)
                if counts is not None:
                    rec[N_IN], rec[N_OUT] = counts(args, out)
            return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def dump(self, path, header: dict) -> None:
        """Write a header line, then one JSON array per span; times count from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START] - t0, s[END] - t0, *s[PARENT:]]) + "\n")


def aggregate(spans, keep) -> dict:
    """Per span name: calls, total and self seconds, summed counts; over spans with ``keep(case)``.

    Self time is a span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if not keep(s[CASE]):
            continue
        a = out.setdefault(s[NAME], dict(EMPTY))
        dur = s[END] - s[START]
        a["calls"] += 1
        a["total"] += dur
        a["self"] += dur - child[i]
        a["n_in"] += s[N_IN]
        a["n_out"] += s[N_OUT]
        if s[PARENT] < 0:
            a["roots"] += dur
    return out
