"""Spans around calls into decaylab's modules, recorded from outside the package.

`Tracer.installed()` replaces module attributes (for example
`decaylab.solver.laplacian`, the name `step` looks up at call time) with
timing wrappers and restores them on exit.  Each call records a span: start,
end, thread, the wrapped function's name and its layer (the module it lives
in).  Spans stay in memory; `attribute()` turns them into wall-time shares.

Attribution.  Between two consecutive span boundaries every thread that is
inside a span is active, except a thread whose innermost span only waits for
others (`run_suite` while its pool works).  The interval is split equally
among the active threads.  A thread's share counts as self time of its
innermost span and as inclusive time of every group (set of span names) its
stack touches.  In a serial run this is ordinary self and inclusive time; with
2 threads each instant is split between them, so layer self times still sum
to the wall time of the traced calls.

Work the benchmark itself does inside a span (the damping-residual check) is
recorded as a span of layer `trace`, so it is charged to no program layer.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager

WAITING_SPANS = frozenset({"scenarios.run_suite"})


class Tracer:
    def __init__(self):
        self.spans = []                      # (start, end, thread, name, layer)
        self.counts = defaultdict(float)
        self.missing = []                    # hooks whose attribute is gone
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -----------------------------------------------------------

    def count(self, key: str, amount: float = 1.0):
        with self._lock:
            self.counts[key] += amount

    @property
    def current_op(self):
        return getattr(self._local, "op", None)

    def _wrap(self, fn, name, layer, after, op_of):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        ident = threading.get_ident

        def wrapper(*args, **kwargs):
            if op_of is not None:
                local.op = op_of(args, kwargs)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                spans.append((t0, t1, ident(), name, layer))
            if after is not None:
                after(self, args, kwargs, out)
                spans.append((t1, clock(), ident(), "trace.check", "trace"))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, hooks):
        """Patch every (owner, attr, layer, after, op_of) hook for the block."""
        saved = []
        try:
            for owner, attr, layer, after, op_of in hooks:
                fn = getattr(owner, attr, None)
                if fn is None:
                    self.missing.append(f"{layer}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr,
                        self._wrap(fn, f"{layer}.{attr}", layer, after, op_of))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- attribution ---------------------------------------------------------

    def attribute(self, groups: dict) -> dict:
        """Wall-time shares: self time per span name and per layer, and the
        inclusive time of each named group of span names."""
        events = []
        for start, end, tid, name, layer in self.spans:
            # at equal times: ends before starts, outer spans open first and
            # close last, so each thread's stack stays properly nested
            events.append(((start, 1, -end), tid, name, layer))
            events.append(((end, 0, -start), tid, name, layer))
        events.sort(key=lambda e: e[0])
        stacks = defaultdict(list)
        self_name = defaultdict(float)
        self_layer = defaultdict(float)
        incl = dict.fromkeys(groups, 0.0)
        member = {g: frozenset(names) for g, names in groups.items()}
        prev = None
        for (t, is_start, _), tid, name, layer in events:
            if prev is not None and t > prev:
                active = [s for s in stacks.values() if s]
                busy = [s for s in active if s[-1][0] not in WAITING_SPANS]
                share_of = busy or active
                if share_of:
                    share = (t - prev) / len(share_of)
                    for stack in share_of:
                        top_name, top_layer = stack[-1]
                        self_name[top_name] += share
                        self_layer[top_layer] += share
                        names = {n for n, _ in stack}
                        for g, m in member.items():
                            if names & m:
                                incl[g] += share
            prev = t
            if is_start:
                stacks[tid].append((name, layer))
            else:
                stacks[tid].pop()
        return {"self_name": dict(self_name), "self_layer": dict(self_layer),
                "incl": incl}

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[3] == name)

    def reset(self):
        self.spans.clear()
        self.counts.clear()
