"""In-memory spans around the benchmark's calls into the cilab layers.

A span is ``[name, start, end, parent]`` with ``perf_counter`` times and the
index of the enclosing span (-1 at top level).  Spans stay in memory and are
written out once, when the traced run ends.  Untimed runs use ``NullTracer``,
whose methods do nothing, so the timed code path is the same in both modes.
"""

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import numpy as np

# top-level spans that delimit phases rather than layers
PHASES = ("setup", "warmup", "unit")


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._open = []

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name, n=1):
        self.counts[(self._phase_index(), name)] += n

    def wrap(self, name, fn):
        """``fn`` with a span around every call (for callables handed to
        the program, such as ``z_eval`` and ``u_eval``)."""
        def traced(*args, **kw):
            with self.span(name):
                return fn(*args, **kw)
        return traced

    def _phase_index(self):
        return self._open[0] if self._open else -1

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


class NullTracer:
    enabled = False
    _null = nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, n=1):
        pass

    def wrap(self, name, fn):
        return fn


def layer_times(tracer: Tracer) -> dict:
    """Per-layer figures from the spans of one set-up and the timed units.

    Returns, for every layer span name, ``self_s`` (self time in the set-up
    plus the mean self time per timed unit), ``s`` (the same for whole span
    durations) and ``calls`` (per set-up plus mean per unit); and
    ``step.unattributed_s``: the median over timed units of the unit time
    that no layer span covers.
    """
    spans = tracer.spans
    dur = np.array([e - s for _, s, e, _ in spans])
    child = np.zeros(len(spans))
    phase = np.full(len(spans), -1)
    for i, (name, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            phase[i] = phase[parent] if phase[parent] >= 0 else parent
    units = [i for i, sp in enumerate(spans) if sp[0] == "unit"]
    setups = [i for i, sp in enumerate(spans) if sp[0] == "setup"]
    if not units or len(setups) != 1:
        raise ValueError("trace needs one set-up and at least one unit")
    # sums over the set-up and over all units; units are averaged at the end
    in_units = set(units)

    def kind(ph):
        return ("setup" if ph == setups[0]
                else "units" if ph in in_units else None)

    sums = {k: defaultdict(lambda: np.zeros(3)) for k in ("setup", "units")}
    for i, (name, _, _, _) in enumerate(spans):
        if name not in PHASES and kind(phase[i]):
            sums[kind(phase[i])][name] += (dur[i] - child[i], dur[i], 1.0)
    count_sums = {k: defaultdict(float) for k in ("setup", "units")}
    for (ph, name), n in tracer.counts.items():
        if kind(ph):
            count_sums[kind(ph)][name] += n
    out = {}
    for name in set(sums["setup"]) | set(sums["units"]):
        total = sums["setup"][name] + sums["units"][name] / len(units)
        out[name] = dict(zip(("self_s", "s", "calls"), map(float, total)))
    counts = {name: count_sums["setup"][name]
              + count_sums["units"][name] / len(units)
              for name in set(count_sums["setup"]) | set(count_sums["units"])}
    unattributed = [dur[u] - child[u] for u in units]
    return {"layers": out, "counts": counts,
            "unattributed_s": float(np.median(unattributed)),
            "unit_s": float(np.median(dur[units]))}
