"""Spans and counts recorded around the calls into each ``ragame`` module.

The package itself is not changed.  :func:`instrument` replaces public
functions and methods with wrappers at every place callers look them up:
module-level functions in every ``ragame`` module that imported them by
name, methods on their classes (so bound methods taken later, like the
``cdf_scalar`` the success evaluator's closure binds, go through the
wrapper too).  Each wrapped call records a span: name, start, end and the
span open when it began.  Spans stay in memory and are written out at the
end; self time is computed from them afterwards.

``RadialDistribution.cdf_scalar`` runs millions of times per second inside
the evaluator loop, so it is counted, not spanned: a span per call would
cost more memory than the rest of the run together.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans (name id, parent span, start, end) and named counters, in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self._cells: dict[str, list[int]] = defaultdict(lambda: [0])
        self._undo: list[tuple[object, str, object]] = []

    def reset(self):
        """Forget recorded spans and counts; keep the wrappers installed."""
        for lst in (self.name, self.parent, self.start, self.end, self._stack):
            lst.clear()
        for cell in self._cells.values():
            cell[0] = 0

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, name: str, k: int = 1):
        self._cells[name][0] += k

    def counts(self) -> dict[str, int]:
        return {k: v[0] for k, v in self._cells.items()}

    @contextmanager
    def region(self, name: str):
        """Span around a block of the benchmark's own code."""
        sid = self._open(self._nid(name))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name, fn, before=None, after=None):
        """Wrapper recording a span per call; hooks see arguments and result."""
        nid = self._nid(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if after is not None:
                result = after(result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrapper that only counts calls (for the hottest scalar paths)."""
        cell = self._cells[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def patch_function(self, fn, wrapper):
        """Replace ``fn`` in every loaded ``ragame`` module that holds it by name."""
        for modname, mod in list(sys.modules.items()):
            if modname == "ragame" or modname.startswith("ragame."):
                if mod.__dict__.get(fn.__name__) is fn:
                    self.patch(mod, fn.__name__, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def stats(self) -> "SpanStats":
        return SpanStats(self)

    def dump(self, path):
        """Write the spans as CSV: id, name, parent id, start and end in seconds."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for sid, (nid, par, s, e) in enumerate(
                zip(self.name, self.parent, self.start, self.end)
            ):
                fh.write(f"{sid},{self.names[nid]},{par},{s - t0:.9f},{e - t0:.9f}\n")


class SpanStats:
    """Per-name and per-layer totals computed from a tracer's spans.

    A layer is the part of a span name before its first dot.  Self time is
    a span's duration less the durations of its direct children.  No wrapped
    function calls itself, so a name's busy time is the sum of its spans;
    a layer's busy time skips spans whose parent is in the same layer
    (``estimate_expected_utility`` calls ``estimate_success_probability``),
    so such nested calls count once.
    """

    def __init__(self, tracer: Tracer):
        names = [tracer.names[nid] for nid in tracer.name]
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        child = [0.0] * len(dur)
        for s, p in enumerate(tracer.parent):
            if p >= 0:
                child[p] += dur[s]

        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.child_calls = defaultdict(int)
        self.child_time = defaultdict(float)
        for s, p in enumerate(tracer.parent):
            name, layer = names[s], names[s].split(".")[0]
            self.calls[name] += 1
            self.busy[name] += dur[s]
            self.self_time[name] += dur[s] - child[s]
            self.layer_self[layer] += dur[s] - child[s]
            parent = names[p] if p >= 0 else ""
            if parent.split(".")[0] != layer:
                self.layer_busy[layer] += dur[s]
            if p >= 0:
                self.child_calls[(parent, name)] += 1
                self.child_time[(parent, name)] += dur[s]
        self.spans = len(dur)


def instrument(tracer: Tracer):
    """Wrap the public functions of every ``ragame`` module; undo with ``tracer.restore()``."""
    import ragame.best_response as br
    import ragame.cli  # noqa: F401  (loaded so its imported names get patched)
    import ragame.equilibrium as eq
    import ragame.monte_carlo as mc
    import ragame.success as su
    from ragame.radial import RadialDistribution
    from ragame.strategy import Strategy

    def elements(counter):
        return lambda args, kwargs: tracer.count(counter, int(np.size(args[1])))

    tracer.patch(
        RadialDistribution,
        "cdf_scalar",
        tracer.counted("radial.cdf_scalar.calls", RadialDistribution.cdf_scalar),
    )
    for method in ("cdf", "quantile"):
        fn = RadialDistribution.__dict__[method]
        wrapper = tracer.spanned(f"radial.{method}", fn, before=elements(f"radial.{method}.elements"))
        tracer.patch(RadialDistribution, method, wrapper)
    for method in ("transmit_mass_below", "transmit_mask", "symmetric_difference_measure"):
        tracer.patch(
            Strategy, method, tracer.spanned(f"strategy.{method}", Strategy.__dict__[method])
        )

    def traced_evaluator(evaluate):
        return tracer.spanned("success.evaluator.eval", evaluate)

    tracer.patch_function(
        su.success_evaluator,
        tracer.spanned("success.evaluator.build", su.success_evaluator, after=traced_evaluator),
    )
    for fn in (su.success_probability, su.success_curve):
        tracer.patch_function(fn, tracer.spanned(f"success.{fn.__name__}", fn))
    tracer.patch(
        su.SuccessCurve,
        "write_csv",
        tracer.spanned("success.write_csv", su.SuccessCurve.__dict__["write_csv"]),
    )

    def count_case(result):
        tracer.count(f"best_response.case.{result.boundary_case}")
        return result

    tracer.patch_function(
        br.best_response_threshold,
        tracer.spanned("best_response", br.best_response_threshold, after=count_case),
    )
    for fn in (eq.solve_sequential, eq.verify_nash):
        tracer.patch_function(fn, tracer.spanned(f"equilibrium.{fn.__name__}", fn))

    def count_draws(args, kwargs):
        profile, sim = args[0], args[-1] if len(args) >= 5 else kwargs["sim"]
        tracer.count("monte_carlo.draws", sim.samples * (profile.n - 1))

    # estimate_expected_utility draws through estimate_success_probability,
    # so only the two sampling entry points count draws.
    for fn, hook in (
        (mc.estimate_success_curve, count_draws),
        (mc.estimate_success_probability, count_draws),
        (mc.estimate_expected_utility, None),
    ):
        tracer.patch_function(fn, tracer.spanned(f"monte_carlo.{fn.__name__}", fn, before=hook))
