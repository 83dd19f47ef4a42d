"""Per-layer tracing from outside the program.

``Tracer`` swaps gobmd's public functions for timing wrappers at the module
attributes the program looks them up through, and puts them back on exit.
Every wrapped call is a span; a span's seconds are its self time (duration
minus the spans nested inside it), so the self times of all spans inside one
solve add up to that solve's duration. ``outer_seconds`` sums the durations of
the outermost spans on their own, so that sum can be checked.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self, gobmd):
        self.gobmd = gobmd
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.lp_rows: list[int] = []
        self.lp_iterations: list[int] = []
        self.lp_warm = 0
        self.lp_not_optimal = 0
        self.exhaustive_codes = 0
        self.outer_seconds = 0.0
        self._child = []  # per open span: time covered by its child spans
        self._saved = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` and return its result."""
        self._child.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.seconds[name] += dur - self._child.pop()
            self.calls[name] += 1
            if self._child:
                self._child[-1] += dur
            else:
                self.outer_seconds += dur

    def _patch(self, owner, attr, name, record=None):
        orig = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            out = self.span(name, orig, *args, **kwargs)
            if record is not None:
                record(args, kwargs, out)
            return out

        self._saved.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def _record_lp(self, args, kwargs, sol):
        problem = args[0]
        warm = args[1] if len(args) > 1 else kwargs.get("warm")
        self.lp_rows.append(problem.n_rows)
        self.lp_iterations.append(sol.iterations)
        self.lp_warm += warm is not None
        self.lp_not_optimal += sol.status != "optimal"

    def _record_exhaustive(self, args, kwargs, res):
        self.exhaustive_codes += res.n_evaluated

    def __enter__(self):
        g = self.gobmd
        self._patch(g.lp, "solve_lp", "lp", self._record_lp)
        self._patch(g.loss.LossContext, "g_all", "loss.g_all")
        self._patch(g.solver, "make_cut", "loss.make_cut")
        self._patch(g.solver, "initial_cuts", "solver.initial_cuts")
        self._patch(g.baselines, "exhaustive_search", "baselines.exhaustive", self._record_exhaustive)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False
