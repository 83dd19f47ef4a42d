"""Tests of the per-layer tracer on a stand-in for the gobmd package.

    python3 -m pytest bench
"""

import time
from types import SimpleNamespace

import pytest

from layertrace import Tracer


def fake_gobmd(log):
    def solve_lp(problem, warm=None):
        time.sleep(0.002)
        return SimpleNamespace(iterations=3, status="optimal")

    def make_cut(ctx, i, point):
        time.sleep(0.001)

    def initial_cuts(instance):
        for i in range(2):
            solver.make_cut(None, i, None)  # looked up by name, as gobmd.solver does

    class LossContext:
        def g_all(self, x):
            log.append(x)

    solver = SimpleNamespace(make_cut=make_cut, initial_cuts=initial_cuts)
    return SimpleNamespace(
        lp=SimpleNamespace(solve_lp=solve_lp),
        loss=SimpleNamespace(LossContext=LossContext),
        solver=solver,
        baselines=SimpleNamespace(exhaustive_search=lambda inst: SimpleNamespace(n_evaluated=8)),
    )


def test_self_times_add_up_and_functions_are_restored():
    log = []
    g = fake_gobmd(log)
    originals = (g.lp.solve_lp, g.solver.make_cut, g.solver.initial_cuts, g.loss.LossContext.g_all)

    def solve():
        g.solver.initial_cuts(None)
        g.lp.solve_lp(SimpleNamespace(n_rows=5), "warm")
        g.lp.solve_lp(SimpleNamespace(n_rows=7))
        g.loss.LossContext().g_all(1.0)
        time.sleep(0.001)

    with Tracer(g) as tr:
        tr.span("solver.solve", solve)
    assert (g.lp.solve_lp, g.solver.make_cut, g.solver.initial_cuts, g.loss.LossContext.g_all) == originals
    assert log == [1.0]
    assert dict(tr.calls) == {"solver.initial_cuts": 1, "loss.make_cut": 2, "lp": 2,
                              "loss.g_all": 1, "solver.solve": 1}
    assert tr.lp_rows == [5, 7] and tr.lp_iterations == [3, 3]
    assert tr.lp_warm == 1 and tr.lp_not_optimal == 0
    # nested make_cut time counts under make_cut, not under initial_cuts
    assert tr.seconds["loss.make_cut"] >= 0.002 > tr.seconds["solver.initial_cuts"]
    assert sum(tr.seconds.values()) == pytest.approx(tr.outer_seconds, rel=1e-9)
