"""LP solver checks: hand oracles, scipy cross-validation, warm starts, certificates."""

import numpy as np
import pytest
from scipy.optimize import linprog

from gobmd import lp
from gobmd.loss import LossContext, make_cut
from gobmd.lp import (
    AT_LOWER,
    BASIC,
    BasisToken,
    ContradictoryFixing,
    SingularBasisError,
    add_rows,
    certificate,
    dump_problem,
    fix_variable,
    make_problem,
    solve_lp,
)
from gobmd.model import GenConfig, generate_instance
from gobmd.solver import initial_cuts, solve_gobmd


def scipy_optimum(p) -> float:
    """Independent reference via HiGHS on the (x, w) formulation."""
    K, N, m = p.n_x, p.n_w, p.n_rows
    c = np.concatenate([np.zeros(K), np.ones(N)])
    A_ub = b_ub = None
    if m:
        A_ub = np.zeros((m, K + N))
        A_ub[:, :K] = p.row_coef
        A_ub[np.arange(m), K + p.row_w] = -1.0
        b_ub = -p.row_off
    bounds = [(p.x_lower[j], p.x_upper[j]) for j in range(K)]
    bounds += [(p.w_lower[i], None) for i in range(N)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0
    return float(res.fun)


def random_problem(rng, K=None, N=None, m=None):
    K = K or rng.integers(1, 8)
    N = N or rng.integers(1, 10)
    m = m if m is not None else rng.integers(0, 25)
    rows = [
        (int(rng.integers(0, N)), rng.standard_normal(K), float(rng.standard_normal() * 0.5))
        for _ in range(m)
    ]
    p = make_problem(K, N, rows)
    for j in range(K):
        u = rng.uniform()
        if u < 0.15:
            p = fix_variable(p, j, float(rng.choice([-1.0, 1.0])))
    return p


def test_single_tangent_example():
    # minimize w subject to w >= 0.5 + 0.1 (x - 1), i.e. w - 0.1 x >= 0.4
    p = make_problem(1, 1, [(0, np.array([0.1]), 0.4)])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-1.0, abs=1e-9)
    assert sol.w[0] == pytest.approx(0.3, abs=1e-9)
    assert sol.objective == pytest.approx(0.3, abs=1e-9)


def test_no_rows_objective_zero():
    p = make_problem(3, 4)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert np.all(sol.x >= -1.0) and np.all(sol.x <= 1.0)


def test_two_crossing_tangents():
    # w >= x + 0.5 and w >= -x + 0.3 cross at x = -0.1, w = 0.4; breakpoint
    # enumeration over {-1, -0.1, 1} gives 1.3, 0.4, 1.5
    p = make_problem(1, 1, [(0, np.array([1.0]), 0.5), (0, np.array([-1.0]), 0.3)])
    sol = solve_lp(p)
    assert sol.objective == pytest.approx(0.4, abs=1e-9)
    assert sol.x[0] == pytest.approx(-0.1, abs=1e-8)


def test_random_problems_match_scipy():
    rng = np.random.default_rng(20)
    for _ in range(100):
        p = random_problem(rng)
        sol = solve_lp(p)
        assert sol.status == "optimal"
        ref = scipy_optimum(p)
        assert sol.objective == pytest.approx(ref, abs=1e-7)
        assert certificate(p, sol)["ok"]


def test_objective_equals_sum_w():
    rng = np.random.default_rng(21)
    for _ in range(20):
        sol = solve_lp(random_problem(rng))
        assert sol.objective == pytest.approx(float(np.sum(sol.w)), abs=1e-9)


def test_add_rows_monotone_and_warm():
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = random_problem(rng, m=int(rng.integers(1, 15)))
        sol = solve_lp(p)
        extra = [
            (int(rng.integers(0, p.n_w)), rng.standard_normal(p.n_x), float(rng.standard_normal()))
            for _ in range(int(rng.integers(1, 5)))
        ]
        p2 = add_rows(p, extra)
        warm_sol = solve_lp(p2, warm=sol.basis)
        cold_sol = solve_lp(p2)
        assert warm_sol.status == cold_sol.status == "optimal"
        assert warm_sol.objective == pytest.approx(cold_sol.objective, abs=1e-8)
        assert cold_sol.objective >= sol.objective - 1e-9
        assert certificate(p2, warm_sol)["ok"]


def test_add_zero_rows_identity():
    rng = np.random.default_rng(23)
    p = random_problem(rng, m=5)
    assert add_rows(p, []) is p
    a = solve_lp(p)
    b = solve_lp(add_rows(p, []))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.w, b.w)


def test_add_implied_row_keeps_objective():
    rng = np.random.default_rng(24)
    p = random_problem(rng, m=8)
    sol = solve_lp(p)
    t = 0  # duplicating an existing row changes nothing
    p2 = add_rows(p, [(int(p.row_w[t]), p.row_coef[t], float(p.row_off[t]))])
    sol2 = solve_lp(p2)
    assert sol2.objective == pytest.approx(sol.objective, abs=1e-9)


def test_violated_row_resolves_feasible():
    rng = np.random.default_rng(25)
    for _ in range(20):
        p = random_problem(rng, K=3, N=4, m=6)
        sol = solve_lp(p)
        i = int(rng.integers(0, p.n_w))
        a = rng.standard_normal(p.n_x)
        b = sol.w[i] + 0.5 - float(a @ sol.x)  # cuts off the current optimum
        p2 = add_rows(p, [(i, a, b)])
        sol2 = solve_lp(p2, warm=sol.basis)
        # the old point is infeasible for the new row; the re-solve must
        # satisfy it and can only move the objective up
        assert sol.w[i] < float(a @ sol.x) + b
        assert sol2.w[i] >= float(a @ sol2.x) + b - 1e-8
        assert sol2.objective >= sol.objective - 1e-9
        assert certificate(p2, sol2)["ok"]
        # with all x pinned the dodge is impossible: strict increase
        pf = p
        for j in range(p.n_x):
            if pf.x_lower[j] != pf.x_upper[j]:
                pf = fix_variable(pf, j, 1.0)
        solf = solve_lp(pf)
        af = np.zeros(p.n_x)
        pf2 = add_rows(pf, [(i, af, float(solf.w[i]) + 0.5)])
        solf2 = solve_lp(pf2)
        assert solf2.objective > solf.objective + 0.25


def test_fix_variable_monotone_and_warm():
    rng = np.random.default_rng(26)
    for _ in range(40):
        p = random_problem(rng, K=4, N=4, m=10)
        sol = solve_lp(p)
        j = int(rng.integers(0, p.n_x))
        if p.x_lower[j] == p.x_upper[j]:
            continue
        p2 = fix_variable(p, j, float(rng.choice([-1.0, 1.0])))
        warm_sol = solve_lp(p2, warm=sol.basis)
        cold_sol = solve_lp(p2)
        assert warm_sol.objective == pytest.approx(cold_sol.objective, abs=1e-8)
        assert cold_sol.objective >= sol.objective - 1e-9


def test_fix_all_variables_closed_form():
    rng = np.random.default_rng(27)
    for _ in range(20):
        p = random_problem(rng, K=3, N=4, m=8)
        x = np.array([float(rng.choice([-1.0, 1.0])) for _ in range(3)])
        pf = p
        for j in range(3):
            if pf.x_lower[j] == pf.x_upper[j]:
                x[j] = pf.x_lower[j]
            else:
                pf = fix_variable(pf, j, x[j])
        expected = 0.0
        for i in range(p.n_w):
            vals = [p.row_off[t] + p.row_coef[t] @ x for t in range(p.n_rows) if p.row_w[t] == i]
            expected += max(0.0, max(vals, default=0.0))
        sol = solve_lp(pf)
        assert sol.objective == pytest.approx(expected, abs=1e-8)


def test_fix_at_parent_optimum_keeps_objective():
    rng = np.random.default_rng(28)
    p = random_problem(rng, K=3, N=3, m=9)
    sol = solve_lp(p)
    j = 0
    if abs(sol.x[j]) == 1.0 and p.x_lower[j] != p.x_upper[j]:
        p2 = fix_variable(p, j, float(sol.x[j]))
        sol2 = solve_lp(p2)
        assert sol2.objective == pytest.approx(sol.objective, abs=1e-9)


def test_fix_variable_bounds_and_errors():
    p = make_problem(2, 1, [(0, np.array([1.0, 0.0]), 0.0)])
    p2 = fix_variable(p, 0, 1.0)
    assert p2.x_lower[0] == p2.x_upper[0] == 1.0
    fix_variable(p2, 0, 1.0)  # refixing to the same value is fine
    with pytest.raises(ContradictoryFixing):
        fix_variable(p2, 0, -1.0)
    with pytest.raises(ValueError):
        fix_variable(p, 0, 0.5)


def test_weak_duality():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p = random_problem(rng, m=12)
        sol = solve_lp(p)
        x = rng.uniform(p.x_lower, p.x_upper)
        w = p.w_lower.copy()
        for t in range(p.n_rows):
            w[p.row_w[t]] = max(w[p.row_w[t]], p.row_off[t] + p.row_coef[t] @ x)
        assert sol.objective <= float(np.sum(w)) + 1e-8


def test_determinism():
    rng = np.random.default_rng(30)
    p = random_problem(rng, K=5, N=6, m=20)
    a = solve_lp(p)
    b = solve_lp(p)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.w, b.w)
    assert a.objective == b.objective
    assert a.iterations == b.iterations


def test_iteration_limit_status():
    rng = np.random.default_rng(31)
    p = random_problem(rng, K=5, N=6, m=20)
    sol = solve_lp(p, max_iter=1)
    assert sol.status == "iteration-limit"


def test_primal_residuals_within_tolerance():
    rng = np.random.default_rng(32)
    for _ in range(50):
        p = random_problem(rng, m=15)
        sol = solve_lp(p)
        cert = certificate(p, sol)
        assert cert["row_violation"] <= 1e-8
        assert cert["bound_violation"] <= 1e-8
        assert cert["dual_violation"] <= 1e-9


def test_incompatible_warm_token_falls_back():
    rng = np.random.default_rng(33)
    p1 = random_problem(rng, K=3, N=4, m=6)
    p2 = random_problem(rng, K=5, N=4, m=6)  # different column count
    sol1 = solve_lp(p1)
    sol2 = solve_lp(p2, warm=sol1.basis)
    assert sol2.status == "optimal"
    assert sol2.objective == pytest.approx(scipy_optimum(p2), abs=1e-7)


def test_dump_problem_mentions_structure():
    p = make_problem(2, 2, [(1, np.array([0.5, -0.25]), 1.5)])
    text = dump_problem(p)
    assert "rows=1" in text and "w1" in text and "bound x0" in text


def pool_problem(rng, case):
    """A criterion-8-style node LP: seed pool plus random tangents, some x fixed."""
    inst = generate_instance(GenConfig(6, int(rng.integers(1, 6)), 10.0, 8_000 + case))
    ctx = LossContext.from_instance(inst)
    pool = initial_cuts(inst, ctx)
    for _ in range(int(rng.integers(0, 120))):
        anchor = np.where(rng.random(ctx.k) < 0.5, 1.0, -1.0)
        pool.add(make_cut(ctx, int(rng.integers(0, ctx.n)), anchor))
    row_w, coef, off = pool.lp_rows()
    p = make_problem(ctx.k, ctx.n, list(zip(row_w, coef, off)))
    for j in range(ctx.k):
        if rng.random() < 0.2:
            p = fix_variable(p, j, float(rng.choice([-1.0, 1.0])))
    return p


def test_structured_refactor_inverts_the_basis(monkeypatch):
    kinds = {"all-slack": 0, "basic x": 0, "basic w": 0, "basic w with several tight rows": 0}
    worst = 0.0
    refactor = lp._DualSimplex._refactor

    def checked(core):
        refactor(core)
        nonlocal worst
        worst = max(worst, float(np.abs(core.Binv @ core.A[:, core.basis] - np.eye(core.m)).max()))
        K, N = core.K, core.N
        basic_w = core.basis[(core.basis >= K) & (core.basis < K + N)] - K
        tight = np.ones(core.m, dtype=bool)
        tight[core.basis[core.basis >= K + N] - K - N] = False
        tight_per_w = np.bincount(core.row_w[tight], minlength=N)
        kinds["all-slack"] += bool(np.all(core.basis >= K + N))
        kinds["basic x"] += bool(np.any(core.basis < K))
        kinds["basic w"] += basic_w.size > 0
        kinds["basic w with several tight rows"] += bool(np.any(tight_per_w[basic_w] > 1))

    monkeypatch.setattr(lp._DualSimplex, "_refactor", checked)
    rng = np.random.default_rng(40)
    for case in range(60):
        # several rows per w, so basic w columns have non-key tight rows too
        p = random_problem(rng, N=int(rng.integers(1, 4)), m=int(rng.integers(1, 30)))
        sol = solve_lp(p)
        p2 = add_rows(p, [(int(rng.integers(0, p.n_w)), rng.standard_normal(p.n_x), 1.0)])
        assert solve_lp(p2, warm=sol.basis).status == "optimal"
        assert solve_lp(pool_problem(rng, case)).status == "optimal"
    assert worst <= 1e-10
    assert all(count > 0 for count in kinds.values()), kinds


def test_warm_basis_with_keyless_w_restarts_cold():
    # w0 basic while the slack of its only row is basic too: column w0 lies in
    # the span of the basic slacks, so the basis is singular
    p = make_problem(2, 2, [(0, np.array([0.5, -1.0]), 0.3), (1, np.array([1.0, 0.25]), 0.7)])
    K, N, m = 2, 2, 2
    basis = np.array([K + 0, K + N + 0])
    vstat = np.full(K + N + m, AT_LOWER, dtype=np.int8)
    vstat[basis] = BASIC
    with pytest.raises(SingularBasisError):
        lp._DualSimplex(p).run(basis, vstat, 100)
    sol = solve_lp(p, warm=BasisToken(basis, vstat, m, K, N))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(scipy_optimum(p), abs=1e-9)
    assert certificate(p, sol)["ok"]


@pytest.mark.parametrize(
    "n_ant, snr, seed, trial, nodes, lp_solves, cuts",
    [
        (18, 10.0, 7001, 0, 101, 105, 125),
        (24, 5.0, 7003, 1, 75, 78, 142),
        (32, 15.0, 7004, 0, 57, 60, 133),
    ],
)
def test_pivot_path_pinned(n_ant, snr, seed, trial, nodes, lp_solves, cuts):
    # Counts recorded with a dense m x m basis inverse. The structured basis
    # algebra must reproduce every pivot choice; a drift shows as another tree.
    rep = solve_gobmd(generate_instance(GenConfig(n_ant, 5, snr, seed), trial))
    assert rep.status == "optimal"
    assert (rep.nodes_processed, rep.lp_solves, rep.cuts_added) == (nodes, lp_solves, cuts)
