"""LP solver checks: hand oracles, scipy cross-validation, warm starts, certificates."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from gobmd import lp
from gobmd.loss import LossContext
from gobmd.lp import AT_LOWER, AT_UPPER, BASIC, BasisToken, LpProblem, certificate, solve_lp
from gobmd.model import GenConfig, generate_instance
from gobmd.solver import initial_cuts, solve_gobmd, solve_incremental
from test_stress import stressed


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
    bounds += [(0.0, None)] * N
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0
    return float(res.fun)


def add_rows(p, rows):
    """``p`` with the (i, a, b) rows w_i - a . x >= b appended."""
    i, a, b = zip(*rows)
    return replace(
        p,
        row_w=np.concatenate([p.row_w, i]),
        row_coef=np.vstack([p.row_coef, a]),
        row_off=np.concatenate([p.row_off, b]),
    )


def problem(n_x, n_w, rows=(), x_lower=None, x_upper=None):
    """The problem with the (i, a, b) rows, in the box [-1, 1]^n_x unless another is given."""
    x_lower = np.full(n_x, -1.0) if x_lower is None else x_lower
    x_upper = np.full(n_x, 1.0) if x_upper is None else x_upper
    p = LpProblem(n_x, n_w, np.zeros(0, dtype=int), np.zeros((0, n_x)), np.zeros(0), x_lower, x_upper)
    return add_rows(p, rows) if rows else p


def fix(p, j, value):
    """``p`` with x_j fixed at ``value``."""
    xl, xu = p.x_lower.copy(), p.x_upper.copy()
    xl[j] = xu[j] = value
    return replace(p, x_lower=xl, x_upper=xu)


def random_problem(rng, K=None, N=None, m=None):
    K = K or rng.integers(1, 8)
    N = N or rng.integers(1, 10)
    m = m if m is not None else rng.integers(0, 25)
    rows = [
        (int(rng.integers(0, N)), rng.standard_normal(K), float(rng.standard_normal() * 0.5))
        for _ in range(m)
    ]
    xl, xu = np.full(K, -1.0), np.full(K, 1.0)
    for j in range(K):
        if rng.uniform() < 0.15:
            xl[j] = xu[j] = rng.choice([-1.0, 1.0])
    return problem(K, N, rows, xl, xu)


def test_problem_checks_and_freezes_its_arrays():
    arrays = dict(
        row_w=np.array([0, 1]),
        row_coef=np.array([[0.5, -1.0], [1.0, 0.25]]),
        row_off=np.array([0.3, 0.7]),
        x_lower=np.full(2, -1.0),
        x_upper=np.full(2, 1.0),
    )
    bad = (
        ("x_lower", np.array([-1.0, 1.5]), "x_lower must be <= x_upper"),
        ("row_w", np.array([0, 2]), "out of range"),
        ("row_w", np.array([-1, 0]), "out of range"),
        ("row_coef", np.ones((2, 3)), "row_coef has shape"),
        ("row_coef", np.ones(2), "row_coef has shape"),
        ("row_off", np.ones(3), "row_off has shape"),
        ("x_upper", np.ones(3), "x_upper has shape"),
    )
    for name, value, message in bad:
        with pytest.raises(ValueError, match=message):
            LpProblem(2, 2, **{**arrays, name: value})
        assert all(a.flags.writeable for a in (value, *arrays.values()))  # a refused problem freezes nothing
    p = LpProblem(2, 2, **arrays)
    for name, a in arrays.items():
        # kept as the very object, frozen in place: the cached inverse is matched by identity
        assert getattr(p, name) is a and not a.flags.writeable, name
    q = LpProblem(2, 2, [0, 1], [[0.5, -1.0], [1.0, 0.25]], [0.3, 0.7], [-1, -1], [1, 1])
    for name in arrays:
        got, want = getattr(q, name), getattr(p, name)
        assert (got.dtype, got.tobytes(), got.flags.writeable) == (want.dtype, want.tobytes(), False), name


def test_single_tangent_example():
    # minimize w subject to w >= 0.5 + 0.1 (x - 1), i.e. w - 0.1 x >= 0.4
    p = problem(1, 1, [(0, np.array([0.1]), 0.4)])
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(-1.0, abs=1e-9)
    assert sol.w[0] == pytest.approx(0.3, abs=1e-9)
    assert sol.objective == pytest.approx(0.3, abs=1e-9)


def test_no_rows_objective_zero():
    p = problem(3, 4)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert np.all(sol.x >= -1.0) and np.all(sol.x <= 1.0)


def test_two_crossing_tangents():
    # w >= x + 0.5 and w >= -x + 0.3 cross at x = -0.1, w = 0.4; breakpoint
    # enumeration over {-1, -0.1, 1} gives 1.3, 0.4, 1.5
    p = problem(1, 1, [(0, np.array([1.0]), 0.5), (0, np.array([-1.0]), 0.3)])
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
                pf = fix(pf, j, 1.0)
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
        p2 = fix(p, j, rng.choice([-1.0, 1.0]))
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
                pf = fix(pf, j, x[j])
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
        p2 = fix(p, j, sol.x[j])
        sol2 = solve_lp(p2)
        assert sol2.objective == pytest.approx(sol.objective, abs=1e-9)


def test_weak_duality():
    rng = np.random.default_rng(29)
    for _ in range(30):
        p = random_problem(rng, m=12)
        sol = solve_lp(p)
        x = rng.uniform(p.x_lower, p.x_upper)
        w = np.zeros(p.n_w)
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


def test_iteration_limit_status(monkeypatch):
    rng = np.random.default_rng(31)
    p = random_problem(rng, K=5, N=6, m=20)
    assert solve_lp(p).iterations > 0
    monkeypatch.setattr(lp, "MAX_ITER_PER_COLUMN", 0)
    sol = solve_lp(p)
    assert sol.status == "numerical-failure"


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


def pool_problem(rng, case):
    """A criterion-8-style node LP: seed pool plus random tangents, some x fixed."""
    inst = generate_instance(GenConfig(6, int(rng.integers(1, 6)), 10.0, 8_000 + case))
    ctx = LossContext.from_instance(inst)
    pool = initial_cuts(inst, ctx)
    for _ in range(int(rng.integers(0, 120))):
        anchor = np.where(rng.random(ctx.k) < 0.5, 1.0, -1.0)
        pool.add([int(rng.integers(0, ctx.n))], anchor)
    xl, xu = np.full(ctx.k, -1.0), np.full(ctx.k, 1.0)
    for j in range(ctx.k):
        if rng.random() < 0.2:
            xl[j] = xu[j] = rng.choice([-1.0, 1.0])
    return LpProblem(ctx.k, ctx.n, *pool.rows, xl, xu)


def dense_A(p):
    """The constraint matrix [-coef | E_w | -I] over the (x, w, slack) columns."""
    m, K, N = p.n_rows, p.n_x, p.n_w
    A = np.zeros((m, K + N + m))
    A[:, :K] = -p.row_coef
    A[np.arange(m), K + p.row_w] = 1.0
    A[np.arange(m), K + N + np.arange(m)] = -1.0
    return A


def watch_cores(monkeypatch, check, at_return=False):
    """Call check(core, dense_A(p)) after every refactor and, if asked, when run returns."""
    init, refactor, run = lp._DualSimplex.__init__, lp._DualSimplex._refactor, lp._DualSimplex.run

    def remembering(core, p):
        init(core, p)
        core.dense = dense_A(p)

    def checked_refactor(core):
        refactor(core)
        check(core, core.dense)

    def checked_run(core, *args):
        out = run(core, *args)
        check(core, core.dense)
        return out

    monkeypatch.setattr(lp._DualSimplex, "__init__", remembering)
    monkeypatch.setattr(lp._DualSimplex, "_refactor", checked_refactor)
    if at_return:
        monkeypatch.setattr(lp._DualSimplex, "run", checked_run)


def test_structured_refactor_inverts_the_basis(monkeypatch):
    kinds = {"all-slack": 0, "basic x": 0, "basic w": 0, "basic w with several tight rows": 0}
    worst = 0.0

    def check(core, A):
        nonlocal worst
        worst = max(worst, float(np.abs(core.Binv @ A[:, core.basis] - np.eye(core.m)).max()))
        K, N = core.K, core.N
        basic_w = core.basis[(core.basis >= K) & (core.basis < K + N)] - K
        tight = np.ones(core.m, dtype=bool)
        tight[core.basis[core.basis >= K + N] - K - N] = False
        tight_per_w = np.bincount(core.row_w[tight], minlength=N)
        kinds["all-slack"] += bool(np.all(core.basis >= K + N))
        kinds["basic x"] += bool(np.any(core.basis < K))
        kinds["basic w"] += basic_w.size > 0
        kinds["basic w with several tight rows"] += bool(np.any(tight_per_w[basic_w] > 1))

    watch_cores(monkeypatch, check)
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


def test_structured_products_match_dense(monkeypatch):
    seen = {"checks": 0, "fixed at a bound": 0, "at upper": 0}

    def close(got, want, scale):
        # relative to the summed magnitudes, so cancellation cannot hide a wrong term
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def check(core, A):
        B, absA = core.Binv, np.abs(A)
        want = B @ A
        scale = np.abs(B) @ absA
        close(np.array([core._yA(B[r]) for r in range(core.m)]), want, scale)
        close(np.column_stack([core._binv_col(q) for q in range(core.n)]), want, scale)
        close(core._Av(core.v), A @ core.v, absA @ np.abs(core.v))
        close(core._yA(core.y), core.y @ A, np.abs(core.y) @ absA)
        sgn = np.where(core.vstat == AT_UPPER, -1.0, 1.0)
        sgn[(core.vstat == BASIC) | core.fixed] = 0.0
        assert np.array_equal(core.sgn, sgn)
        assert np.array_equal(core.lb, core.l[core.basis])
        assert np.array_equal(core.ub, core.u[core.basis])
        assert np.array_equal(core.vb, core.v[core.basis])
        seen["checks"] += 1
        seen["fixed at a bound"] += bool(np.any(core.fixed & (core.vstat != BASIC)))
        seen["at upper"] += bool(np.any(core.vstat == AT_UPPER))

    watch_cores(monkeypatch, check, at_return=True)
    rng = np.random.default_rng(41)
    for case in range(25):
        for p in (random_problem(rng, m=int(rng.integers(1, 25))), pool_problem(rng, case)):
            sol = solve_lp(p)
            extra = [(int(rng.integers(0, p.n_w)), rng.standard_normal(p.n_x), 0.5)]
            assert solve_lp(add_rows(p, extra), warm=sol.basis).status == "optimal"
            free = np.flatnonzero(p.x_lower < p.x_upper)
            if free.size:
                child = fix(p, int(free[0]), rng.choice([-1.0, 1.0]))
                assert solve_lp(child, warm=sol.basis).status == "optimal"
    assert all(count > 0 for count in seen.values()), seen


def test_singular_cold_restart_is_a_status(monkeypatch):
    refactor = lp._DualSimplex._refactor

    def singular_with_basic_x(core):
        if np.any(core.basis < core.K):
            raise lp._RunFailed("test")
        refactor(core)

    dger = lp._dger
    pivots = []  # one rank-1 update of the basis inverse per pivot

    def counting_dger(*args, **kwargs):
        pivots.append(1)
        return dger(*args, **kwargs)

    monkeypatch.setattr(lp._DualSimplex, "_refactor", singular_with_basic_x)
    monkeypatch.setattr(lp, "_dger", counting_dger)
    p = problem(1, 1, [(0, np.array([1.0]), 0.5), (0, np.array([-1.0]), 0.3)])
    sol = solve_lp(p)
    assert sol.status == "numerical-failure"
    # the pivots the run made, not the run's iteration limit
    assert sol.iterations == len(pivots) > 0


def test_run_without_an_eligible_column_fails_after_the_cold_retry(monkeypatch):
    rng = np.random.default_rng(31)
    p = random_problem(rng, K=5, N=6, m=20)
    sol = solve_lp(p)
    a = rng.standard_normal(p.n_x)
    child = add_rows(p, [(0, a, sol.w[0] - a @ sol.x + 1.0)])  # violated by 1 at the parent's optimum
    assert solve_lp(child).iterations > 0 and solve_lp(child, warm=sol.basis).iterations > 0
    run, ends = lp._DualSimplex.run, []

    def recorded(core, *start):
        try:
            ends.append(run(core, *start))
        except lp._RunFailed as e:
            ends.append(str(e))
            raise

    monkeypatch.setattr(lp._DualSimplex, "run", recorded)
    monkeypatch.setattr(lp, "PIV_TOL", np.inf)  # no pivot-row entry is eligible
    failed = solve_lp(child, warm=sol.basis)
    assert ends == ["no eligible column", "no eligible column"]  # the warm run, then its cold retry
    assert failed.status == "numerical-failure"
    assert failed.iterations == 0


def test_warm_basis_with_keyless_w_restarts_cold():
    # w0 basic while the slack of its only row is basic too: column w0 lies in
    # the span of the basic slacks, so the basis is singular
    p = problem(2, 2, [(0, np.array([0.5, -1.0]), 0.3), (1, np.array([1.0, 0.25]), 0.7)])
    K, N, m = 2, 2, 2
    basis = np.array([K + 0, K + N + 0])
    vstat = np.full(K + N + m, AT_LOWER, dtype=np.int8)
    vstat[basis] = BASIC
    with pytest.raises(lp._RunFailed):
        lp._DualSimplex(p).run(basis, vstat, None)
    sol = solve_lp(p, warm=BasisToken(basis, vstat, K, N))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(scipy_optimum(p), abs=1e-9)
    assert certificate(p, sol)["ok"]


def test_tiny_pivot_row_entries_are_not_pivots():
    # The node LP of 40 dB stress instance 1 (8 antennas, 4 users) with x_0
    # fixed at -1 and the 16 ZF seed rows. Row 0's coefficients are at most
    # 3.8e-9, because the inverse Mills ratio has nearly underflowed. Against
    # an absolute pivot tolerance one of them was taken as a pivot, and the
    # working matrix then failed COND_LIMIT on the warm and the cold start.
    inst = generate_instance(GenConfig(8, 4, 40.0, 9_100), 1)
    ctx = LossContext.from_instance(inst)
    row_w, coef, off = initial_cuts(inst, ctx).rows
    assert 0.0 < np.abs(coef[0]).max() < 4e-9
    p = fix(LpProblem(ctx.k, ctx.n, row_w, coef, off, np.full(ctx.k, -1.0), np.full(ctx.k, 1.0)), 0, -1.0)
    sol = solve_lp(p)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(scipy_optimum(p), abs=1e-8)
    assert certificate(p, sol)["ok"]


PINNED_NODE_LPS = json.loads((Path(__file__).parent / "data" / "pinned_node_lps.json").read_text())


@pytest.mark.parametrize(
    "case",
    PINNED_NODE_LPS,
    # node, LP and cut counts of the solve_gobmd search the LPs were captured from
    ids=["18-10.0-7001-0-101-105-125", "24-5.0-7003-1-75-78-142", "32-15.0-7004-0-57-60-133",
         "48-7-10.0-7005-2-105-107-163"],
)
def test_pivot_path_pinned(case):
    # Node LPs recorded from the solve_gobmd search on these instances before
    # it bounded nodes by the convex relaxation; that search reproduced the
    # counts in the ids, which were first recorded with a dense m x m basis
    # inverse and, for the 48-antenna case, a dense constraint matrix (node
    # LPs of 96-259 rows). Each entry is (fixed_pos, fixed_neg, pool rows,
    # warm-start source, iterations, objective): its rows are a prefix of the
    # ZF seed pool followed by the recorded tangents, and its warm start is
    # the basis of an earlier entry, as in the search. Replaying them in order
    # must reproduce every pivot choice: a drift shows as another iteration
    # count. The search itself may change without touching this test.
    n_ant, n_users, snr, seed, trial = case["instance"]
    inst = generate_instance(GenConfig(n_ant, n_users, snr, seed), trial)
    ctx = LossContext.from_instance(inst)
    pool = initial_cuts(inst, ctx)
    for signs, rows in case["cuts"]:
        anchor = np.array([1.0 if s == "+" else -1.0 for s in signs])
        for i in rows:
            pool.add([i], anchor)
    row_w, coef, off = pool.rows
    bases = []
    for fixed_pos, fixed_neg, m, warm, iterations, objective in case["lps"]:
        xl, xu = np.full(ctx.k, -1.0), np.full(ctx.k, 1.0)
        xl[fixed_pos] = 1.0
        xu[fixed_neg] = -1.0
        p = LpProblem(ctx.k, ctx.n, row_w[:m], coef[:m], off[:m], xl, xu)
        sol = solve_lp(p, None if warm is None else bases[warm])
        bases.append(sol.basis)
        assert sol.status == "optimal"
        assert (sol.iterations, sol.objective) == (iterations, pytest.approx(objective, rel=1e-12))


def test_whole_search_counts_pinned():
    # Nodes, LPs and pivots of two whole searches, recorded before the pivot
    # loop was trimmed and the rank-1 update split into blocks. The first
    # search's node LPs have 96 rows, so every pivot updates the inverse in
    # two blocks. The second turns on last bits: computing an entering x
    # column as Binv @ -coef[:, q], algebraically equal to -(Binv @ coef[:, q]),
    # takes it from 63 nodes to 61.
    rep = solve_gobmd(generate_instance(GenConfig(48, 7, 10.0, 4000), 0))
    assert (rep.status, rep.nodes_processed, rep.lp_solves, rep.lp_iterations) == ("optimal", 6, 6, 162)
    rep = solve_incremental(stressed("40dB", 22))
    assert (rep.status, rep.nodes_processed, rep.lp_solves, rep.lp_iterations) == ("optimal", 63, 63, 373)


def test_blocked_rank1_update_is_one_dger_call(monkeypatch):
    # The update goes to dger in column blocks small enough that OpenBLAS
    # runs each on one thread; every entry must come out as one call on the
    # whole matrix gives it, written in place into the F-ordered inverse.
    dger = lp._dger
    blocks = []

    def recording_dger(*args, **kwargs):
        blocks.append((kwargs["a"] if "a" in kwargs else args[5]).shape)
        return dger(*args, **kwargs)

    monkeypatch.setattr(lp, "_dger", recording_dger)
    for m in (1, 2, 36, 90, 91, 96, 128, 200, 341):
        rng = np.random.default_rng(m)
        a = np.asfortranarray(rng.standard_normal((m, m)))
        x, y = rng.standard_normal(m), rng.standard_normal(m)
        want = dger(-1.0, x, y, a=a.copy(order="F"))
        blocks.clear()
        lp._rank1_update(a, x, y)
        assert a.flags.f_contiguous and a.tobytes(order="F") == want.tobytes(order="F"), m
        assert all(rows * cols < lp.GER_MAX_ENTRIES for rows, cols in blocks), m
        assert sum(cols for _, cols in blocks) == m
        assert len(blocks) == (1 if m <= 90 else -(-m // (8191 // m))), m


def recorded_node_lps(monkeypatch):
    """(problem, warm token) of every node LP in a few solve_gobmd and solve_incremental searches."""
    calls = []
    real = lp.solve_lp

    def recording(p, warm=None):
        calls.append((p, warm))
        return real(p, warm)

    monkeypatch.setattr(lp, "solve_lp", recording)
    for trial in range(3):
        inst = generate_instance(GenConfig(10, 5, 10.0, 4000), trial)
        solve_gobmd(inst)
        solve_incremental(inst)
    monkeypatch.undo()
    return calls


def test_cached_inverse_is_exact(monkeypatch):
    # A child of a branched node has its parent's rows and basis, so the
    # parent's inverse is the one a refactor would build: the solve from it
    # must follow the same pivots to the same bytes.
    reused = 0
    for p, warm in recorded_node_lps(monkeypatch):
        if warm is None or warm.row_coef is not p.row_coef or warm.binv is None:
            continue
        assert next(lp._starts(p, warm))[2] is warm.binv  # the warm start carries the token's inverse
        reused += 1
        a = solve_lp(p, warm)
        b = solve_lp(p, replace(warm, binv=None))
        assert a.status == b.status == "optimal"
        assert a.iterations == b.iterations
        for got, want in ((a.x, b.x), (a.w, b.w), (a.reduced_costs, b.reduced_costs)):
            assert got.tobytes() == want.tobytes()
        assert repr(a.objective) == repr(b.objective)
    assert reused >= 20


def test_cached_inverse_is_dropped_when_rows_are_added(monkeypatch):
    refactors = 0
    refactor = lp._DualSimplex._refactor

    def counting(core):
        nonlocal refactors
        refactors += 1
        refactor(core)

    monkeypatch.setattr(lp._DualSimplex, "_refactor", counting)
    rng = np.random.default_rng(42)
    for case in range(20):
        p = pool_problem(rng, case)
        tok = solve_lp(p).basis
        assert tok.binv is not None and not tok.binv.flags.writeable
        extra = [(int(rng.integers(0, p.n_w)), rng.standard_normal(p.n_x), 0.5) for _ in range(3)]
        p2 = add_rows(p, extra)
        assert p2.row_coef is not tok.row_coef and next(lp._starts(p2, tok))[2] is None
        refactors = 0
        sol = solve_lp(p2, tok)
        assert refactors >= 1
        assert sol.status == "optimal" and certificate(p2, sol)["ok"]


def test_equal_rows_in_another_array_refactor(monkeypatch):
    # identity decides reuse, not equality: a copy of the token's rows holds the
    # same values but is another array, so the solve refactors, and that refactor
    # of the token's optimal basis gives the token solve's point again
    refactors = 0
    refactor = lp._DualSimplex._refactor

    def counting(core):
        nonlocal refactors
        refactors += 1
        refactor(core)

    monkeypatch.setattr(lp._DualSimplex, "_refactor", counting)
    rng = np.random.default_rng(45)
    for case in range(20):
        p = pool_problem(rng, case)
        sol = solve_lp(p)
        tok = sol.basis
        copied = replace(p, row_coef=p.row_coef.copy())
        assert copied.row_coef is not tok.row_coef and np.array_equal(copied.row_coef, tok.row_coef)
        for q, want_refactors in ((p, 0), (copied, 1)):
            refactors = 0
            again = solve_lp(q, tok)
            assert refactors == want_refactors
            assert again.status == "optimal" and again.iterations == 0
            assert repr(again.objective) == repr(sol.objective)
            assert again.x.tobytes() == sol.x.tobytes() and again.w.tobytes() == sol.w.tobytes()


def test_token_from_other_rows_never_gives_a_wrong_optimum():
    # The same shape as the token's problem but other coefficients: the
    # token's inverse belongs to other rows, and its basis need not be dual
    # feasible for these. The solve must still reach the cold optimum.
    rng = np.random.default_rng(42)
    fell_back = 0
    for case in range(20):
        p = pool_problem(rng, case)
        tok = solve_lp(p).basis
        shifted = replace(p, row_coef=p.row_coef + 0.25)
        assert shifted.row_coef is not tok.row_coef and next(lp._starts(shifted, tok))[2] is None
        warm, cold = solve_lp(shifted, tok), solve_lp(shifted)
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)
        assert certificate(shifted, warm)["ok"]
        fell_back += warm.x.tobytes() == cold.x.tobytes() and warm.iterations == cold.iterations
    assert fell_back > 0


def test_sibling_children_share_a_token_safely():
    rng = np.random.default_rng(43)
    pivoted = 0
    for case in range(20):
        p = pool_problem(rng, case)
        sol = solve_lp(p)
        tok = sol.basis
        free = np.flatnonzero(p.x_lower < p.x_upper)
        if free.size == 0:
            continue
        j = int(free[np.argmin(np.abs(sol.x[free]))])
        children = [fix(p, j, 1.0), fix(p, j, -1.0)]
        before = tok.binv.tobytes()
        for order in (children, children[::-1]):
            for child in order:
                shared = solve_lp(child, tok)
                fresh = solve_lp(child, replace(tok, binv=tok.binv.copy(order="F")))
                assert shared.iterations == fresh.iterations
                pivoted += shared.iterations
                for got, want in ((shared.x, fresh.x), (shared.w, fresh.w), (shared.reduced_costs, fresh.reduced_costs)):
                    assert got.tobytes() == want.tobytes()
                assert tok.binv.tobytes() == before
    assert pivoted > 0


def test_crash_start_is_dual_feasible_and_solves():
    rng = np.random.default_rng(44)
    problems = []
    for case in range(30):
        # several rows per w, w without rows, and fixed coordinates
        problems.append(random_problem(rng, N=int(rng.integers(1, 5)), m=int(rng.integers(1, 30))))
        problems.append(pool_problem(rng, case))
    seen = {"at upper": 0, "fixed": 0, "several rows per w": 0, "w without rows": 0}
    for p in problems:
        K, N, m = p.n_x, p.n_w, p.n_rows
        tok = lp.crash_start(p)
        assert np.all(tok.basis >= K)  # no basic x: the working matrix is empty
        A = dense_A(p)
        c = np.concatenate([np.zeros(K), np.ones(N), np.zeros(m)])
        y = np.linalg.solve(A[:, tok.basis].T, c[tok.basis])
        d = c - y @ A
        free = np.concatenate([p.x_upper > p.x_lower, np.ones(N + m, dtype=bool)])
        assert np.all(d[(tok.vstat == AT_LOWER) & free] >= -1e-12)
        assert np.all(d[(tok.vstat == AT_UPPER) & free] <= 1e-12)
        assert np.all(np.abs(d[tok.vstat == BASIC]) <= 1e-12)
        seen["at upper"] += bool(np.any(tok.vstat[:K] == AT_UPPER))
        seen["fixed"] += bool(np.any(~free[:K]))
        seen["several rows per w"] += bool(np.any(np.bincount(p.row_w, minlength=N) > 1))
        seen["w without rows"] += bool(np.any(np.bincount(p.row_w, minlength=N) == 0))
        # the dual simplex reaches the optimum from the crash start itself, not by the cold retry
        pivots = lp._DualSimplex(p).run(tok.basis, tok.vstat, None)
        sol = solve_lp(p, tok)
        assert sol.iterations == pivots
        assert sol.objective == pytest.approx(scipy_optimum(p), abs=1e-7)
        assert certificate(p, sol)["ok"]
    assert all(count > 0 for count in seen.values()), seen
