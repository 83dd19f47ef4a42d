import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from scipy import special
from scipy.optimize import minimize

import gobmd.loss
import gobmd.lp
import gobmd.solver
from gobmd.baselines import exhaustive_search, least_squares, zero_forcing
from gobmd.loss import LossContext, box_relaxation, f_obj, make_cuts
from gobmd.model import GenConfig, RealInstance, generate_instance, quantize_one_bit
from gobmd.solver import (
    Node,
    NodePool,
    SolverOptions,
    initial_cuts,
    select_branch_var,
    solve_gobmd,
    solve_incremental,
)
from test_lp import add_rows
from test_stress import stressed

NEG_LOG_NCDF_2 = 0.023012909328963488465


def _instance(H, r, sigma=1.0):
    return RealInstance(H=np.asarray(H, float), r=np.asarray(r, float), sigma=sigma)


def test_initial_cuts_identity_channel():
    r = np.array([1.0, -1.0, 1.0, 1.0])
    inst = _instance(np.eye(4), r)
    ctx = LossContext.from_instance(inst)
    pool = initial_cuts(inst, ctx)
    assert len(pool) == 4
    x_zf = quantize_one_bit(least_squares(inst.H, inst.r))
    assert np.array_equal(x_zf, r)
    for row, grad, offset in zip(*pool.rows):
        val = grad @ pool.seed + offset
        assert val == pytest.approx(float(ctx.g_all(pool.seed)[row]), rel=1e-12)


def test_initial_pool_ratio():
    inst = generate_instance(GenConfig(18, 4, 10.0, 8))
    pool = initial_cuts(inst, LossContext.from_instance(inst))
    assert len(pool) == 36
    assert pool.capacity == 36 * 2**8
    # the solve adds no cut, so its report reads the seed pool's |S|/|C|
    rep = solve_gobmd(inst)
    assert (rep.cuts_added, rep.pool_size, rep.pool_capacity) == (0, 36, 36 * 2**8)
    assert rep.ratio_s_over_c == pytest.approx(36 / 9216)


def test_pool_keeps_each_row_once():
    inst = generate_instance(GenConfig(8, 3, 10.0, 4000), 4)
    ctx = LossContext.from_instance(inst)
    pool = initial_cuts(inst, ctx)
    rows = pool.rows
    assert not any(a.flags.writeable for a in rows)
    # an empty batch, or the seed rows again at the seed anchor, adds nothing and keeps the same objects
    assert pool.add([], -pool.seed) == 0
    assert pool.add(range(ctx.n), pool.seed.copy()) == 0
    assert all(a is b for a, b in zip(rows, pool.rows))
    anchor = -pool.seed  # not the seed anchor
    assert pool.add([0, 1], anchor) == 2
    grown = pool.rows
    assert all(a is not b for a, b in zip(rows, grown)) and len(grown[0]) == len(rows[0]) + 2
    # a repeated (row, anchor) pair is refused in a later batch, at an equal anchor in a new array
    assert pool.add([1, 6], anchor.copy()) == 1
    assert pool.add([0], pool.seed) == 0
    # a row repeated within one batch is pooled once
    assert pool.add([3, 3, 4, 3], anchor) == 2
    assert len(pool) == ctx.n + 5
    row_w, coef, off = pool.rows
    assert row_w.tolist() == [*range(ctx.n), 0, 1, 6, 3, 4]
    # the rows are the batches' tangents, byte for byte, in pool order; a one-row
    # margin product may round otherwise (row 6's does here, with OpenBLAS), so
    # the pool must take the tangents of the whole batch and then keep the new ones
    batches = [(range(ctx.n), pool.seed, slice(None)), ([0, 1], anchor, [0, 1]), ([1, 6], anchor, [1]),
               ([3, 3, 4, 3], anchor, [0, 2])]
    grads, offsets = [], []
    for batch, point, kept in batches:
        g, c = make_cuts(ctx, batch, point)
        grads.append(g[kept])
        offsets.append(c[kept])
    assert coef.tobytes() == np.concatenate(grads).tobytes()
    assert off.tobytes() == np.concatenate(offsets).tobytes()


def test_lazy_cuts_rebuild_the_node_problem_from_the_pool(monkeypatch):
    pools, calls = [], []
    real_initial, real_solve = gobmd.solver.initial_cuts, gobmd.lp.solve_lp

    def recording_initial(*args):
        pools.append(real_initial(*args))
        return pools[-1]

    def recording_solve(problem, warm=None):
        calls.append((problem, warm, real_solve(problem, warm)))
        return calls[-1][2]

    monkeypatch.setattr(gobmd.solver, "initial_cuts", recording_initial)
    monkeypatch.setattr(gobmd.lp, "solve_lp", recording_solve)
    rebuilt = 0
    for snr, trial in ((10.0, 4), (10.0, 5), (30.0, 2)):
        calls.clear()
        assert solve_gobmd(generate_instance(GenConfig(8, 3, snr, 4000), trial)).cuts_added > 0
        # the pool only grows, so a row count names one pool state, and its LPs share its arrays
        arrays = {}
        for problem, *_ in calls:
            assert arrays.setdefault(problem.n_rows, problem.row_coef) is problem.row_coef
        # a re-solve after a lazy cut: the old problem with the new cuts appended
        for (old, _, old_sol), (new, warm, _) in zip(calls, calls[1:]):
            if warm is not old_sol.basis or new.n_rows == old.n_rows:
                continue
            want = add_rows(old, list(zip(*(a[old.n_rows : new.n_rows] for a in pools[-1].rows))))
            for name in ("row_w", "row_coef", "row_off", "x_lower", "x_upper"):
                got, ref = getattr(new, name), getattr(want, name)
                assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), name
            rebuilt += 1
    assert rebuilt >= 3


def test_select_branch_var():
    def at_lp_point(x):  # the restricted MILP's rule: free where |x_j| != 1
        x = np.array(x)
        return select_branch_var(x, np.abs(x) != 1.0)

    assert at_lp_point([1.0, 0.2, -1.0]) == 1
    assert at_lp_point([0.0, 0.0]) == 0
    assert at_lp_point([1.0, 1 - 1e-9, -(1 - 1e-8)]) == 2
    with pytest.raises(ValueError):
        at_lp_point([1.0, -1.0])
    # the full search's rule: least |x_j| among the coordinates its box leaves free
    point = np.array([0.05, -0.3, 1.0, 0.4])
    assert select_branch_var(point, [True, True, True, True]) == 0
    assert select_branch_var(point, [False, True, True, True]) == 1
    assert select_branch_var(point, [False, False, True, True]) == 3
    assert select_branch_var(point, [False, False, True, False]) == 2
    with pytest.raises(ValueError):
        select_branch_var(point, [False] * 4)


def test_node_pool_pop_order():
    pool = NodePool()
    assert len(pool) == 0
    with pytest.raises(IndexError):
        pool.pop()
    box = (np.full(2, -1.0), np.full(2, 1.0))
    a = Node(*box, 3.0, None, 0)
    b = Node(*box, 1.5, None, 1)
    shallow = Node(*box, 2.2, None, 2)
    deep_first = Node(*box, 2.2, None, 4)
    deep_second = Node(np.array([1.0, -1.0]), np.array([1.0, 1.0]), 2.2, None, 4)
    for node in (a, shallow, deep_first, b, deep_second):
        pool.push(node)
    assert len(pool) == 5
    # minimal bound first; on a bound tie the deeper node, then the earlier push
    order = [pool.pop() for _ in range(5)]
    assert order == [b, deep_first, deep_second, shallow, a]
    assert len(pool) == 0


def test_gobmd_k1():
    rep = solve_gobmd(_instance([[2.0]], [1.0]))
    assert rep.status == "optimal"
    assert np.array_equal(rep.x_star, [1.0])
    assert rep.objective == pytest.approx(NEG_LOG_NCDF_2, rel=1e-9)
    assert rep.lp_solves >= rep.nodes_processed


def test_gobmd_matches_oracle():
    for trial in range(30):
        k = 2 + trial % 4
        snr = [0.0, 10.0][trial % 2]
        inst = generate_instance(GenConfig(8, k, snr, 500 + trial))
        rep = solve_gobmd(inst)
        oracle = exhaustive_search(inst)
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(oracle.objective, abs=1e-6)


def test_incremental_matches_gobmd():
    for trial in range(15):
        inst = generate_instance(GenConfig(8, 2 + trial % 3, 10.0, 700 + trial))
        a = solve_gobmd(inst)
        b = solve_incremental(inst)
        assert b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, abs=1e-6)
        assert b.bound_prunes == 0  # f bounds nothing in the restricted MILP
        assert b.incumbent_history == b.bound_history == []  # the restricted MILPs' are not reported


def test_incremental_lower_bounds_monotone():
    inst = generate_instance(GenConfig(8, 4, 5.0, 77))
    rep = solve_incremental(inst)
    lbs = rep.outer_lower_bounds
    assert len(lbs) >= 1
    assert all(a <= b + 1e-9 for a, b in zip(lbs, lbs[1:]))
    assert lbs[-1] <= rep.objective + 1e-6


def test_incremental_single_iteration_when_pool_suffices():
    # one observation, one user: the ZF-seeded tangent already supports the
    # optimum, so the first restricted MILP certifies immediately
    rep = solve_incremental(_instance([[2.0]], [1.0]))
    assert rep.status == "optimal"
    assert len(rep.outer_lower_bounds) == 1


def test_objective_equals_f_at_x_star():
    inst = generate_instance(GenConfig(8, 3, 10.0, 11))
    rep = solve_gobmd(inst)
    ctx = LossContext.from_instance(inst)
    assert rep.objective == pytest.approx(f_obj(ctx, rep.x_star), abs=1e-9)


def test_relaxation_steers_the_search(monkeypatch):
    # each node's relaxation (box, minimizer x_hat, bound, cutoff) in order, and
    # each child pushed, next to the relaxation of the node it was branched from
    relaxed, branched = [], []
    relax, push = gobmd.solver.box_relaxation, gobmd.solver.NodePool.push

    def recording_relax(ctx, lower, upper, x0, cutoff=np.inf):
        x, bound = relax(ctx, lower, upper, x0, cutoff)
        relaxed.append((lower.copy(), upper.copy(), x.copy(), bound, cutoff))
        return x, bound

    def recording_push(pool, node):
        if node.depth > 0:
            branched.append((relaxed[-1], node))
        push(pool, node)

    monkeypatch.setattr(gobmd.solver, "box_relaxation", recording_relax)
    monkeypatch.setattr(gobmd.solver.NodePool, "push", recording_push)
    n_unpruned = n_branches = n_fixed = 0
    for snr in (0.0, 10.0):
        for trial in range(6):
            inst = generate_instance(GenConfig(10, 5, snr, 4000), trial)
            ctx = LossContext.from_instance(inst)
            relaxed.clear()
            branched.clear()
            rep = solve_gobmd(inst)
            assert rep.status == "optimal"
            # the incumbent after a node whose relaxation did not prune it is no
            # worse than sign(x_hat) with the node's fixed signs: the next node's
            # cutoff, or the final objective, shows it
            uppers = [cutoff + gobmd.solver.PRUNE_TOL for *_, cutoff in relaxed[1:]] + [rep.objective]
            for (lower, upper, x, bound, cutoff), after in zip(relaxed, uppers):
                if bound >= cutoff:
                    continue
                n_unpruned += 1
                n_fixed += int(np.sum(lower == upper))
                rounded = np.where(lower == upper, lower, np.where(x >= 0.0, 1.0, -1.0))
                assert after <= f_obj(ctx, rounded)
            # every branch is on the free coordinate of least |x_hat_j|
            for (lower, upper, x, *_), child in branched:
                c_lower, c_upper = child.xl, child.xu
                (j,) = np.flatnonzero((lower < upper) & (c_lower == c_upper))
                free = lower < upper
                assert j == np.argmin(np.where(free, np.abs(x), np.inf)), (snr, trial, j, x)
                n_branches += 1
    assert n_unpruned >= 50 and n_fixed > 0 and n_branches >= 50, (n_unpruned, n_fixed, n_branches)


def test_gobmd_matches_oracle_k16_n32_5db():
    # 8 users, 16 antennas: K = 16, N = 32 at 5 dB, trials 0..7
    for trial in range(8):
        inst = generate_instance(GenConfig(16, 8, 5.0, 4000), trial)
        rep = solve_gobmd(inst)
        oracle = exhaustive_search(inst)
        assert rep.status == "optimal", trial
        assert rep.objective == pytest.approx(oracle.objective, rel=1e-12), trial


def test_lp_cut_tree_certifies_without_the_relaxation(monkeypatch):
    # With a relaxation that bounds nothing, the node LPs and their lazy tangents
    # alone must certify the optimum; this is the paper's LP-cut search. Case
    # (2.1), where an integral LP optimum that violates no tangent closes its
    # node, shows as an offer of the point the node LP just returned.
    events = []
    real_solve, real_offer = gobmd.lp.solve_lp, gobmd.solver._TreeSearch.offer

    def recording_solve(problem, warm=None):
        events.append(("lp", real_solve(problem, warm)))
        return events[-1][1]

    def recording_offer(search, x, w):
        events.append(("offer", x))
        real_offer(search, x, w)

    monkeypatch.setattr(gobmd.solver, "box_relaxation", lambda ctx, lower, upper, x0, cutoff: (np.clip(x0, lower, upper), -np.inf))
    monkeypatch.setattr(gobmd.lp, "solve_lp", recording_solve)
    monkeypatch.setattr(gobmd.solver._TreeSearch, "offer", recording_offer)
    closed = cuts = 0
    for t in range(24):
        inst = generate_instance(GenConfig(8, 2 + t % 4, (0.0, 10.0, 30.0)[t % 3], 4000), t)
        events.clear()
        rep = solve_gobmd(inst)
        assert rep.status == "optimal" and rep.bound_prunes == 0, t
        assert rep.objective == exhaustive_search(inst).objective, t
        closed += sum(
            a == "lp" and b == "offer" and np.array_equal(sol.x, x) for (a, sol), (b, x) in zip(events, events[1:])
        )
        cuts += rep.cuts_added
    assert closed > 0 and cuts > 0, (closed, cuts)


def test_integral_lp_point_closes_its_node_only_on_its_bound(monkeypatch):
    # Case (2.1) offers an integral LP optimum that violates no tangent by more
    # than CUT_TOL. Its LP value can lie up to N * CUT_TOL below f there, so the
    # node may close only when that value reaches the new cutoff, or when no sign
    # is free; otherwise it must be branched. Same instances as the test above.
    events = []
    real_solve, real_offer, real_branch = gobmd.lp.solve_lp, gobmd.solver._TreeSearch.offer, gobmd.solver._TreeSearch._branch

    def recording_relaxation(ctx, lower, upper, x0, cutoff):
        events.append(("relax",))
        return np.clip(x0, lower, upper), -np.inf

    def recording_solve(problem, warm=None):
        events.append(("lp", problem, real_solve(problem, warm)))
        return events[-1][2]

    def recording_offer(search, x, w):
        real_offer(search, x, w)
        events.append(("offer", x, search.upper))

    def recording_branch(search, *args):
        events.append(("branch",))
        real_branch(search, *args)

    monkeypatch.setattr(gobmd.solver, "box_relaxation", recording_relaxation)
    monkeypatch.setattr(gobmd.lp, "solve_lp", recording_solve)
    monkeypatch.setattr(gobmd.solver._TreeSearch, "offer", recording_offer)
    monkeypatch.setattr(gobmd.solver._TreeSearch, "_branch", recording_branch)
    closures = branched = 0
    for t in range(24):
        inst = generate_instance(GenConfig(8, 2 + t % 4, (0.0, 10.0, 30.0)[t % 3], 4000), t)
        events.clear()
        rep = solve_gobmd(inst)
        assert rep.status == "optimal" and rep.objective == exhaustive_search(inst).objective, t
        # an offer right after an LP is case (2.1): the relaxation's offers follow a "relax"
        for i in range(len(events) - 1):
            if events[i][0] != "lp" or events[i + 1][0] != "offer":
                continue
            (_, problem, sol), (_, x, upper) = events[i : i + 2]
            assert np.array_equal(sol.x, x), t
            if events[i + 2 : i + 3] == [("branch",)]:
                branched += 1
                continue
            closures += 1
            single_point = np.array_equal(problem.x_lower, problem.x_upper)
            assert single_point or sol.objective >= upper - gobmd.solver.PRUNE_TOL, (t, upper - sol.objective)
    assert closures > 0 and branched > 0, (closures, branched)


def test_incumbent_history_non_increasing():
    inst = generate_instance(GenConfig(10, 4, 0.0, 21))
    rep = solve_gobmd(inst)
    objs = [v for _, v in rep.incumbent_history]
    assert objs, "at least one incumbent must be recorded"
    assert rep.incumbent_history[0] == (0, f_obj(LossContext.from_instance(inst), zero_forcing(inst)))
    assert all(a > b for a, b in zip(objs, objs[1:]))
    assert objs[-1] == rep.objective


def test_bound_history_best_bound_monotone():
    inst = generate_instance(GenConfig(10, 4, 10.0, 22))
    rep = solve_gobmd(inst)
    bounds = rep.bound_history
    assert all(a <= b + 1e-9 for a, b in zip(bounds, bounds[1:]))
    assert all(b <= rep.objective + 1e-6 for b in bounds)


def test_determinism():
    inst = generate_instance(GenConfig(8, 4, 10.0, 31))
    a = solve_gobmd(inst).to_dict()
    b = solve_gobmd(inst).to_dict()
    a.pop("wall_time")
    b.pop("wall_time")
    assert a == b


def test_node_limit_downgrades_status():
    inst = generate_instance(GenConfig(10, 5, 0.0, 41))
    rep = solve_gobmd(inst, SolverOptions(node_limit=1))
    assert rep.status == "node-limit"
    full = solve_gobmd(inst)
    assert full.status == "optimal"
    if rep.objective is not None:
        assert rep.objective >= full.objective - 1e-9
    assert full.lower_bound == full.objective and full.gap == 0.0


def _assert_brackets(rep, oracle, prune_tol=gobmd.solver.PRUNE_TOL):
    """lower_bound <= optimum <= objective; pruning is exact only to PRUNE_TOL."""
    assert rep.lower_bound is not None
    assert rep.lower_bound <= oracle.objective + prune_tol
    if rep.objective is not None:
        assert oracle.objective <= rep.objective + 1e-12 * max(1.0, oracle.objective)
        assert rep.gap == rep.objective - rep.lower_bound >= 0.0


@pytest.mark.parametrize("solve", [solve_gobmd, solve_incremental])
def test_node_limited_solves_bracket_the_optimum(solve):
    limited = 0
    for trial in range(6):
        inst = generate_instance(GenConfig(18, 4, 10.0, 4000), trial)
        oracle = exhaustive_search(inst)
        for node_limit in (1, 3, 10, 30):
            rep = solve(inst, SolverOptions(node_limit=node_limit))
            # for solve_incremental, the limit and the count span all its passes
            assert rep.nodes_processed <= node_limit
            if rep.status == "node-limit":
                limited += 1
                assert rep.nodes_processed == node_limit
                _assert_brackets(rep, oracle)
                doc = rep.to_dict()
                assert (doc["lower_bound"], doc["gap"]) == (rep.lower_bound, rep.gap)
    assert limited >= 10


def test_time_limit_downgrades_status():
    inst = generate_instance(GenConfig(12, 5, 0.0, 43))
    rep = solve_gobmd(inst, SolverOptions(time_limit=1e-9))
    assert rep.status == "time-limit"


def test_node_lp_failure_is_a_status(monkeypatch):
    real = gobmd.lp.solve_lp

    def failing(problem, warm=None):
        return dataclasses.replace(real(problem, warm), status="iteration-limit")

    monkeypatch.setattr(gobmd.lp, "solve_lp", failing)
    inst = generate_instance(GenConfig(8, 3, 10.0, 61))
    oracle = exhaustive_search(inst)
    rep = solve_gobmd(inst)
    assert rep.status == "numerical-failure"
    assert rep.nodes_processed == 1 and rep.lp_solves == 1
    _assert_brackets(rep, oracle)  # the root's relaxation bound, against the ZF incumbent
    rep = solve_incremental(inst)
    assert rep.status == "numerical-failure"
    assert rep.nodes_processed == 1 and rep.lp_solves == 1
    assert rep.objective is None and rep.lower_bound is None and rep.gap is None  # nothing bounds the root


@pytest.mark.parametrize("status", ["infeasible", "iteration-limit", "numerical-failure"])
def test_failed_warm_node_lp_is_retried_cold(monkeypatch, status):
    # every warm run inside solve_lp fails; solve_lp retries it cold, once
    warm_start, run = gobmd.lp._warm_start, gobmd.lp._DualSimplex.run
    warm_bases, warm_runs = [], []

    def tracked_warm_start(p, warm):
        start = warm_start(p, warm)
        if start is not None:
            warm_bases.append(start[0])
        return start

    def warm_fails(core, basis, vstat, inverse, max_iter):
        warm_runs.append(bool(warm_bases) and basis is warm_bases[-1])
        result = run(core, basis, vstat, inverse, max_iter)
        if not warm_runs[-1]:
            return result
        if status == "numerical-failure":
            raise gobmd.lp.SingularBasisError("test")
        return status, result[1]

    inst = generate_instance(GenConfig(8, 3, 10.0, 61))
    ref = solve_gobmd(inst)
    monkeypatch.setattr(gobmd.lp, "_warm_start", tracked_warm_start)
    monkeypatch.setattr(gobmd.lp._DualSimplex, "run", warm_fails)
    rep = solve_gobmd(inst)
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(ref.objective, rel=1e-12)
    # each failed warm run is followed by its cold retry, and that retry is not another LP
    assert True in warm_runs
    assert all(not nxt for cur, nxt in zip(warm_runs, warm_runs[1:]) if cur)
    assert rep.lp_solves == warm_runs.count(False)


def test_report_json_schema():
    inst = generate_instance(GenConfig(6, 2, 10.0, 51))
    rep = solve_gobmd(inst)
    doc = json.loads(rep.to_json())
    for key in (
        "method",
        "status",
        "x_star",
        "objective",
        "nodes_processed",
        "lp_solves",
        "cuts_added",
        "pool_size",
        "pool_capacity",
        "ratio_s_over_c",
        "wall_time",
        "options",
        "lower_bound",
        "gap",
    ):
        assert key in doc
    assert doc["status"] == "optimal"
    assert doc["lower_bound"] == doc["objective"] and doc["gap"] == 0.0
    assert doc["options"]["node_limit"] == 1_000_000
    assert doc["bound_history"][0] is None  # root bound is -inf


@pytest.mark.parametrize("solve", [solve_gobmd, solve_incremental])
def test_lp_iterations_sum_the_node_lp_pivots(monkeypatch, solve):
    real = gobmd.lp.solve_lp
    iterations = []

    def counting(problem, warm=None):
        sol = real(problem, warm)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(gobmd.lp, "solve_lp", counting)
    rep = solve(generate_instance(GenConfig(12, 6, 10.0, 4000), 0))
    assert len(iterations) == rep.lp_solves > 1
    assert rep.lp_iterations == sum(iterations) > 0
    assert rep.to_dict()["lp_iterations"] == rep.lp_iterations


def test_options_validation():
    for removed in ("node_selection", "branch_rule", "cut_mode", "pool_scope", "eps_int", "eps_cut", "eps_prune"):
        with pytest.raises(TypeError, match="unexpected keyword"):
            SolverOptions(**{removed: "best-bound"})
    for bad in (0, -1, "5", 5.0, True, None, np.int64(5)):
        with pytest.raises(ValueError, match="node_limit"):
            SolverOptions(node_limit=bad)
    for bad in ("2", 0, 0.0, -1.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match="time_limit"):
            SolverOptions(time_limit=bad)
    rep = solve_gobmd(generate_instance(GenConfig(4, 2, 10.0, 1)), SolverOptions(node_limit=3, time_limit=2))
    assert rep.options == rep.to_dict()["options"] == {"node_limit": 3, "time_limit": 2}


def _random_box(rng, k):
    """[-1, 1]^k with each coordinate fixed to a random sign with probability 0.3."""
    lower, upper = np.full(k, -1.0), np.full(k, 1.0)
    for j in np.flatnonzero(rng.random(k) < 0.3):
        lower[j] = upper[j] = rng.choice([-1.0, 1.0])
    return lower, upper


def _vertex_minimum(ctx, lower, upper):
    free = np.flatnonzero(lower < upper)
    vertices = np.tile(lower, (2 ** free.size, 1))
    vertices[:, free] = list(itertools.product([-1.0, 1.0], repeat=free.size))
    return float(np.min(np.sum(-special.log_ndtr(vertices @ ctx.rows.T), axis=1)))


def test_relaxation_bound_is_valid_at_inexact_points(monkeypatch):
    rng = np.random.default_rng(90)
    checked = 0
    for case in range(60):
        k_users = int(rng.integers(1, 6))  # K = 2..10
        inst = generate_instance(GenConfig(int(rng.integers(k_users, 10)), k_users, float(rng.uniform(-5, 30)), case))
        ctx = LossContext.from_instance(inst)
        lower, upper = _random_box(rng, ctx.k)
        best = _vertex_minimum(ctx, lower, upper)
        # bounds taken at random points and after 0, 1 and 2 Newton steps
        for max_iter in (0, 1, 2):
            monkeypatch.setattr(gobmd.loss, "NEWTON_MAX_ITER", max_iter)
            for x0 in (rng.uniform(lower, upper), rng.uniform(-3.0, 3.0, ctx.k)):
                x, bound = box_relaxation(ctx, lower, upper, x0)
                assert np.all((lower <= x) & (x <= upper))
                assert bound <= best + 1e-12 * max(1.0, best)
                checked += 1
    assert checked == 360


def test_relaxation_bound_is_tight_at_the_newton_minimizer():
    rng = np.random.default_rng(91)
    for case in range(30):
        k_users = int(rng.integers(1, 8))
        inst = generate_instance(GenConfig(int(rng.integers(k_users, 24)), k_users, float(rng.uniform(-5, 20)), 100 + case))
        ctx = LossContext.from_instance(inst)
        lower, upper = _random_box(rng, ctx.k)

        def f_and_grad(x):
            u = ctx.rows @ x
            log_cdf = special.log_ndtr(u)
            mills = np.exp(-0.5 * u * u - 0.5 * np.log(2 * np.pi) - log_cdf)
            return -float(log_cdf.sum()), -(mills @ ctx.rows)

        ref = minimize(f_and_grad, np.zeros(ctx.k), jac=True, method="L-BFGS-B",
                       bounds=list(zip(lower, upper)), options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
        x, bound = box_relaxation(ctx, lower, upper, np.zeros(ctx.k))
        assert bound <= ref.fun + 1e-12 * max(1.0, ref.fun)  # valid, up to rounding
        assert bound == pytest.approx(ref.fun, rel=1e-8)
        assert f_obj(ctx, x) == pytest.approx(ref.fun, rel=1e-8)


@pytest.mark.parametrize("case", ["60dB", "scaled-1e4"])
def test_relaxation_bound_finite_on_stress_instances(case):
    rng = np.random.default_rng(92)
    for trial in range(25):
        ctx = LossContext.from_instance(stressed(case, trial))
        for lower, upper in [(np.full(ctx.k, -1.0), np.full(ctx.k, 1.0)), _random_box(rng, ctx.k)]:
            x, bound = box_relaxation(ctx, lower, upper, np.zeros(ctx.k))
            assert np.isfinite(bound) and np.isfinite(f_obj(ctx, x))
            best = _vertex_minimum(ctx, lower, upper)
            assert bound <= best + 1e-12 * max(1.0, best)


def test_relaxation_cutoff_crosses_exactly_when_the_full_run_does(monkeypatch):
    calls = []
    newton_terms = gobmd.loss._newton_terms
    monkeypatch.setattr(gobmd.loss, "_newton_terms", lambda *a: calls.append(1) or newton_terms(*a))
    rng = np.random.default_rng(93)
    saved = 0
    for case in range(60):
        k_users = int(rng.integers(2, 8))
        inst = generate_instance(GenConfig(int(rng.integers(k_users, 24)), k_users, float(rng.uniform(-5, 30)), 200 + case))
        ctx = LossContext.from_instance(inst)
        lower, upper = _random_box(rng, ctx.k)
        x0 = rng.uniform(lower, upper)
        calls.clear()
        x_full, full = box_relaxation(ctx, lower, upper, x0)
        n_full = len(calls)
        start = box_relaxation(ctx, lower, upper, x0, cutoff=-np.inf)[1]  # the bound at x0
        for cutoff in (start, 0.5 * (start + full), full, full + 1e-9, np.nextafter(full, -np.inf)):
            calls.clear()
            x, bound = box_relaxation(ctx, lower, upper, x0, cutoff)
            assert (bound >= cutoff) == (full >= cutoff)
            assert np.all((lower <= x) & (x <= upper))
            if full < cutoff:
                assert bound == full and np.array_equal(x, x_full)
            saved += n_full - len(calls)
    assert saved > 0


def test_relaxation_cutoff_leaves_the_search_unchanged(monkeypatch):
    insts = [generate_instance(GenConfig(12, 5, 10.0, 4000), trial=j) for j in range(4)]
    with_cutoff = [solve_gobmd(inst) for inst in insts]
    box_relaxation = gobmd.solver.box_relaxation
    monkeypatch.setattr(gobmd.solver, "box_relaxation", lambda ctx, lower, upper, x0, cutoff: box_relaxation(ctx, lower, upper, x0))
    for inst, rep in zip(insts, with_cutoff):
        full = solve_gobmd(inst)
        assert rep.bound_prunes > 0
        assert np.array_equal(rep.x_star, full.x_star) and rep.objective == full.objective
        for name in ("nodes_processed", "lp_solves", "bound_prunes", "cuts_added", "lower_bound", "bound_history"):
            assert getattr(rep, name) == getattr(full, name), name


def test_relaxation_without_descent_returns_the_clipped_start(monkeypatch):
    rng = np.random.default_rng(94)
    runs = []
    for case in range(10):
        ctx = LossContext.from_instance(generate_instance(GenConfig(12, 5, 10.0, 4000), trial=case))
        lower, upper = _random_box(rng, ctx.k)
        x0 = rng.uniform(-2.0, 2.0, ctx.k)
        x_start, start = box_relaxation(ctx, lower, upper, x0, cutoff=-np.inf)  # stops at the start
        assert box_relaxation(ctx, lower, upper, x0)[1] > start  # so the Newton loop is entered from it
        runs.append((ctx, lower, upper, x0, x_start, start))
    # with no halving allowed, every line search is exhausted before its first trial
    monkeypatch.setattr(gobmd.loss, "LINE_SEARCH_HALVINGS", 0)
    calls = []
    newton_terms = gobmd.loss._newton_terms
    monkeypatch.setattr(gobmd.loss, "_newton_terms", lambda *a: calls.append(1) or newton_terms(*a))
    for ctx, lower, upper, x0, x_start, start in runs:
        calls.clear()
        x, bound = box_relaxation(ctx, lower, upper, x0)
        assert len(calls) == 1  # f at the start only: no trial point was evaluated
        assert np.array_equal(x, np.clip(x0, lower, upper)) and np.array_equal(x, x_start)
        assert bound == start


def test_relaxation_bound_is_minus_inf_where_f_overflows():
    # margins of -5e199 at the start: log Phi is -inf there, so f and its bound are not finite
    ctx = LossContext(np.array([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200]]), np.array([-1.0, -1.0, 1.0]), 1.0)
    lower, upper = np.full(2, -1.0), np.full(2, 1.0)
    for x0 in (np.array([0.5, 0.5]), np.array([3.0, 0.25])):
        with np.errstate(over="ignore", invalid="ignore"):
            x, bound = box_relaxation(ctx, lower, upper, x0)
        assert np.all((lower <= x) & (x <= upper))
        assert bound == -np.inf
