"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import json
import statistics

import numpy as np
import pytest

from gobmd.baselines import exhaustive_search
from gobmd.cli import main
from gobmd.harness import ExperimentConfig, run_experiment
from gobmd.loss import LossContext, g_eval, g_grad, inv_mills, log_ncdf, make_cut
from gobmd.lp import LpProblem, certificate, solve_lp
from gobmd.model import GenConfig, generate_instance
from gobmd.solver import SolverOptions, initial_cuts, solve_gobmd, solve_incremental
from test_harness import strip_wall_time
from test_lp import add_rows


def _report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for trial in range(200):
        k = 2 + trial % 4
        snr = (0.0, 10.0)[trial % 2]
        inst = generate_instance(GenConfig(8, k, snr, 10_000 + trial))
        rep = solve_gobmd(inst)
        oracle = exhaustive_search(inst)
        assert rep.status == "optimal"
        worst = max(worst, abs(rep.objective - oracle.objective))
    _report(1, worst <= 1e-6, f"200 instances, worst |gobmd - exhaustive| = {worst:.2e} (<= 1e-6)")


def test_criterion_2_desk_scale_ber_curve():
    cfg = ExperimentConfig(
        experiment="ber-sweep",
        n_antennas=18,
        k_users=[4],
        snr_db=[0.0, 5.0, 10.0, 15.0],
        trials=200,
        seed=2024,
        detectors=["gobmd", "exhaustive"],
    )
    res = run_experiment(cfg)
    mismatches = 0
    for snr in cfg.snr_db:
        for t in range(cfg.trials):
            pair = {
                r["detector"]: r for r in res.records if r["snr_db"] == snr and r["trial"] == t
            }
            if pair["gobmd"]["ber"] != pair["exhaustive"]["ber"] and pair["exhaustive"]["ties"] == 1:
                mismatches += 1
    means = [
        row["mean_ber"]
        for snr in cfg.snr_db
        for row in res.summary
        if row["snr_db"] == snr and row["detector"] == "gobmd"
    ]
    monotone = all(a >= b for a, b in zip(means, means[1:]))
    ok = mismatches == 0 and monotone
    _report(
        2,
        ok,
        f"BER(gobmd)=BER(exhaustive) trial-by-trial except ties ({mismatches} unexcused "
        f"mismatches over {4 * cfg.trials} paired trials); mean BER by SNR {means} non-increasing",
    )


def test_criterion_3_cut_ratio():
    ratios = {}
    for k_users in (4, 6):
        vals = []
        for trial in range(50):
            inst = generate_instance(GenConfig(18, k_users, 10.0, 3_000 + trial))
            rep = solve_gobmd(inst)
            vals.append(rep.ratio_s_over_c)
        ratios[2 * k_users] = float(np.mean(vals))
    ok = ratios[8] <= 0.02 and ratios[12] <= 0.01 and ratios[12] < ratios[8]
    _report(
        3,
        ok,
        f"mean |S|/|C| at K=8: {ratios[8]:.4%} (<= 2%), K=12: {ratios[12]:.4%} (<= 1%), decreasing",
    )


def test_criterion_4_runtime_scaling():
    times = {"gobmd": {}, "exhaustive": {}}
    for k_users in (5, 7):
        g, e = [], []
        for trial in range(30):
            inst = generate_instance(GenConfig(18, k_users, 10.0, 4_000 + trial))
            rep = solve_gobmd(inst)
            g.append(rep.wall_time)
            import time as _time

            t0 = _time.perf_counter()
            exhaustive_search(inst)
            e.append(_time.perf_counter() - t0)
        times["gobmd"][k_users] = statistics.median(g)
        times["exhaustive"][k_users] = statistics.median(e)
    ex_ratio = times["exhaustive"][7] / times["exhaustive"][5]
    g_ratio = times["gobmd"][7] / times["gobmd"][5]
    ok = ex_ratio >= 8.0 and g_ratio <= 4.0
    _report(
        4,
        ok,
        f"median time growth K~=5 -> 7: exhaustive x{ex_ratio:.1f} (>= 8), gobmd x{g_ratio:.2f} (<= 4)",
    )


def test_criterion_5_algorithm_agreement():
    worst = 0.0
    for trial in range(50):
        k = 2 + trial % 3
        inst = generate_instance(GenConfig(8, k, 10.0, 5_000 + trial))
        a = solve_gobmd(inst)
        b = solve_incremental(inst)
        assert a.status == b.status == "optimal"
        worst = max(worst, abs(a.objective - b.objective))
    _report(5, worst <= 1e-6, f"50 instances, worst |gobmd - incremental| = {worst:.2e} (<= 1e-6)")


def test_criterion_6_special_function_suite():
    rng = np.random.default_rng(60)
    zs = rng.uniform(-8.0, 8.0, 1000)
    comp_dev = float(np.max(np.abs(np.exp(log_ncdf(zs)) + np.exp(log_ncdf(-zs)) - 1.0)))

    logphi_dev = abs(log_ncdf(-10.0) - (-53.2312))
    mills_dev = abs(inv_mills(-40.0) - 40.0250)

    worst_grad = 0.0
    checked = 0
    h = 1e-5
    while checked < 1000:
        ctx = LossContext(rng.standard_normal((3, 4)), np.ones(3), 1.0)
        x = rng.uniform(-1, 1, 4)
        for i in range(3):
            if abs(float(ctx.rows[i] @ x)) > 6.0:
                continue
            ana = g_grad(ctx, i, x)
            num = np.zeros(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                num[j] = (g_eval(ctx, i, x + e) - g_eval(ctx, i, x - e)) / (2 * h)
            worst_grad = max(worst_grad, float(np.linalg.norm(num - ana) / np.linalg.norm(ana)))
            checked += 1
            if checked >= 1000:
                break
    ok = comp_dev <= 1e-10 and logphi_dev <= 1e-3 and mills_dev <= 1e-3 and worst_grad <= 1e-6
    _report(
        6,
        ok,
        f"complementarity dev {comp_dev:.1e} (<= 1e-10); logPhi(-10) dev {logphi_dev:.1e} (<= 1e-3); "
        f"inv_mills(-40) dev {mills_dev:.1e} (<= 1e-3); grad-vs-central-diff worst {worst_grad:.1e} (<= 1e-6)",
    )


def test_criterion_7_cut_validity():
    rng = np.random.default_rng(70)
    triples = 0
    worst_slack = np.inf
    worst_tangency = 0.0
    while triples < 100_000:
        inst = generate_instance(GenConfig(5, 3, float(rng.uniform(0, 15)), int(rng.integers(1 << 30))))
        ctx = LossContext.from_instance(inst)
        for _ in range(8):
            i = int(rng.integers(0, ctx.n))
            anchor = np.where(rng.random(ctx.k) < 0.5, 1.0, -1.0)
            cut = make_cut(ctx, i, anchor)
            g_anchor = g_eval(ctx, i, anchor)
            worst_tangency = max(
                worst_tangency, abs(cut.grad @ anchor + cut.offset - g_anchor) / abs(g_anchor)
            )
            xs = rng.uniform(-1, 1, (500, ctx.k))
            g_vals = -log_ncdf(xs @ ctx.rows[i])
            tangents = xs @ cut.grad + cut.offset
            worst_slack = min(worst_slack, float(np.min(g_vals - tangents)))
            triples += 500
    ok = worst_slack >= -1e-10 and worst_tangency <= 1e-12
    _report(
        7,
        ok,
        f"{triples} triples: min underestimation slack {worst_slack:.1e} (>= -1e-10), "
        f"worst tangency rel err {worst_tangency:.1e} (<= 1e-12)",
    )


def test_criterion_8_lp_correctness():
    rng = np.random.default_rng(80)
    worst_primal = worst_dual = worst_warm = 0.0
    for case in range(100):
        k_users = int(rng.integers(1, 6))  # K = 2..10
        inst = generate_instance(GenConfig(6, k_users, 10.0, 8_000 + case))
        ctx = LossContext.from_instance(inst)
        pool = initial_cuts(inst, ctx)
        n_extra = int(rng.integers(0, 188))  # total rows stay <= 200
        for _ in range(n_extra):
            anchor = np.where(rng.random(ctx.k) < 0.5, 1.0, -1.0)
            pool.add([int(rng.integers(0, ctx.n))], anchor)
        xl, xu = np.full(ctx.k, -1.0), np.full(ctx.k, 1.0)
        for j in range(ctx.k):
            if rng.random() < 0.2:
                xl[j] = xu[j] = rng.choice([-1.0, 1.0])
        p = LpProblem(ctx.k, ctx.n, *pool.rows, xl, xu)
        base = solve_lp(p)
        assert base.status == "optimal"
        cert = certificate(p, base)
        worst_primal = max(worst_primal, cert["row_violation"], cert["bound_violation"])
        worst_dual = max(worst_dual, cert["dual_violation"])
        extra_anchor = np.where(rng.random(ctx.k) < 0.5, 1.0, -1.0)
        extra = [make_cut(ctx, int(rng.integers(0, ctx.n)), extra_anchor) for _ in range(3)]
        p2 = add_rows(p, [(c.row, c.grad, c.offset) for c in extra])
        warm = solve_lp(p2, warm=base.basis)
        cold = solve_lp(p2)
        worst_warm = max(worst_warm, abs(warm.objective - cold.objective))
    ok = worst_primal <= 1e-8 and worst_dual <= 1e-9 and worst_warm <= 1e-8
    _report(
        8,
        ok,
        f"100 node LPs: primal residual {worst_primal:.1e} (<= 1e-8), reduced-cost violation "
        f"{worst_dual:.1e} (<= 1e-9), warm-vs-cold gap {worst_warm:.1e} (<= 1e-8)",
    )


def test_criterion_9_phase_grid_corners():
    cfg = ExperimentConfig(
        experiment="phase-grid",
        n_antennas=None,
        k_users=[2],
        snr_db=[-5.0, 0.0, 10.0, 20.0],
        trials=100,
        seed=99,
        detectors=["gobmd"],
        ratios=[2, 4, 8, 16],
    )
    res = run_experiment(cfg)
    cell = {
        (row["ratio_n_over_k"], row["snr_db"]): row["mean_ber"]
        for row in res.summary
        if row["detector"] == "gobmd"
    }
    low = cell[(2, -5.0)]
    high = cell[(16, 20.0)]
    ok = high * 10.0 <= low and all(0.0 <= v <= 1.0 for v in cell.values())
    _report(
        9,
        ok,
        f"BER corners: (N/K=2, -5dB) = {low:.4f}, (N/K=16, 20dB) = {high:.5f}; 10x separation holds",
    )


def test_criterion_10_determinism(tmp_path):
    args = [
        "ratio",
        "--n-ant", "9",
        "--k-users", "3,4",
        "--snr", "10",
        "--trials", "5",
        "--seed", "77",
        "--format", "json",
    ]
    docs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        rec = tmp_path / f"{name}_records.json"
        assert main(args + ["--out", str(out), "--records-out", str(rec)]) == 0
        summary = json.loads(out.read_text())
        records = json.loads(rec.read_text())
        docs.append(
            (
                strip_wall_time(summary["rows"]),
                strip_wall_time(records["rows"]),
                summary["metadata"],
            )
        )
    same = docs[0] == docs[1]
    _report(10, same, "re-run with same seed: summary, records, metadata identical (wall_time excluded)")
