"""Special-function checks against independent oracles.

Expected values were frozen from 40-digit mpmath evaluations; the asymptotic
series oracles below are implemented directly from the classical tail
expansions and stay independent of the library code paths.
"""

import numpy as np
import pytest

from gobmd.loss import (
    INV_MILLS_ASYMPTOTIC_SWITCH,
    LossContext,
    f_obj,
    g_eval,
    g_grad,
    inv_mills,
    log_ncdf,
    make_cut,
    make_cuts,
)

# mpmath (dps=40) reference values
LOG_NCDF_M10 = -53.231285150512470578
LOG_NCDF_P10 = -7.6198530241605260704e-24
NEG_LOG_NCDF_2 = 0.023012909328963488465
NEG_LOG_NCDF_M2 = 3.7831843336820319488
INV_MILLS_0 = 0.79788456080286535588
INV_MILLS_M40 = 40.024968847207263723
PHI_10 = 7.6945986267064193463e-23


def asymptotic_log_ncdf(z: float) -> float:
    """Tail-series oracle: Phi(-a) ~ phi(a)/a * (1 - 1/a^2 + 3/a^4 - ...)."""
    a = -z
    inv2 = 1.0 / (a * a)
    series = 1.0 + inv2 * (-1.0 + inv2 * (3.0 + inv2 * (-15.0 + inv2 * (105.0 - 945.0 * inv2))))
    return -0.5 * a * a - 0.5 * np.log(2.0 * np.pi) - np.log(a) + np.log(series)


def asymptotic_inv_mills(z: float) -> float:
    """Three-term Mills-ratio oracle: phi(-a)/Phi(-a) ~ a + 1/a - 2/a^3."""
    a = -z
    return a + 1.0 / a - 2.0 / a**3


def test_log_ncdf_at_zero():
    assert log_ncdf(0.0) == pytest.approx(-np.log(2.0), abs=1e-15)


def test_log_ncdf_frozen_values():
    assert log_ncdf(-10.0) == pytest.approx(LOG_NCDF_M10, abs=1e-3)
    assert log_ncdf(-10.0) == pytest.approx(asymptotic_log_ncdf(-10.0), rel=1e-8)
    assert log_ncdf(10.0) == pytest.approx(LOG_NCDF_P10, rel=1e-6)
    assert log_ncdf(10.0) < 0.0


def test_log_ncdf_deep_tail_oracle():
    for z in (-12.0, -15.0, -20.0, -30.0, -40.0):
        assert log_ncdf(z) == pytest.approx(asymptotic_log_ncdf(z), rel=1e-10)


def test_log_ncdf_ten_digits():
    # the series oracle's own truncation is ~10395/a^12 relative, below 1e-10
    # only for a >= 15; the frozen mpmath constants cover the moderate range
    for z in np.linspace(-40.0, -15.0, 60):
        assert log_ncdf(float(z)) == pytest.approx(asymptotic_log_ncdf(float(z)), rel=1e-10)


def test_log_ncdf_monotone_negative_bounded():
    zs = np.linspace(-40.0, 8.0, 500)
    vals = log_ncdf(zs)
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals <= 0.0)
    assert np.all(np.isfinite(vals))


def test_log_ncdf_no_overflow_far_tail():
    assert np.isfinite(log_ncdf(-400.0))
    assert log_ncdf(-400.0) == pytest.approx(asymptotic_log_ncdf(-400.0), rel=1e-12)


def test_log_ncdf_complementarity():
    zs = np.linspace(-8.0, 8.0, 1000)
    total = np.exp(log_ncdf(zs)) + np.exp(log_ncdf(-zs))
    assert np.max(np.abs(total - 1.0)) <= 1e-10


def test_inv_mills_frozen_values():
    assert inv_mills(0.0) == pytest.approx(INV_MILLS_0, abs=1e-15)
    assert inv_mills(-40.0) == pytest.approx(INV_MILLS_M40, abs=1e-3)
    # the three-term oracle truncates at 10/a^5, i.e. 2.4e-9 relative at a=40
    assert inv_mills(-40.0) == pytest.approx(asymptotic_inv_mills(-40.0), rel=1e-8)
    assert inv_mills(10.0) == pytest.approx(PHI_10, rel=1e-6)


def test_inv_mills_positive_decreasing():
    zs = np.linspace(-50.0, 10.0, 400)
    vals = inv_mills(zs)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_inv_mills_matches_two_term_asymptote():
    # the two-term asymptote itself is off the true ratio by 2/a^4 relative,
    # which crosses 1e-6 near a = 37.6; below that the tight bound applies
    for z in np.linspace(-80.0, -38.0, 40):
        expected = -z + 1.0 / (-z)
        assert inv_mills(float(z)) == pytest.approx(expected, rel=1e-6)
    for z in np.linspace(-38.0, -30.0, 20):
        expected = -z + 1.0 / (-z)
        assert inv_mills(float(z)) == pytest.approx(expected, rel=3e-6)


def test_inv_mills_no_overflow():
    v = inv_mills(-400.0)
    assert np.isfinite(v) and v == pytest.approx(400.0 + 1.0 / 400.0, rel=1e-8)


def test_inv_mills_continuity_at_switch():
    eps = 1e-9
    lo = inv_mills(INV_MILLS_ASYMPTOTIC_SWITCH - eps)
    hi = inv_mills(INV_MILLS_ASYMPTOTIC_SWITCH + eps)
    assert abs(lo - hi) <= 1e-8


def _ctx(rows):
    rows = np.asarray(rows, dtype=float)
    r = np.ones(rows.shape[0])
    return LossContext(rows, r, 1.0)


def test_g_eval_values():
    ctx = _ctx([[2.0, 0.0]])
    assert g_eval(ctx, 0, np.array([0.0, 5.0])) == pytest.approx(np.log(2.0), abs=1e-14)
    assert g_eval(ctx, 0, np.array([1.0, 0.0])) == pytest.approx(NEG_LOG_NCDF_2, rel=1e-12)
    assert g_eval(ctx, 0, np.array([-1.0, 0.0])) == pytest.approx(NEG_LOG_NCDF_M2, rel=1e-12)
    assert g_eval(ctx, 0, np.array([-1.0, 0.0])) > 0.0
    with pytest.raises(IndexError):
        g_eval(ctx, 1, np.zeros(2))


def test_loss_context_refuses_nonpositive_sigma():
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            LossContext(np.eye(2), np.ones(2), sigma)


def test_loss_context_refuses_non_finite_sigma():
    for sigma in (np.inf, np.nan):
        with pytest.raises(ValueError, match=f"sigma must be finite and positive, got {sigma!r}"):
            LossContext(np.eye(2), np.ones(2), sigma)


def test_g_positive_everywhere():
    rng = np.random.default_rng(5)
    ctx = _ctx(rng.standard_normal((6, 3)))
    for _ in range(50):
        x = rng.uniform(-1, 1, 3)
        assert all(g_eval(ctx, i, x) > 0.0 for i in range(6))


def test_g_grad_direction_and_value():
    ctx = _ctx([[1.0, -1.0]])
    g = g_grad(ctx, 0, np.array([0.5, 0.5]))  # u = 0
    assert g == pytest.approx(-INV_MILLS_0 * np.array([1.0, -1.0]), rel=1e-12)
    # gradient always points along -row, positive scale
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.uniform(-1, 1, 2)
        g = g_grad(ctx, 0, x)
        scale = -g / np.array([1.0, -1.0])
        assert scale[0] > 0 and scale[0] == pytest.approx(scale[1], rel=1e-12)
    for i in (1, -1):
        with pytest.raises(IndexError, match="out of range"):
            g_grad(ctx, i, np.zeros(2))


def central_difference_grad(ctx, i, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (g_eval(ctx, i, x + e) - g_eval(ctx, i, x - e)) / (2.0 * h)
    return g


def test_g_grad_finite_difference():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        ctx = _ctx(rng.standard_normal((4, 3)))
        x = rng.uniform(-1, 1, 3)
        for i in range(4):
            u = float(ctx.rows[i] @ x)
            if abs(u) > 6.0:
                continue
            num = central_difference_grad(ctx, i, x)
            ana = g_grad(ctx, i, x)
            assert np.linalg.norm(num - ana) <= 1e-6 * np.linalg.norm(ana)
            checked += 1


def test_g_grad_finite_difference_wide_range():
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 60:
        ctx = _ctx(4.0 * rng.standard_normal((3, 2)))
        x = rng.uniform(-1, 1, 2)
        for i in range(3):
            u = float(ctx.rows[i] @ x)
            if not 6.0 <= abs(u) <= 20.0:
                continue
            num = central_difference_grad(ctx, i, x)
            ana = g_grad(ctx, i, x)
            assert np.linalg.norm(num - ana) <= 1e-4 * np.linalg.norm(ana)
            checked += 1


def test_f_obj_reductions():
    ctx = _ctx([[2.0]])
    assert f_obj(ctx, np.array([1.0])) == pytest.approx(NEG_LOG_NCDF_2, rel=1e-12)
    assert f_obj(ctx, np.array([-1.0])) == pytest.approx(NEG_LOG_NCDF_M2, rel=1e-12)
    # rows orthogonal to x
    ctx = _ctx([[0.0, 1.0], [0.0, -2.0], [0.0, 3.0]])
    assert f_obj(ctx, np.array([1.0, 0.0])) == pytest.approx(3.0 * np.log(2.0), abs=1e-12)


def test_g_convex_along_segments():
    rng = np.random.default_rng(9)
    ctx = _ctx(rng.standard_normal((5, 3)))
    for _ in range(100):
        x1 = rng.uniform(-1, 1, 3)
        x2 = rng.uniform(-1, 1, 3)
        lam = rng.uniform()
        for i in range(5):
            mid = g_eval(ctx, i, lam * x1 + (1 - lam) * x2)
            chord = lam * g_eval(ctx, i, x1) + (1 - lam) * g_eval(ctx, i, x2)
            assert mid <= chord + 1e-10


def test_make_cut_tangency():
    rng = np.random.default_rng(10)
    ctx = _ctx(rng.standard_normal((4, 3)))
    for _ in range(50):
        point = np.sign(rng.standard_normal(3)) + 0.0
        for i in range(4):
            cut = make_cut(ctx, i, point)
            g = g_eval(ctx, i, point)
            assert cut.grad @ point + cut.offset == pytest.approx(g, rel=1e-12)


def test_make_cut_offset_at_orthogonal_point():
    ctx = _ctx([[1.0, -1.0]])
    cut = make_cut(ctx, 0, np.array([1.0, 1.0]))  # row . point = 0
    assert cut.offset == pytest.approx(np.log(2.0), abs=1e-12)


def test_make_cut_underestimates():
    rng = np.random.default_rng(11)
    ctx = _ctx(rng.standard_normal((4, 3)))
    for _ in range(100):
        anchor = rng.uniform(-1, 1, 3)
        x = rng.uniform(-1, 1, 3)
        for i in range(4):
            cut = make_cut(ctx, i, anchor)
            assert g_eval(ctx, i, x) >= cut.grad @ x + cut.offset - 1e-10


def test_make_cuts_match_per_row_cuts_in_both_tails():
    # rows of quarter-integers anchored at a sign vector give exact margins, so
    # the batch and the single rows see the same inputs whatever the summation order
    rng = np.random.default_rng(12)
    point = np.array([1.0, -1.0, -1.0, 1.0])
    targets = np.concatenate([np.arange(-60.0, -30.0, 3.0), np.arange(-30.0, 8.0, 1.75), np.arange(8.25, 40.0, 4.5)])
    parts = np.round(4.0 * targets[:, None] * rng.dirichlet(np.ones(4), targets.size)) / 4.0
    ctx = _ctx(parts * point)
    margins = ctx.rows @ point
    assert margins.min() < -30.0 and margins.max() > 8.0
    rows = rng.permutation(ctx.n)
    grads, offsets = make_cuts(ctx, rows, point)
    assert grads.shape == (ctx.n, 4) and offsets.shape == (ctx.n,)
    for i, cut_grad, cut_offset in zip(rows.tolist(), grads, offsets):
        single = make_cut(ctx, i, point)
        assert single.row == i and not single.point.flags.writeable
        grad = g_grad(ctx, i, point)
        g = g_eval(ctx, i, point)
        for ref_grad, ref_offset in ((single.grad, single.offset), (grad, g - float(grad @ point))):
            assert np.allclose(cut_grad, ref_grad, rtol=1e-14, atol=0.0)
            assert cut_offset == pytest.approx(ref_offset, rel=1e-14, abs=1e-14 * g)
        assert cut_grad @ point + cut_offset == pytest.approx(g, rel=1e-14)


def test_make_cuts_rejects_rows_out_of_range():
    ctx = _ctx([[1.0, 0.0], [0.0, 1.0]])
    grads, offsets = make_cuts(ctx, [], np.ones(2))
    assert grads.shape == (0, 2) and offsets.shape == (0,)
    for rows in ([2], [-1], [0, 2]):
        with pytest.raises(IndexError):
            make_cuts(ctx, rows, np.ones(2))
