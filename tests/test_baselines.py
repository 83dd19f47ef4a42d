import itertools

import numpy as np
import pytest

from gobmd.baselines import exhaustive_search, least_squares, zero_forcing
from gobmd.loss import LossContext, f_obj
from gobmd.model import GenConfig, RealInstance, generate_instance
from test_stress import stressed

# mpmath (dps=40) references, same instances as the loss-function tests
NEG_LOG_NCDF_2 = 0.023012909328963488465
TWO_POINT_OBJ = 0.046025818657926976931


def _instance(H, r, sigma=1.0, x_true=None):
    return RealInstance(H=np.asarray(H, float), r=np.asarray(r, float), sigma=sigma, x_true=x_true)


def test_least_squares_identity():
    r = np.array([1.0, -1.0, 1.0])
    assert np.allclose(least_squares(np.eye(3), r), r, atol=1e-12)


def test_least_squares_mean():
    x = least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_least_squares_orthogonality_residual():
    rng = np.random.default_rng(40)
    for _ in range(25):
        H = rng.standard_normal((12, 5))
        r = rng.standard_normal(12)
        x = least_squares(H, r)
        resid = np.max(np.abs(H.T @ (H @ x - r)))
        assert resid <= 1e-8 * (1.0 + np.max(np.abs(H.T @ r)))


def test_least_squares_matches_svd_route():
    rng = np.random.default_rng(41)
    for _ in range(25):
        H = rng.standard_normal((10, 4))
        r = rng.standard_normal(10)
        ref = np.linalg.lstsq(H, r, rcond=None)[0]
        assert np.allclose(least_squares(H, r), ref, atol=1e-9)


def test_least_squares_rank_deficient_minimum_norm():
    rng = np.random.default_rng(42)
    for _ in range(10):
        base = rng.standard_normal((8, 2))
        H = np.column_stack([base, base[:, 0]])  # duplicated column
        r = rng.standard_normal(8)
        x = least_squares(H, r)
        ref = np.linalg.lstsq(H, r, rcond=None)[0]  # SVD minimum-norm
        assert np.allclose(x, ref, atol=1e-9)


def test_least_squares_rejects_non_finite():
    with pytest.raises(ValueError):
        least_squares(np.array([[np.nan]]), np.array([1.0]))


def test_zero_forcing_identity():
    r = np.array([1.0, -1.0, -1.0])
    inst = _instance(np.eye(3), r)
    assert np.array_equal(zero_forcing(inst), r)


def test_zero_forcing_orthogonal_columns():
    rng = np.random.default_rng(43)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    H = 3.0 * q
    r = np.sign(rng.standard_normal(6))
    inst = _instance(H, r)
    expected = np.where(H.T @ r >= 0, 1.0, -1.0)
    assert np.array_equal(zero_forcing(inst), expected)


def test_zero_forcing_scale_invariant():
    rng = np.random.default_rng(44)
    for _ in range(10):
        H = rng.standard_normal((8, 3))
        r = np.sign(rng.standard_normal(8))
        a = zero_forcing(_instance(H, r))
        b = zero_forcing(_instance(2.5 * H, r))
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) == 1.0)


def test_exhaustive_k1():
    inst = _instance([[2.0]], [1.0])
    res = exhaustive_search(inst)
    assert np.array_equal(res.x_opt, [1.0])
    assert res.objective == pytest.approx(NEG_LOG_NCDF_2, rel=1e-10)
    assert res.n_evaluated == 2


def test_exhaustive_k2():
    inst = _instance(2.0 * np.eye(2), [1.0, -1.0])
    res = exhaustive_search(inst)
    assert np.array_equal(res.x_opt, [1.0, -1.0])
    assert res.objective == pytest.approx(TWO_POINT_OBJ, rel=1e-10)
    assert res.n_evaluated == 4


def test_exhaustive_counts():
    inst = generate_instance(GenConfig(5, 5, 10.0, 4))
    res = exhaustive_search(inst)
    assert res.n_evaluated == 2**10


def test_exhaustive_matches_direct_enumeration():
    rng = np.random.default_rng(45)
    instances = []
    for _ in range(6):
        k = int(rng.integers(2, 7))
        H = rng.standard_normal((6, k))
        r = np.sign(rng.standard_normal(6))
        instances.append(_instance(H, r, sigma=0.8))
    # objectives far below 1, where accumulated margin rounding or an absolute
    # tie tolerance would report or pick the wrong minimum
    instances += [stressed("60dB", 29), stressed("scaled-1e4", 16)]
    for inst in instances:
        ctx = LossContext.from_instance(inst)
        vectors = [np.array(c) for c in itertools.product([1.0, -1.0], repeat=inst.k)]
        f = [f_obj(ctx, x) for x in vectors]
        first = int(np.argmin(f))  # first minimizer in lexicographic order
        res = exhaustive_search(inst)
        assert np.array_equal(res.x_opt, vectors[first])
        assert res.objective == pytest.approx(f[first], abs=1e-9)
        assert res.objective == pytest.approx(f_obj(ctx, res.x_opt), rel=1e-13, abs=0.0)


def test_exhaustive_tie_break_lexicographic():
    # a zero column makes f independent of x_1: exactly two argmin points,
    # and the +1 one is lexicographically smaller
    rng = np.random.default_rng(46)
    H = rng.standard_normal((5, 3))
    H[:, 1] = 0.0
    inst = _instance(H, np.sign(rng.standard_normal(5)))
    res = exhaustive_search(inst)
    assert res.ties >= 2
    assert res.x_opt[1] == 1.0


def test_exhaustive_cap():
    for k in (25, 26):
        with pytest.raises(ValueError, match=f"K <= 24, got K = {k}"):
            exhaustive_search(_instance(np.ones((1, k)), [1.0]))


def test_oracle_never_beaten_by_zf():
    rng = np.random.default_rng(47)
    for trial in range(10):
        inst = generate_instance(GenConfig(6, 3, 5.0, 100 + trial))
        ctx = LossContext.from_instance(inst)
        res = exhaustive_search(inst)
        assert res.objective <= f_obj(ctx, zero_forcing(inst)) + 1e-12
