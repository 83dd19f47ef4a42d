"""Awkward channels against the exhaustive oracle: high SNR, duplicated and badly scaled columns, N = K.

These push the node LPs through degenerate and badly scaled bases. The
objectives are compared relative to max(1, |f|): below 1 the solver prunes
with its absolute ``PRUNE_TOL``, so near f = 0 it certifies the optimum only
to that absolute tolerance.
"""

import numpy as np
import pytest

from gobmd.baselines import exhaustive_search
from gobmd.model import GenConfig, RealInstance, generate_instance, quantize_one_bit
from gobmd.solver import PRUNE_TOL, solve_gobmd, solve_incremental

TRIALS = 25
SNR_DB = {"30dB": 30.0, "40dB": 40.0, "60dB": 60.0}


def stressed(case: str, trial: int) -> RealInstance:
    """One instance of a stress case at K = 8 (4 users); N = 16 except for N = K."""
    n_ant = 4 if case == "N=K" else 8
    inst = generate_instance(GenConfig(n_ant, 4, SNR_DB.get(case, 10.0), 9_100), trial)
    if case not in ("duplicated", "scaled-1e4", "scaled-1e-4"):
        return inst
    H = inst.H.copy()
    if case == "duplicated":
        H[:, 1] = H[:, 0]
        H[:, 5] = H[:, 4]
    else:
        H[:, ::3] *= 1e4 if case == "scaled-1e4" else 1e-4
    # received signs redrawn from the altered channel, at the same noise level
    noise = inst.sigma * np.random.default_rng([9_200, trial]).standard_normal(inst.n)
    r = quantize_one_bit(H @ inst.x_true + noise)
    return RealInstance(H=H, r=r, sigma=inst.sigma, x_true=inst.x_true)


@pytest.mark.parametrize("case", [*SNR_DB, "duplicated", "scaled-1e4", "scaled-1e-4", "N=K"])
def test_stress_case_matches_oracle(case):
    worst = 0.0
    for trial in range(TRIALS):
        inst = stressed(case, trial)
        rep = solve_gobmd(inst)
        oracle = exhaustive_search(inst)
        assert rep.status == "optimal", (case, trial, rep.status)
        worst = max(worst, abs(rep.objective - oracle.objective) / max(1.0, abs(oracle.objective)))
    assert worst <= 1e-12, (case, worst)


@pytest.mark.parametrize("n_ant, n_users", [(8, 4), (12, 4), (16, 6)])
def test_incremental_at_30db_matches_or_brackets_oracle(n_ant, n_users):
    # The restricted MILPs of solve_incremental start a fresh tree for every
    # outer pass, so their root LPs run on growing pools at high SNR, where
    # tangent rows have coefficients near underflow. A node LP that still
    # fails ends numerical-failure; the statuses then only have to bracket.
    for trial in range(20):
        inst = generate_instance(GenConfig(n_ant, n_users, 30.0, 4000), trial)
        rep = solve_incremental(inst)
        f = exhaustive_search(inst).objective
        tol = 1e-12 * max(1.0, abs(f))
        if rep.status == "optimal":
            assert abs(rep.objective - f) <= tol, (n_ant, n_users, trial)
            continue
        assert rep.lower_bound is not None and rep.lower_bound <= f + PRUNE_TOL, (n_ant, n_users, trial)
        assert rep.objective is None or rep.objective >= f - tol, (n_ant, n_users, trial)
