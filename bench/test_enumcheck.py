"""Tests of the benchmark's independent check.

    python3 -m pytest bench
"""

import itertools
import math

import numpy as np
import pytest

from enumcheck import bnb_faults, enumerate_objective, oracle_faults, sign_vectors

TIE_TOL = 1e-9


def small_instance(n=6, k=3, seed=0):
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, k))
    r = np.where(rng.standard_normal(n) >= 0, 1.0, -1.0)
    return H, r, 0.7


def loop_objective(H, r, sigma, x):
    total = 0.0
    for i in range(len(r)):
        u = r[i] * sum(H[i][j] * x[j] for j in range(len(x))) / sigma
        total -= math.log(0.5 * math.erfc(-u / math.sqrt(2.0)))
    return total


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumeration_matches_plain_loop(k):
    H, r, sigma = small_instance(n=5, k=k, seed=k)
    F = enumerate_objective(H, r, sigma)
    vectors = list(itertools.product((1.0, -1.0), repeat=k))  # +1 before -1, coordinate 0 first
    assert sign_vectors(k).tolist() == [list(v) for v in vectors]
    expected = [loop_objective(H, r, sigma, v) for v in vectors]
    np.testing.assert_allclose(F, expected, rtol=1e-12)


def optimum(F):
    return sign_vectors(int(np.log2(len(F))))[int(np.argmin(F))], float(F.min())


def test_bnb_check_accepts_the_optimum():
    F = enumerate_objective(*small_instance())
    x, f = optimum(F)
    assert bnb_faults("optimal", x, f, F) == []


def test_bnb_check_flags_perturbed_objective():
    F = enumerate_objective(*small_instance())
    x, f = optimum(F)
    faults = bnb_faults("optimal", x, f * (1 + 1e-5), F)
    assert any("f(x_star)" in s for s in faults) and any("minimum" in s for s in faults)


def test_bnb_check_flags_suboptimal_vector():
    F = enumerate_objective(*small_instance())
    worst = int(np.argmax(F))
    faults = bnb_faults("optimal", sign_vectors(3)[worst], float(F[worst]), F)
    assert faults == [f"objective {float(F[worst])!r} != minimum {float(F.min())!r}"]


@pytest.mark.parametrize("status", ["node-limit", "time-limit", "numerical-failure"])
def test_bnb_check_flags_non_optimal_status(status):
    F = enumerate_objective(*small_instance())
    x, f = optimum(F)
    assert bnb_faults(status, x, f, F) == [f"status {status!r}"]


def test_bnb_check_flags_non_sign_vector():
    F = enumerate_objective(*small_instance())
    x, f = optimum(F)
    assert bnb_faults("optimal", 0.5 * x, f, F) == ["x_star not in {-1,+1}^3"]
    assert bnb_faults("optimal", None, None, F) == ["x_star missing"]


def test_oracle_check_accepts_and_flags():
    F = enumerate_objective(*small_instance())
    x, f = optimum(F)
    assert oracle_faults(x, f, 8, F, TIE_TOL) == []
    assert oracle_faults(x, f, 7, F, TIE_TOL) == ["n_evaluated 7 != 8"]
    assert len(oracle_faults(x, f * 1.01, 8, F, TIE_TOL)) == 1


def test_oracle_check_wants_lexicographically_smallest_tie():
    # H = 0 makes every vector tie; vector 0 is all +1
    F = enumerate_objective(np.zeros((4, 3)), np.ones(4), 1.0)
    assert oracle_faults(np.ones(3), float(F[0]), 8, F, TIE_TOL) == []
    assert oracle_faults(-np.ones(3), float(F[7]), 8, F, TIE_TOL) == ["x_opt is vector 7, expected 0"]
