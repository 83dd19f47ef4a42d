"""Independent check of detector outputs against a full enumeration of {-1,+1}^K.

The objective f(x) = -sum_i log Phi(r_i h_i^T x / sigma) is evaluated for all
2^K sign vectors with ``scipy.special.log_ndtr``; nothing here uses gobmd, so
a fault in ``gobmd.loss`` cannot vouch for itself. Each check returns a list
of faults, empty when the output passes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr

REL_TOL = 1e-6


def sign_vectors(k: int) -> np.ndarray:
    """All 2^k sign vectors in lexicographic order: coordinate 0 first, +1 before -1."""
    codes = np.arange(2**k)[:, None]
    bits = (codes >> np.arange(k - 1, -1, -1)) & 1
    return 1.0 - 2.0 * bits


def enumerate_objective(H, r, sigma: float) -> np.ndarray:
    """f at every sign vector, indexed as in ``sign_vectors``."""
    rows = np.asarray(r, dtype=float)[:, None] * np.asarray(H, dtype=float) / sigma
    return -log_ndtr(sign_vectors(rows.shape[1]) @ rows.T).sum(axis=1)


def _index(x: np.ndarray) -> int:
    # inverse of sign_vectors: -1 in coordinate j sets bit k-1-j
    idx = 0
    for v in x:
        idx = (idx << 1) | int(v < 0)
    return idx


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _sign_vector_fault(x, k: int, name: str) -> str | None:
    if x is None:
        return f"{name} missing"
    x = np.asarray(x, dtype=float)
    if x.shape != (k,) or not np.all(np.abs(x) == 1.0):
        return f"{name} not in {{-1,+1}}^{k}"
    return None


def bnb_faults(status: str, x_star, objective, F: np.ndarray) -> list[str]:
    """Faults of a certified solve: optimal status, a sign vector, and an
    objective equal both to f(x_star) and to the enumerated minimum."""
    k = int(np.log2(len(F)))
    faults = [] if status == "optimal" else [f"status {status!r}"]
    bad_x = _sign_vector_fault(x_star, k, "x_star")
    if bad_x:
        return faults + [bad_x]
    if objective is None:
        return faults + ["objective missing"]
    f_x = float(F[_index(x_star)])
    if not _close(objective, f_x):
        faults.append(f"objective {objective!r} != f(x_star) {f_x!r}")
    if not _close(objective, float(F.min())):
        faults.append(f"objective {objective!r} != minimum {float(F.min())!r}")
    return faults


def oracle_faults(x_opt, objective, n_evaluated: int, F: np.ndarray, tie_tol: float) -> list[str]:
    """Faults of an exhaustive search: the minimum, 2^K evaluations, and the
    lexicographically smallest vector within ``tie_tol`` of the minimum."""
    k = int(np.log2(len(F)))
    f_min = float(F.min())
    faults = []
    if not _close(objective, f_min):
        faults.append(f"objective {objective!r} != minimum {f_min!r}")
    if n_evaluated != len(F):
        faults.append(f"n_evaluated {n_evaluated} != {len(F)}")
    bad_x = _sign_vector_fault(x_opt, k, "x_opt")
    if bad_x:
        return faults + [bad_x]
    expected = int(np.flatnonzero(F <= f_min + tie_tol)[0])
    if _index(x_opt) != expected:
        faults.append(f"x_opt is vector {_index(x_opt)}, expected {expected}")
    return faults
