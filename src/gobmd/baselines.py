"""Reference detectors: exhaustive-search global oracle and zero-forcing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .loss import LossContext, f_obj, log_ncdf
from .model import RealInstance, quantize_one_bit

EXHAUSTIVE_K_CAP = 24
BLOCK_CODES = 2**10  # sign vectors per margin product in exhaustive_search
RANK_TOL = 1e-10
TIE_TOL = 1e-9


@dataclass
class OracleResult:
    x_opt: np.ndarray
    objective: float
    n_evaluated: int
    ties: int


def least_squares(H: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of H x ~ r.

    Complete orthogonal decomposition: column-pivoted QR with rank detected at
    RANK_TOL relative to the leading diagonal entry, then an LQ step on the
    rank-revealed block so rank-deficient systems get the minimum-norm solution
    deterministically.
    """
    H = np.asarray(H, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(r))):
        raise ValueError("least_squares requires finite input")
    q, R, piv = scipy.linalg.qr(H, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return np.zeros(H.shape[1])
    rank = int(np.sum(diag > RANK_TOL * diag[0]))
    R1 = R[:rank, :]  # rank x k, full row rank
    qr2, L_t = np.linalg.qr(R1.T)  # R1 = L_t.T @ qr2.T
    rhs = q[:, :rank].T @ r
    z = scipy.linalg.solve_triangular(L_t.T, rhs, lower=True)
    x_piv = qr2 @ z  # minimum-norm in the pivoted ordering
    x = np.empty(H.shape[1])
    x[piv] = x_piv
    return x


def zero_forcing(instance: RealInstance) -> np.ndarray:
    """Sign of the pseudo-inverse solution; also seeds the solver's cut pool."""
    return quantize_one_bit(least_squares(instance.H, instance.r))


def exhaustive_search(instance: RealInstance, k_cap: int = EXHAUSTIVE_K_CAP) -> OracleResult:
    """Global minimum of the detection objective over all 2^K sign vectors.

    The vectors are taken in lexicographic order (coordinate 0 first, +1
    before -1) in blocks of BLOCK_CODES. Each block's margins are one fresh
    (B x K) @ (K x N) product, so no rounding carries from one vector to the
    next. A vector ties when f <= f_min + TIE_TOL * min(1, f_min), f_min the
    global minimum: ``ties`` counts them and ``x_opt`` is the first in that
    order. Besides one block, only the running minimum and the codes within
    the tie threshold of it are kept, so memory is O(B x N) plus 16 bytes per
    near-tie; the 2^K objectives are never held at once.
    """
    k = instance.k
    if k > k_cap:
        raise ValueError(f"exhaustive search requires K <= {k_cap}, got K = {k}")
    ctx = LossContext.from_instance(instance)
    n_codes = 2**k
    shifts = np.arange(k - 1, -1, -1)  # coordinate j is bit k-1-j of the code; set means -1
    f_min = np.inf
    near_codes, near_f = np.empty(0, dtype=np.int64), np.empty(0)
    for start in range(0, n_codes, BLOCK_CODES):
        codes = np.arange(start, min(start + BLOCK_CODES, n_codes))
        signs = 1.0 - 2.0 * ((codes[:, None] >> shifts) & 1)
        f = np.sum(-log_ncdf(signs @ ctx.rows.T), axis=1)
        f_min = min(f_min, float(f.min()))
        # the threshold only falls as f_min does, so a code dropped here never ties
        near_codes, near_f = np.append(near_codes, codes), np.append(near_f, f)
        keep = near_f <= f_min + TIE_TOL * min(1.0, f_min)
        near_codes, near_f = near_codes[keep], near_f[keep]
    x_opt = 1.0 - 2.0 * ((near_codes[0] >> shifts) & 1)
    return OracleResult(
        x_opt=x_opt, objective=f_obj(ctx, x_opt), n_evaluated=n_codes, ties=len(near_codes)
    )
