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

    LAPACK's complete orthogonal factorization (``gelsy``): column-pivoted QR,
    the rank taken as the largest leading block of R whose estimated condition
    number stays below 1 / RANK_TOL, then an orthogonal step on that block, so
    rank-deficient systems get the minimum-norm solution deterministically.
    Non-finite input raises ``ValueError``.
    """
    return scipy.linalg.lstsq(H, r, cond=RANK_TOL, lapack_driver="gelsy")[0]


def zero_forcing(instance: RealInstance) -> np.ndarray:
    """Sign of the pseudo-inverse solution; also seeds the solver's cut pool."""
    return quantize_one_bit(least_squares(instance.H, instance.r))


def exhaustive_search(instance: RealInstance) -> OracleResult:
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
    if k > EXHAUSTIVE_K_CAP:
        raise ValueError(f"exhaustive search requires K <= {EXHAUSTIVE_K_CAP}, got K = {k}")
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
