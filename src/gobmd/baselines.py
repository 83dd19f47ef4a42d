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
STAGE_ENDS = (4, 12)  # exhaustive_search bounds each vector after its 4, then its 12 heaviest rows


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

    The vectors are taken in blocks of BLOCK_CODES, lexicographic within a
    block (coordinate 0 first, +1 before -1), the zero-forcing vector's block
    first. Each block's margins are one fresh (B x K) @ (K x N) product, so no
    rounding carries from one vector to the next. A vector ties when
    f <= f_min + TIE_TOL * min(1, f_min), f_min the global minimum: ``ties``
    counts them and ``x_opt`` is the first in lexicographic order. Besides one
    block, only the running minimum and the codes within the tie threshold of
    it are kept, so memory is O(B x N) plus 16 bytes per near-tie; the 2^K
    objectives are never held at once.

    Every g_i is non-negative, so a sum over some rows bounds f from below.
    Each vector's losses are summed over the rows in decreasing |row|_1, and
    after each count of rows in STAGE_ENDS the vector is dropped once that sum
    exceeds the tie threshold of f_ref times 1 + 4 N eps, which covers the
    rounding of two summation orders. f_ref, the zero-forcing vector's f in
    its own block and the running minimum after it, is never below f_min, so
    a dropped vector is neither the minimum nor a tie. ``n_evaluated`` counts
    all 2^K vectors, each bounded this way; those that pass are evaluated in
    full from their own margins, the same sum as without the bound.
    """
    k = instance.k
    if k > EXHAUSTIVE_K_CAP:
        raise ValueError(f"exhaustive search requires K <= {EXHAUSTIVE_K_CAP}, got K = {k}")
    ctx = LossContext.from_instance(instance)
    n_codes = 2**k
    shifts = np.arange(k - 1, -1, -1)  # coordinate j is bit k-1-j of the code; set means -1
    order = np.argsort(-np.abs(ctx.rows).sum(axis=1), kind="stable")
    stages = [order[a:b] for a, b in zip((0, *STAGE_ENDS), STAGE_ENDS)]
    slack = 1.0 + 4 * ctx.n * np.finfo(float).eps
    zf_code = int((zero_forcing(instance) < 0) @ (1 << shifts))
    first = zf_code - zf_code % BLOCK_CODES
    f_min = np.inf
    near_codes, near_f = np.empty(0, dtype=np.int64), np.empty(0)
    for start in [first, *(s for s in range(0, n_codes, BLOCK_CODES) if s != first)]:
        codes = np.arange(start, min(start + BLOCK_CODES, n_codes))
        margins = (1.0 - 2.0 * ((codes[:, None] >> shifts) & 1)) @ ctx.rows.T
        f_ref = float(np.sum(-log_ncdf(margins[zf_code - start]))) if start == first else f_min
        bound = (f_ref + TIE_TOL * min(1.0, f_ref)) * slack
        partial = 0.0
        for rows in stages:
            partial = partial + np.sum(-log_ncdf(margins[:, rows]), axis=1)
            keep = partial <= bound
            codes, margins, partial = codes[keep], margins[keep], partial[keep]
        f = np.sum(-log_ncdf(margins), axis=1)
        f_min = min(f_min, float(f.min(initial=np.inf)))
        # the threshold only falls as f_min does, so a code dropped here never ties
        near_codes, near_f = np.append(near_codes, codes), np.append(near_f, f)
        keep = near_f <= f_min + TIE_TOL * min(1.0, f_min)
        near_codes, near_f = near_codes[keep], near_f[keep]
    x_opt = 1.0 - 2.0 * ((near_codes.min() >> shifts) & 1)
    return OracleResult(x_opt=x_opt, objective=f_obj(ctx, x_opt), n_evaluated=n_codes, ties=len(near_codes))
