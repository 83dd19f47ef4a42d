"""Negative log-likelihood of one-bit observations: log Phi, per-row losses, gradient cuts.

The detection objective is f(x) = sum_i g_i(x) with g_i(x) = -log Phi(u_i),
u_i = r_i h_i^T x / sigma. Each g_i is convex, so its tangent at any anchor
point underestimates it everywhere; those tangents are the cuts the solver
generates lazily. The same convexity bounds f over a box from any point in it,
which is how the solver bounds a tree node by its continuous relaxation.

Every likelihood evaluation goes through one vectorized kernel: a single
``scipy.special.log_ndtr`` pass over all margins gives log Phi, and the
inverse Mills ratio lambda = phi/Phi follows from it as exp(log phi - log Phi).
Tangents, objective values and Newton steps each take one pass per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# Below this z the inverse Mills ratio is evaluated from its asymptotic series;
# above it, from exp(log phi - log Phi).
INV_MILLS_ASYMPTOTIC_SWITCH = -30.0

# The scalar operands of the per-element kernels, as 0-d arrays: numpy takes a
# 0-d array operand faster than a Python or numpy scalar, with the same float64
# arithmetic.
_MINUS_HALF = np.array(-0.5)
_LOG_SQRT_2PI = np.array(0.5 * np.log(2.0 * np.pi))
_SWITCH = np.array(INV_MILLS_ASYMPTOTIC_SWITCH)
_ZERO = np.array(0.0)


def log_ncdf(z):
    """log of the standard normal CDF, accurate over the whole real line.

    One ``scipy.special.log_ndtr`` pass for any shape; scalar in, float out.
    """
    out = special.log_ndtr(np.asarray(z, dtype=float))
    return float(out) if out.ndim == 0 else out


def _inv_mills_series(z: np.ndarray) -> np.ndarray:
    # phi(-a)/Phi(-a) = a + 1/a - 2/a^3 + 10/a^5 - ..., truncation error ~74/a^7
    a = -z
    inv2 = 1.0 / (a * a)
    return a + (1.0 / a) * (1.0 + inv2 * (-2.0 + 10.0 * inv2))


def _log_ncdf_and_inv_mills(z: np.ndarray):
    """log Phi(z) and the inverse Mills ratio of an array, from one log_ndtr pass."""
    log_cdf = special.log_ndtr(z)
    lam = np.exp(_MINUS_HALF * z * z - _LOG_SQRT_2PI - log_cdf)
    tail = z < _SWITCH
    if np.count_nonzero(tail):
        lam[tail] = _inv_mills_series(z[tail])
    return log_cdf, lam


def inv_mills(z):
    """Inverse Mills ratio phi(z)/Phi(z); positive, strictly decreasing.

    Evaluated as exp(log phi - log Phi) so the ratio never underflows to 0/0;
    far in the left tail the asymptotic series takes over.
    """
    z = np.asarray(z, dtype=float)
    lam = _log_ncdf_and_inv_mills(np.atleast_1d(z))[1]
    return float(lam[0]) if z.ndim == 0 else lam


@dataclass
class Cut:
    """Tangent inequality w_row >= grad . x + offset anchored at ``point``, as ``make_cut`` returns it."""

    row: int
    point: np.ndarray
    grad: np.ndarray
    offset: float


class LossContext:
    """Precomputed scaled rows r_i h_i / sigma of an instance.

    All evaluators are pure functions of this immutable context, so one
    context can serve any number of concurrent solves.
    """

    def __init__(self, H: np.ndarray, r: np.ndarray, sigma: float):
        H = np.asarray(H, dtype=float)
        r = np.asarray(r, dtype=float)
        if not 0 < sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
        self.rows = (r[:, None] * H) / sigma
        self.rows.setflags(write=False)
        self.n, self.k = self.rows.shape

    @classmethod
    def from_instance(cls, instance) -> "LossContext":
        return cls(instance.H, instance.r, instance.sigma)

    def g_all(self, x: np.ndarray) -> np.ndarray:
        """All per-row losses g_i(x) at once, from the N margins r_i h_i^T x / sigma."""
        return -log_ncdf(self.rows @ x)


def g_eval(ctx: LossContext, i: int, x: np.ndarray) -> float:
    """Per-row loss g_i(x) = -log Phi(r_i h_i^T x / sigma); always positive."""
    if not 0 <= i < ctx.n:
        raise IndexError(f"row index {i} out of range [0, {ctx.n})")
    return -log_ncdf(float(ctx.rows[i] @ x))


def g_grad(ctx: LossContext, i: int, x: np.ndarray) -> np.ndarray:
    """Gradient of g_i at x: -inv_mills(u) * r_i h_i / sigma."""
    if not 0 <= i < ctx.n:
        raise IndexError(f"row index {i} out of range [0, {ctx.n})")
    u = float(ctx.rows[i] @ x)
    return -inv_mills(u) * ctx.rows[i]


def f_obj(ctx: LossContext, x: np.ndarray) -> float:
    """Full negative log-likelihood f(x) = sum_i g_i(x)."""
    return float(np.sum(ctx.g_all(np.asarray(x, dtype=float))))


def make_cuts(ctx: LossContext, rows, point: np.ndarray):
    """Tangents of g_i at ``point`` for each i in ``rows``, from one kernel pass.

    Returns ``(grads, offsets)``: the tangent of ``rows[k]`` is
    w >= grads[k] . x + offsets[k], a valid global underestimator by convexity.
    """
    point = np.asarray(point, dtype=float)
    rows = np.asarray(rows, dtype=int)
    if rows.size and not (0 <= rows.min() and rows.max() < ctx.n):
        raise IndexError(f"row index out of range [0, {ctx.n})")
    R = ctx.rows[rows]
    log_cdf, lam = _log_ncdf_and_inv_mills(R @ point)
    grads = -lam[:, None] * R
    offsets = -log_cdf - grads @ point
    return grads, offsets


def make_cut(ctx: LossContext, i: int, point: np.ndarray) -> Cut:
    """Tangent of g_i at ``point``: valid global underestimator by convexity."""
    point = np.array(point, dtype=float)
    point.setflags(write=False)
    grads, offsets = make_cuts(ctx, [i], point)
    return Cut(int(i), point, grads[0], float(offsets[0]))


# Projected Newton on a box: stop once the certified gap f(x) - bound is below
# NEWTON_GAP_TOL * max(1, |f|), or after NEWTON_MAX_ITER steps. A step is
# accepted on ARMIJO_SLOPE of the first-order decrease, give or take
# F_ROUNDOFF * |f|: near the minimizer a Newton step gains less than the
# rounding error of f, and a rejected step would stall there.
NEWTON_GAP_TOL = 1e-12
NEWTON_MAX_ITER = 30
ARMIJO_SLOPE = 1e-4
F_ROUNDOFF = 1e-13
LINE_SEARCH_HALVINGS = 30
ACTIVE_EPS = 1e-3  # upper limit of the epsilon-active band at the bounds
HESS_RIDGE = 1e-12  # relative to the largest Hessian diagonal entry
_TINY = np.array(np.finfo(float).tiny)


def _newton_terms(rows: np.ndarray, x: np.ndarray):
    """f(x) and the margins u and inverse Mills ratios lam it came from, from one log Phi pass.

    The gradient is -(lam @ rows) and the Hessian weights g_i'' are lam (u + lam);
    the line search forms them only at the points it accepts.
    """
    u = rows @ x
    log_cdf, lam = _log_ncdf_and_inv_mills(u)
    return -float(np.add.reduce(log_cdf)), u, lam


def _box_bound(f, grad, x, lower, upper) -> float:
    # the LP value over the box of the N tangents at x summed into one row
    return f + float(np.add.reduce(np.minimum(grad * (lower - x), grad * (upper - x))))


def _clip(x, lower, upper):
    # np.clip's values, signed zeros and NaN alike, without its Python-level wrapper
    return np.minimum(np.maximum(x, lower), upper)


def box_relaxation(ctx: LossContext, lower: np.ndarray, upper: np.ndarray, x0: np.ndarray, cutoff: float = np.inf):
    """A minimizer of f over the box [lower, upper] and the lower bound it certifies.

    Returns ``(x, bound)`` with ``bound = f(x) + sum_j min(df/dx_j (lower_j - x_j),
    df/dx_j (upper_j - x_j))``. By convexity that is a lower bound on f over
    the whole box for any x in it, so the accuracy of the minimization never
    touches its validity; at the box minimizer it equals the minimum.

    The minimizer is a projected Newton method (Bertsekas, 1982) started at
    ``x0`` clipped to the box: Newton steps on the coordinates off the
    epsilon-active bounds, diagonally scaled gradient steps on the others, an
    Armijo search along the projection arc. ``lower == upper`` fixes a coordinate.

    The bound returned is the running maximum over the iterates, and the
    method returns as soon as it reaches ``cutoff``: a caller that prunes at
    ``bound >= cutoff`` gets the same decision as from the full run, and a run
    that never reaches the cutoff is the full run.
    """
    rows = ctx.rows
    x = _clip(x0, lower, upper)
    movable = lower < upper
    f, u, lam = _newton_terms(rows, x)
    grad = -(lam @ rows)
    bound = _box_bound(f, grad, x, lower, upper)
    for _ in range(NEWTON_MAX_ITER):
        if bound >= cutoff or f - bound <= NEWTON_GAP_TOL * max(1.0, abs(f)):
            break
        curv = lam * (u + lam)
        pg = x - _clip(x - grad, lower, upper)
        eps = np.array(min(ACTIVE_EPS, float(np.maximum.reduce(np.abs(pg)))))
        active = ((x <= lower + eps) & (grad > _ZERO)) | ((x >= upper - eps) & (grad < _ZERO))
        newton = movable > active  # movable and not active
        scaled = movable & active
        d = np.zeros(x.shape)
        if np.count_nonzero(newton):
            R = rows[:, newton]
            hess = (R.T * curv) @ R
            # a ridge keeps the step finite where H is singular (equal columns, N < K)
            diagonal = hess.reshape(-1)[:: len(hess) + 1]
            diagonal += HESS_RIDGE * np.maximum.reduce(diagonal) + _TINY
            d[newton] = -np.linalg.solve(hess, grad[newton])
        if np.count_nonzero(scaled):
            diag = curv @ rows[:, scaled] ** 2
            d[scaled] = -grad[scaled] / np.maximum(diag, _TINY)
        t = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            x_new = _clip(x + (d if t == 1.0 else t * d), lower, upper)
            f_new, u_new, lam_new = _newton_terms(rows, x_new)
            slope = min(0.0, float(grad @ (x_new - x)))
            if f_new <= f + ARMIJO_SLOPE * slope + F_ROUNDOFF * abs(f):
                break
            t *= 0.5
        else:
            break  # no descent left at double precision
        x, f, u, lam = x_new, f_new, u_new, lam_new
        grad = -(lam @ rows)
        bound = max(bound, _box_bound(f, grad, x, lower, upper))
    if not math.isfinite(bound):
        bound = -np.inf
    return x, bound
