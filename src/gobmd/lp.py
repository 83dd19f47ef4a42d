"""Node-LP solver: minimize sum(w) under tangent rows and box bounds.

Each problem has K box-bounded variables x, N variables w >= 0, and rows of
the form w_i - a^T x >= b. Solved by a bounded-variable dual simplex: the
all-slack basis is dual feasible (costs are 0 on x and slacks, +1 on w at its
lower bound 0), and both row addition and bound tightening preserve dual
feasibility of a previously optimal basis, so warm starts re-enter the method
directly. Every run checks that its starting basis is dual feasible; one that
is not ends the run, and the solve goes on from the cold start. No big-M, no
slack duplication of the box.

A problem is built only by the ``LpProblem`` constructor, which checks its
shapes, row indices and box and freezes its arrays in place. The module knows
nothing of tangents: the branch-and-bound's cut pool holds them as the
(row_w, row_coef, row_off) arrays, and every node LP between two additions to
the pool shares those arrays.

The basis algebra uses the row structure: each row has exactly one w, with
coefficient +1, and its own slack. A refactor drops the rows whose slack is
basic and eliminates every basic w_i through one key row (its first tight
row), in the manner of generalized upper bounding (Dantzig & Van Slyke, 1967).
What remains is a working matrix of at most K x K in the basic x; only that is
inverted (a numerically singular one counts as singular), and the explicit
basis inverse is assembled from it with one (m x p)(p x m) product. Between
refactors the inverse takes an in-place BLAS rank-1 update per pivot, and the
reduced costs follow the pivot row instead of being recomputed; both are
rebuilt exactly at every refactor, including the last one before the
optimality certificate. The rank-1 update goes to ``dger`` in column blocks of
fewer than 8,192 entries: OpenBLAS runs ``ger`` on one thread below that size
and wakes its thread pool above it, which on these matrices (m of 90 to a few
hundred) costs more than the update itself. Each entry gets the same
arithmetic either way, so the blocks change no bit.

No dense constraint matrix is stored. The pivot row, the entering column and
the products A v and y A come from the same row structure: the x block is a
product with the m x K coefficients, the w block a sum over each w's rows, and
the slack block a sign flip. A pivot costs O(m (K + m)), and the pivot loop
updates its per-column and per-position state only where the pivot changes
it.

Warm starts reuse work already done. A solve returns a ``BasisToken``: its
final basis and, when it ends optimal, the basis inverse, which is then
exactly the one a refactor of that basis gives. A solve from the token whose
problem holds the very ``row_coef`` array the token was solved on, as a
branch child's does (only its bounds differ), starts from that inverse and
recomputes only the basic values and the duals, so the pivot path is the one
a refactor would give; with any other rows it refactors. The inverse costs
m^2 floats per token, and in the branch-and-bound one token, so one inverse,
is shared by the two children of a branched node. A search root has no
parent to start from; ``crash_start`` gives it a dual-feasible basis with an
empty working matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dger as _dger

AT_LOWER, AT_UPPER, BASIC = 0, 1, 2

FEAS_TOL = 1e-9  # primal bound violation that triggers a pivot
PIV_TOL = 1e-9  # minimum usable pivot, scaled by the pivot row's largest entry where that exceeds 1
DUAL_TOL = 1e-9  # reduced-cost certificate tolerance
DEGEN_TOL = 1e-12  # dual step below this counts as degenerate
DEGEN_LIMIT = 40  # consecutive degenerate pivots before Bland's rule engages
REFACTOR_EVERY = 64
MAX_ITER_PER_COLUMN = 50  # a run's pivot limit is this times the column count K + N + m
COND_LIMIT = 1e12  # working matrices with p |W|max |W^-1|max above this count as singular
# OpenBLAS runs ger single-threaded below 2048 * GEMM_MULTITHREAD_THRESHOLD (4 in its
# default build) entries (interface/ger.c); larger updates wake its thread pool, which
# costs more than it saves at node-LP sizes
GER_MAX_ENTRIES = 8192


class SingularBasisError(RuntimeError):
    """Internal: basis matrix could not be factorized."""


@dataclass(frozen=True)
class BasisToken:
    """Opaque warm-start state; valid for the same columns and a superset of rows.

    ``basis`` and ``vstat`` give the basic column of each row and the bound
    state of every column. ``binv`` is the read-only m x m basis inverse of an
    optimal solve (m^2 floats; the two children of a branched node share
    one), and ``row_coef`` the coefficient array it belongs to: a solve of a
    problem whose ``row_coef`` is that same object starts from ``binv``
    instead of refactoring. Neither takes part in ``==`` or ``repr``.
    """

    basis: np.ndarray
    vstat: np.ndarray
    n_x: int
    n_w: int
    binv: np.ndarray | None = field(default=None, compare=False, repr=False)
    row_coef: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LpProblem:
    """Immutable node LP: rows encode w_{row_w[t]} - row_coef[t] . x >= row_off[t], and w >= 0.

    The constructor checks the shapes, that every row names a w in [0, n_w)
    and that x_lower <= x_upper, then makes the five arrays read-only in
    place. An array that already has its
    dtype (int for ``row_w``, float for the rest) stays the same object, so
    problems built from the same pool arrays share them, and a token's cached
    inverse can be recognized by its ``row_coef``.
    """

    n_x: int
    n_w: int
    row_w: np.ndarray  # (m,) int, w index per row
    row_coef: np.ndarray  # (m, n_x)
    row_off: np.ndarray  # (m,)
    x_lower: np.ndarray  # (n_x,)
    x_upper: np.ndarray  # (n_x,)

    def __post_init__(self):
        dtypes = {"row_w": int, "row_coef": float, "row_off": float, "x_lower": float, "x_upper": float}
        arrays = {name: np.asarray(getattr(self, name), dtype=dtype) for name, dtype in dtypes.items()}
        m, K = arrays["row_w"].size, self.n_x
        for (name, a), shape in zip(arrays.items(), ((m,), (m, K), (m,), (K,), (K,))):
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
        if not (arrays["x_lower"] <= arrays["x_upper"]).all():
            raise ValueError("x_lower must be <= x_upper elementwise")
        if m and not (0 <= arrays["row_w"].min() and arrays["row_w"].max() < self.n_w):
            raise ValueError("row references a w index out of range")
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n_rows(self) -> int:
        return len(self.row_off)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | iteration-limit | numerical-failure
    x: np.ndarray
    w: np.ndarray
    objective: float
    basis: BasisToken
    reduced_costs: np.ndarray  # over (x, w, slack) columns
    iterations: int


def solve_lp(p: LpProblem, warm: BasisToken | None = None) -> LpSolution:
    """Solve the node LP, optionally warm-starting from a compatible basis token.

    Deterministic: fixed tie-breaking by lowest index, Bland's rule after a
    run of degenerate pivots. The token should come from a problem whose
    rows are the first rows of ``p``, with any bounds: its basis is then
    dual feasible for ``p``. One of other columns or more rows is ignored,
    and a warm start that is not dual feasible, or does not end optimal, is
    retried cold once. A singular basis ends a run with status
    ``numerical-failure``; ``iterations`` counts the last run.
    """
    m, K, N = p.n_rows, p.n_x, p.n_w
    max_iter = MAX_ITER_PER_COLUMN * (K + N + m)
    core = _DualSimplex(p)
    for start in _starts(p, warm):
        try:
            status, iters = core.run(*start, max_iter)
        except SingularBasisError:
            status, iters = "numerical-failure", core.pivots
        if status == "optimal":
            break

    x = core.v[:K].copy()
    w = core.v[K : K + N].copy()
    binv = None
    if status == "optimal":
        # the run's last step was a refactor, or it started from one of this basis and never pivoted
        binv = core.Binv
        binv.setflags(write=False)
    token = BasisToken(core.basis.copy(), core.vstat.copy(), K, N, binv, p.row_coef)
    return LpSolution(status, x, w, float(w.sum()), token, core.d.copy(), iters)


def crash_start(p: LpProblem) -> BasisToken:
    """A dual-feasible start for ``p`` whose working matrix is empty, so never singular.

    Each w_i that has rows is basic in its first row and every other row's
    slack is basic. The duals are then 1 on those key rows and 0 elsewhere,
    so x_j has reduced cost d_j = sum of the key rows' coefficients of x_j,
    and it sits at its lower bound when d_j >= 0 and at its upper one
    otherwise; the other nonbasic columns (a w without rows, a key row's
    slack) have reduced cost 1 at their lower bound.
    """
    m, K, N = p.n_rows, p.n_x, p.n_w
    w_ids, key_rows = np.unique(p.row_w, return_index=True)
    basis = K + N + np.arange(m)
    basis[key_rows] = K + w_ids
    vstat = np.full(K + N + m, AT_LOWER, dtype=np.int8)
    vstat[basis] = BASIC
    vstat[:K] = np.where(p.row_coef[key_rows].sum(axis=0) < 0, AT_UPPER, AT_LOWER)
    return BasisToken(basis, vstat, K, N)


def _starts(p: LpProblem, warm: BasisToken | None):
    """The (basis, vstat, inverse) starts to try in turn; inverse is that basis's B^-1, or None.

    The warm start, if the token gives one, with the token's inverse exactly
    when ``p`` holds the very row array it was solved on; then the all-slack
    cold start, which is built only when the warm run did not end optimal.
    """
    start = _warm_start(p, warm)
    if start is not None:
        yield *start, warm.binv if warm.row_coef is p.row_coef else None
    m, K, N = p.n_rows, p.n_x, p.n_w
    vstat = np.full(K + N + m, AT_LOWER, dtype=np.int8)
    vstat[K + N :] = BASIC
    yield K + N + np.arange(m), vstat, None


def _warm_start(p: LpProblem, warm: BasisToken | None):
    """(basis, vstat) from a compatible token, the new rows' slacks basic; None without one."""
    m, K, N = p.n_rows, p.n_x, p.n_w
    if warm is None or warm.n_x != K or warm.n_w != N or len(warm.basis) > m:
        return None
    m_old = len(warm.basis)
    n_old = K + N + m_old
    basis = np.empty(m, dtype=int)
    basis[:m_old] = warm.basis
    basis[m_old:] = np.arange(n_old, K + N + m)
    vstat = np.empty(K + N + m, dtype=np.int8)
    vstat[:n_old] = warm.vstat
    vstat[n_old:] = BASIC
    vstat[basis] = BASIC
    # only x columns have a finite upper bound to sit at, and no column is basic in two rows
    sorted_basis = np.sort(basis)
    if (vstat[K:] != AT_UPPER).all() and (sorted_basis[1:] != sorted_basis[:-1]).all():
        return basis, vstat
    return None


def _rank1_update(a, x, y):
    """a -= outer(x, y) in place on the F-ordered ``a``, by dger calls on blocks below GER_MAX_ENTRIES."""
    m, n = a.shape
    width = max(1, (GER_MAX_ENTRIES - 1) // m)
    for j in range(0, n, width):
        # positional: incx, incy, a, overwrite_x, overwrite_y, overwrite_a; keywords cost more per call
        _dger(-1.0, x, y[j : j + width], 1, 1, a[:, j : j + width], 1, 1, True)


class _DualSimplex:
    """Bounded-variable dual simplex on A v = b, l <= v <= u, min c.v, for A = [-coef | E_w | -I].

    Columns are ordered (x, w, slack); row t has -coef[t] on x, +1 on
    w_{row_w[t]} and -1 on its own slack. A is never stored: the products
    y A, A v and B^-1 A_q come from that row structure. The explicit inverse
    ``Binv`` is kept in column-major order so the rank-1 update runs in place.
    The pivot loop keeps the basic bounds and values by basis position and a
    sign per column (+1 at lower, -1 at upper, 0 if basic or fixed), changing
    only the entries a pivot touches.
    """

    def __init__(self, p: LpProblem):
        m, K, N = p.n_rows, p.n_x, p.n_w
        self.m, self.n, self.K, self.N = m, K + N + m, K, N
        self.row_w, self.coef, self.b = p.row_w, p.row_coef, p.row_off
        self.c = np.zeros(self.n)
        self.c[K : K + N] = 1.0
        self.l = np.zeros(self.n)
        self.l[:K] = p.x_lower
        self.u = np.full(self.n, np.inf)
        self.u[:K] = p.x_upper
        self.fixed = self.u - self.l <= 0.0  # can never leave their bound
        # rows grouped by their w, for the w columns of A
        self.w_order = np.argsort(p.row_w, kind="stable")
        self.w_start = np.zeros(N + 1, dtype=int)
        np.add.accumulate(np.bincount(p.row_w, minlength=N), out=self.w_start[1:])
        self.kind_edges = np.array([K, K + N])  # column kinds x, w, slack start at 0, K, K + N

    def _yA(self, y):
        """y @ A over all columns."""
        return np.concatenate([-(y @ self.coef), np.bincount(self.row_w, y, self.N), -y])

    def _Av(self, v):
        """A @ v."""
        K, N = self.K, self.N
        return v[K + self.row_w] - self.coef @ v[:K] - v[K + N :]

    def _binv_col(self, q):
        """B^-1 A[:, q], the entering column."""
        K, N = self.K, self.N
        if q < K:
            return -(self.Binv @ self.coef[:, q])
        if q < K + N:
            rows = self.w_order[self.w_start[q - K] : self.w_start[q - K + 1]]
            if len(rows) == 1:
                return self.Binv[:, rows[0]].copy()  # the sum of one column is that column
            return self.Binv[:, rows].sum(axis=1)
        return -self.Binv[:, q - K - N]

    def run(self, basis, vstat, inverse, max_iter):
        """Dual simplex from (basis, vstat), starting from ``inverse`` as its B^-1 if given, else a refactor."""
        self.pivots = 0  # what a run cut short by SingularBasisError reports as its iterations
        self.basis = np.array(basis, dtype=int)
        self.vstat = np.array(vstat, dtype=np.int8)
        self.sgn = np.where(self.vstat == AT_UPPER, -1.0, 1.0)
        self.sgn[(self.vstat == BASIC) | self.fixed] = 0.0
        self.lb, self.ub = self.l[self.basis], self.u[self.basis]
        if inverse is None:
            self._refactor()
        else:
            # a copy: the rank-1 update writes in place, and a sibling shares the token's array
            self.Binv = inverse.copy(order="F")
            self._values()
        if (self.sgn * self.d < -DUAL_TOL).any():
            # not dual feasible: the method would stop at a point that is not optimal
            return "numerical-failure", 0
        degen_run = 0
        bland = False
        since_refactor = 0
        ratios = np.empty(self.n)
        for it in range(max_iter):
            vb = self.vb
            viol = np.maximum(self.lb - vb, vb - self.ub)
            r = int(viol.argmax()) if self.m else -1
            if r < 0 or viol[r] <= FEAS_TOL:
                self._finalize(since_refactor)
                return "optimal", it
            if bland:
                cand = np.flatnonzero(viol > FEAS_TOL)
                r = cand[np.argmin(self.basis[cand])]
            v_r, lb_r, ub_r = vb.item(r), self.lb.item(r), self.ub.item(r)
            leaving_low = lb_r - v_r >= v_r - ub_r

            alpha = self._yA(self.Binv[r])
            abs_alpha = np.abs(alpha)
            # relative to the pivot row's scale: an entry that is noise next to
            # the rest of the row would make a near-singular basis
            tol = PIV_TOL * max(1.0, abs_alpha.item(abs_alpha.argmax()))
            s_alpha = self.sgn * alpha
            eligible = s_alpha < -tol if leaving_low else s_alpha > tol
            ratios.fill(np.inf)
            np.divide(np.abs(self.d), abs_alpha, out=ratios, where=eligible)
            q = int(ratios.argmin())  # first minimum = lowest column index
            theta = ratios[q]
            if theta == np.inf:  # no eligible column
                self._duals()
                self.v[self.basis] = self.vb
                return "infeasible", it
            if theta <= DEGEN_TOL:
                degen_run += 1
                if degen_run >= DEGEN_LIMIT:
                    bland = True
            else:
                degen_run = 0

            col = self._binv_col(q)
            piv = col.item(r)
            if abs(piv) < PIV_TOL:
                self._refactor()
                since_refactor = 0
                continue
            leave = self.basis[r]
            target = lb_r if leaving_low else ub_r
            step = (v_r - target) / piv
            vb -= col * step
            vb[r] = self.v[q] + step
            self.v[leave] = target
            self.vstat[leave] = AT_LOWER if leaving_low else AT_UPPER
            self.sgn[leave] = 0.0 if self.fixed[leave] else (1.0 if leaving_low else -1.0)
            self.vstat[q] = BASIC
            self.sgn[q] = 0.0
            self.basis[r] = q
            self.lb[r], self.ub[r] = self.l[q], self.u[q]
            # reduced costs follow the pivot row; they are recomputed exactly at every refactor
            self.d -= (self.d[q] / alpha[q]) * alpha
            self.d[q] = 0.0
            # rank-1 update of the basis inverse, in place
            row = self.Binv[r] / piv
            self.Binv[r] = row
            col[r] = 0.0
            _rank1_update(self.Binv, col, row)
            self.pivots += 1
            since_refactor += 1
            if since_refactor >= REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0
        self._finalize(since_refactor)
        return "iteration-limit", max_iter

    def _refactor(self):
        """Rebuild B^-1 from the row structure, inverting only a p x p working matrix.

        Rows whose slack is basic drop out. Each basic w_i takes its first
        tight row as key row k(i) and is eliminated through it:
        w_i = r_k + coef[k] . x. Subtracting the key row from the other tight
        rows of w_i leaves the p = (number of basic x) remaining tight rows as
        a square system W x_B = r_t - r_k in the basic x alone. So B^-1 r is
        x_B = W^-1 G r, then w_B from the key rows and the basic slacks from
        their own rows, and B^-1 = F (W^-1 G) + L with sparse G and L.
        """
        m, K, N = self.m, self.K, self.N
        basis = self.basis
        # basis positions grouped x, w, slack; each group in ascending order
        kind = np.searchsorted(self.kind_edges, basis, side="right")
        order = np.argsort(kind, kind="stable")
        p, n_w, _ = np.bincount(kind, minlength=3)
        x_pos, w_pos, s_pos = order[:p], order[p : p + n_w], order[p + n_w :]
        cols = basis[order]
        x_cols = cols[:p]
        w_ids = cols[p : p + n_w] - K
        s_rows = cols[p + n_w :] - (K + N)

        # 1-D index arrays: a.nonzero()[0] is np.flatnonzero(a) without its ravel
        tight = np.empty(m, dtype=bool)
        tight.fill(True)
        tight[s_rows] = False
        tight_rows = tight.nonzero()[0]
        key_of = np.empty(N, dtype=int)  # first tight row of each w; m where it has none
        key_of.fill(m)
        np.minimum.at(key_of, self.row_w[tight_rows], tight_rows)
        keys = key_of[w_ids]
        if np.count_nonzero(keys == m):
            raise SingularBasisError("basic w column without a tight row")
        basic_key = np.empty(N, dtype=int)
        basic_key.fill(-1)
        basic_key[w_ids] = keys
        row_key = basic_key[self.row_w]  # key row of the row's w if that w is basic, else -1
        keyed = (row_key >= 0).nonzero()[0]

        Cx = self.coef.take(x_cols, axis=1)
        C = -Cx  # row t of the eliminated system, in the basic x only
        C[keyed] += Cx[row_key[keyed]]
        tight[keys] = False
        work_rows = tight.nonzero()[0]
        if len(work_rows) != p:
            raise SingularBasisError("working matrix is not square")
        W = C[work_rows]
        try:
            Winv = np.linalg.inv(W)
        except np.linalg.LinAlgError as e:
            raise SingularBasisError(str(e)) from e
        if p and p * np.abs(W).max() * np.abs(Winv).max() > COND_LIMIT:
            # bounds cond(W); near 1/eps the inverse is finite but wrong
            raise SingularBasisError("working matrix is numerically singular")

        # (W^-1 G)^T, where row t of G is e_t minus e_{key row} for keyed t
        YT = np.zeros((m, p))
        YT[work_rows] = Winv.T
        work_keys = row_key[work_rows]
        has_key = (work_keys >= 0).nonzero()[0]
        if len(has_key):
            np.subtract.at(YT, work_keys[has_key], Winv.T[has_key])
        F = np.empty((m, p))
        F[x_pos] = np.eye(p)
        F[w_pos] = Cx[keys]
        F[s_pos] = C[s_rows]
        BinvT = YT @ F.T
        # the entries of L, through the product, a new row-major array whose
        # reshape is a view: Binv[i, j] is flat[j * m + i]
        flat = BinvT.reshape(-1)
        flat[keys * m + w_pos] += 1.0
        flat[s_rows * m + s_pos] -= 1.0
        s_keys = row_key[s_rows]
        has_key = (s_keys >= 0).nonzero()[0]
        flat[s_keys[has_key] * m + s_pos[has_key]] += 1.0
        if not np.isfinite(flat).all():
            raise SingularBasisError("non-finite basis inverse")
        self.Binv = BinvT.T  # column-major
        self._values()

    def _values(self):
        """Nonbasic values at their bounds, then the basic values and the duals from ``Binv``."""
        v = np.where(self.vstat == AT_UPPER, self.u, self.l)
        v[self.basis] = 0.0
        self.vb = self.Binv @ (self.b - self._Av(v))
        v[self.basis] = self.vb
        self.v = v
        self._duals()

    def _duals(self):
        self.y = self.c[self.basis] @ self.Binv
        self.d = self.c - self._yA(self.y)

    def _finalize(self, pivots_since_refactor):
        if pivots_since_refactor:
            self._refactor()  # clean residuals and reduced costs for the certificate
        self.v[self.basis] = self.vb


def certificate(p: LpProblem, sol: LpSolution) -> dict:
    """Optimality certificate residuals for a solved LP (primal + reduced cost)."""
    m, K, N = p.n_rows, p.n_x, p.n_w
    eq = p.row_off - (sol.w[p.row_w] - p.row_coef @ sol.x) if m else np.zeros(0)
    row_violation = float(eq.max()) if m else 0.0  # positive = row violated
    bound_violation = float(
        max(
            np.max(p.x_lower - sol.x, initial=0.0),
            np.max(sol.x - p.x_upper, initial=0.0),
            np.max(-sol.w, initial=0.0),
        )
    )
    d = sol.reduced_costs
    vstat = sol.basis.vstat
    lower = np.concatenate([p.x_lower, np.zeros(N + m)])
    upper = np.concatenate([p.x_upper, np.full(N + m, np.inf)])
    free = upper - lower > 0
    at_lo = (vstat == AT_LOWER) & free
    at_up = (vstat == AT_UPPER) & free
    dual_violation = float(
        max(
            np.max(-d[at_lo], initial=0.0),
            np.max(d[at_up], initial=0.0),
            np.max(np.abs(d[vstat == BASIC]), initial=0.0),
        )
    )
    return {
        "row_violation": row_violation,
        "bound_violation": bound_violation,
        "dual_violation": dual_violation,
        "ok": row_violation <= 1e-8 and bound_violation <= 1e-8 and dual_violation <= DUAL_TOL,
    }
