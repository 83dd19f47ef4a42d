"""Node-LP solver: minimize sum(w) under tangent rows and box bounds.

Each problem has K box-bounded variables x, N variables w bounded below, and
rows of the form w_i - a^T x >= b. Solved by a bounded-variable dual simplex:
the all-slack basis is dual feasible (costs are 0 on x and slacks, +1 on w at
its lower bound), and both row addition and bound tightening preserve dual
feasibility of a previously optimal basis, so warm starts re-enter the method
directly. No big-M, no slack duplication of the box.

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
optimality certificate.

No dense constraint matrix is stored. The pivot row, the entering column and
the products A v and y A come from the same row structure: the x block is a
product with the m x K coefficients, the w block a sum over each w's rows, and
the slack block a sign flip. A pivot costs O(m (K + m)), and the pivot loop
updates its per-column and per-position state only where the pivot changes
it.

Warm starts reuse work already done. A solve returns a ``BasisToken``: its
final basis and, when it ends optimal, the basis inverse, which is then
exactly the one a refactor of that basis gives. A solve from the token whose
problem has the token's rows, as a branch child's has (only its bounds
differ), starts from that inverse and recomputes only the basic values and
the duals, so the pivot path is the one a refactor would give; with rows
added it refactors. The inverse costs m^2 floats per token, and in the
branch-and-bound one token, so one inverse, is shared by the two children of
a branched node. A search root has no parent to start from; ``crash_start``
gives it a dual-feasible basis with an empty working matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dger as _dger

AT_LOWER, AT_UPPER, BASIC = 0, 1, 2

FEAS_TOL = 1e-9  # primal bound violation that triggers a pivot
PIV_TOL = 1e-9  # minimum usable pivot, scaled by the pivot row's largest entry where that exceeds 1
DUAL_TOL = 1e-9  # reduced-cost certificate tolerance
DEGEN_TOL = 1e-12  # dual step below this counts as degenerate
DEGEN_LIMIT = 40  # consecutive degenerate pivots before Bland's rule engages
REFACTOR_EVERY = 64
COND_LIMIT = 1e12  # working matrices with p |W|max |W^-1|max above this count as singular


class ContradictoryFixing(ValueError):
    """Raised when a variable is fixed to two different values."""


class SingularBasisError(RuntimeError):
    """Internal: basis matrix could not be factorized."""


@dataclass(frozen=True)
class BasisToken:
    """Opaque warm-start state; valid for the same columns and a superset of rows.

    ``basis`` and ``vstat`` give the basic column of each row and the bound
    state of every column. ``binv`` is the read-only m x m basis inverse of an
    optimal solve (m^2 floats; the two children of a branched node share
    one): a solve of a problem with the token's row count starts from it
    instead of refactoring. It takes no part in ``==`` or ``repr``.
    """

    basis: np.ndarray
    vstat: np.ndarray
    n_rows: int
    n_x: int
    n_w: int
    binv: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class LpProblem:
    """Immutable node LP: rows encode w_{row_w[t]} - row_coef[t] . x >= row_off[t]."""

    n_x: int
    n_w: int
    row_w: np.ndarray  # (m,) int, w index per row
    row_coef: np.ndarray  # (m, n_x)
    row_off: np.ndarray  # (m,)
    x_lower: np.ndarray
    x_upper: np.ndarray
    w_lower: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.row_off)


def make_problem(n_x, n_w, rows=(), x_lower=None, x_upper=None, w_lower=None) -> LpProblem:
    """Assemble an LpProblem from (i, a, b) triples or Cut-like objects."""
    row_w, row_coef, row_off = _stack_rows(n_x, rows)
    x_lower = np.full(n_x, -1.0) if x_lower is None else np.asarray(x_lower, dtype=float).copy()
    x_upper = np.full(n_x, 1.0) if x_upper is None else np.asarray(x_upper, dtype=float).copy()
    w_lower = np.zeros(n_w) if w_lower is None else np.asarray(w_lower, dtype=float).copy()
    if np.any(x_lower > x_upper):
        raise ValueError("x_lower must be <= x_upper elementwise")
    if row_w.size and (row_w.min() < 0 or row_w.max() >= n_w):
        raise ValueError("row references a w index out of range")
    for a in (row_w, row_coef, row_off, x_lower, x_upper, w_lower):
        a.setflags(write=False)
    return LpProblem(n_x, n_w, row_w, row_coef, row_off, x_lower, x_upper, w_lower)


def _stack_rows(n_x, rows):
    idx, coef, off = [], [], []
    for r in rows:
        if hasattr(r, "grad"):  # Cut
            i, a, b = r.row, r.grad, r.offset
        else:
            i, a, b = r
        a = np.asarray(a, dtype=float)
        if a.shape != (n_x,):
            raise ValueError(f"row coefficient vector has shape {a.shape}, expected ({n_x},)")
        idx.append(int(i))
        coef.append(a)
        off.append(float(b))
    if not idx:
        return (np.zeros(0, dtype=int), np.zeros((0, n_x)), np.zeros(0))
    return (np.asarray(idx, dtype=int), np.asarray(coef), np.asarray(off))


def add_rows(p: LpProblem, new_rows) -> LpProblem:
    """Tightened problem with extra rows appended; optimum can only increase."""
    ni, nc, no = _stack_rows(p.n_x, new_rows)
    if ni.size == 0:
        return p
    if ni.min() < 0 or ni.max() >= p.n_w:
        raise ValueError("row references a w index out of range")
    row_w = np.concatenate([p.row_w, ni])
    row_coef = np.vstack([p.row_coef, nc]) if p.n_rows else nc
    row_off = np.concatenate([p.row_off, no])
    for a in (row_w, row_coef, row_off):
        a.setflags(write=False)
    return replace(p, row_w=row_w, row_coef=row_coef, row_off=row_off)


def fix_variable(p: LpProblem, j: int, value: float) -> LpProblem:
    """Collapse the box at x_j; child optimum can only increase."""
    if value not in (-1.0, 1.0, -1, 1):
        raise ValueError("fixing value must be -1 or +1")
    value = float(value)
    if not 0 <= j < p.n_x:
        raise IndexError(f"variable index {j} out of range")
    if p.x_lower[j] == p.x_upper[j] and p.x_lower[j] != value:
        raise ContradictoryFixing(f"x[{j}] already fixed to {p.x_lower[j]}, cannot fix to {value}")
    if not (p.x_lower[j] <= value <= p.x_upper[j]):
        raise ContradictoryFixing(f"value {value} outside bounds of x[{j}]")
    xl, xu = p.x_lower.copy(), p.x_upper.copy()
    xl[j] = xu[j] = value
    xl.setflags(write=False)
    xu.setflags(write=False)
    return replace(p, x_lower=xl, x_upper=xu)


@dataclass
class LpSolution:
    status: str  # optimal | infeasible | iteration-limit | numerical-failure
    x: np.ndarray
    w: np.ndarray
    objective: float
    basis: BasisToken | None
    reduced_costs: np.ndarray  # over (x, w, slack) columns
    iterations: int


def solve_lp(p: LpProblem, warm: BasisToken | None = None, max_iter: int | None = None) -> LpSolution:
    """Solve the node LP, optionally warm-starting from a compatible basis token.

    Deterministic: fixed tie-breaking by lowest index, Bland's rule after a
    run of degenerate pivots. The token must come from a problem whose rows
    are the first rows of ``p``, with any bounds: its basis is then dual
    feasible for ``p``. One of other columns or more rows is ignored, and a
    warm start that does not end optimal is retried cold once. A singular
    basis ends a run with status ``numerical-failure``; ``iterations``
    counts the last run.
    """
    m, K, N = p.n_rows, p.n_x, p.n_w
    if max_iter is None:
        max_iter = 50 * (K + N + m)
    core = _DualSimplex(p)
    cold_vstat = np.full(K + N + m, AT_LOWER, dtype=np.int8)
    cold_vstat[K + N :] = BASIC
    starts = ((_warm_start(p, warm), _cached_inverse(p, warm)), ((K + N + np.arange(m), cold_vstat), None))
    for start, inverse in starts:
        if start is None:
            continue
        core.start_inverse = inverse
        try:
            status, iters = core.run(*start, max_iter)
        except SingularBasisError:
            status, iters = "numerical-failure", max_iter
        if status == "optimal":
            break

    x = core.v[:K].copy()
    w = core.v[K : K + N].copy()
    binv = None
    if status == "optimal":
        # the run's last step was a refactor, or it started from one of this basis and never pivoted
        binv = core.Binv
        binv.setflags(write=False)
    token = BasisToken(core.basis.copy(), core.vstat.copy(), m, K, N, binv)
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
    return BasisToken(basis, vstat, m, K, N)


def _cached_inverse(p: LpProblem, warm: BasisToken | None):
    """The token's basis inverse when ``p`` has the token's rows (none added), else None."""
    return None if warm is None or warm.n_rows != p.n_rows else warm.binv


def _warm_start(p: LpProblem, warm: BasisToken | None):
    """(basis, vstat) from a compatible token, the new rows' slacks basic; None without one."""
    m, K, N = p.n_rows, p.n_x, p.n_w
    if warm is None or warm.n_x != K or warm.n_w != N or warm.n_rows > m:
        return None
    n_old = K + N + warm.n_rows
    basis = np.empty(m, dtype=int)
    basis[: warm.n_rows] = warm.basis
    basis[warm.n_rows :] = np.arange(n_old, K + N + m)
    vstat = np.full(K + N + m, BASIC, dtype=np.int8)
    vstat[:n_old] = warm.vstat
    vstat[basis] = BASIC
    # only x columns have a finite upper bound to sit at
    at_upper = np.flatnonzero(vstat == AT_UPPER)
    if np.all(at_upper < K) and len(np.unique(basis)) == m:
        return basis, vstat
    return None


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
        self.l = np.concatenate([p.x_lower, p.w_lower, np.zeros(m)])
        self.u = np.concatenate([p.x_upper, np.full(N + m, np.inf)])
        self.fixed = self.u - self.l <= 0.0  # can never leave their bound
        # rows grouped by their w, for the w columns of A
        self.w_order = np.argsort(p.row_w, kind="stable")
        self.w_start = np.concatenate([[0], np.cumsum(np.bincount(p.row_w, minlength=N))])
        self.start_inverse = None  # B^-1 of the next run's starting basis, if already known

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
            return self.Binv[:, rows].sum(axis=1)
        return -self.Binv[:, q - K - N]

    def run(self, basis, vstat, max_iter):
        self.basis = np.array(basis, dtype=int)
        self.vstat = np.array(vstat, dtype=np.int8)
        self.sgn = np.where(self.vstat == AT_UPPER, -1.0, 1.0)
        self.sgn[(self.vstat == BASIC) | self.fixed] = 0.0
        self.lb, self.ub = self.l[self.basis], self.u[self.basis]
        if self.start_inverse is None:
            self._refactor()
        else:
            # a copy: the rank-1 update writes in place, and a sibling shares the token's array
            self.Binv = self.start_inverse.copy(order="F")
            self._values()
        degen_run = 0
        bland = False
        since_refactor = 0
        for it in range(max_iter):
            vb = self.vb
            below = self.lb - vb
            above = vb - self.ub
            viol = np.maximum(below, above)
            worst = viol.max() if self.m else 0.0
            if worst <= FEAS_TOL:
                self._finalize(since_refactor)
                return "optimal", it
            if bland:
                cand = np.flatnonzero(viol > FEAS_TOL)
                r = cand[np.argmin(self.basis[cand])]
            else:
                r = int(np.argmax(viol))
            leaving_low = below[r] >= above[r]

            alpha = self._yA(self.Binv[r])
            s_alpha = self.sgn * alpha
            # relative to the pivot row's scale: an entry that is noise next to
            # the rest of the row would make a near-singular basis
            tol = PIV_TOL * max(1.0, float(np.abs(alpha).max()))
            idx = np.flatnonzero(s_alpha < -tol if leaving_low else s_alpha > tol)
            if idx.size == 0:
                self._duals()
                self.v[self.basis] = self.vb
                return "infeasible", it
            ratios = np.abs(self.d[idx]) / np.abs(alpha[idx])
            theta = ratios.min()
            q = int(idx[np.argmin(ratios)])  # first minimum = lowest column index
            if theta <= DEGEN_TOL:
                degen_run += 1
                if degen_run >= DEGEN_LIMIT:
                    bland = True
            else:
                degen_run = 0

            col = self._binv_col(q)
            piv = col[r]
            if abs(piv) < PIV_TOL:
                self._refactor()
                since_refactor = 0
                continue
            leave = self.basis[r]
            target = self.lb[r] if leaving_low else self.ub[r]
            step = (vb[r] - target) / piv
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
            self.Binv[r] /= piv
            col[r] = 0.0
            self.Binv = _dger(-1.0, col, self.Binv[r], a=self.Binv, overwrite_a=True)
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
        x_pos = np.flatnonzero(basis < K)
        w_pos = np.flatnonzero((basis >= K) & (basis < K + N))
        s_pos = np.flatnonzero(basis >= K + N)
        x_cols = basis[x_pos]
        w_ids = basis[w_pos] - K
        s_rows = basis[s_pos] - (K + N)
        p = len(x_cols)

        tight = np.ones(m, dtype=bool)
        tight[s_rows] = False
        tight_rows = np.flatnonzero(tight)
        w_with_rows, first = np.unique(self.row_w[tight_rows], return_index=True)
        key_of = np.full(N, -1)
        key_of[w_with_rows] = tight_rows[first]
        keys = key_of[w_ids]
        if np.any(keys < 0):
            raise SingularBasisError("basic w column without a tight row")
        basic_key = np.full(N, -1)
        basic_key[w_ids] = keys
        row_key = basic_key[self.row_w]  # key row of the row's w if that w is basic, else -1
        keyed = np.flatnonzero(row_key >= 0)

        Cx = self.coef[:, x_cols]
        C = -Cx  # row t of the eliminated system, in the basic x only
        C[keyed] += Cx[row_key[keyed]]
        tight[keys] = False
        work_rows = np.flatnonzero(tight)
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
        has_key = work_keys >= 0
        np.subtract.at(YT, work_keys[has_key], Winv.T[has_key])
        F = np.empty((m, p))
        F[x_pos] = np.eye(p)
        F[w_pos] = Cx[keys]
        F[s_pos] = C[s_rows]
        Binv = (YT @ F.T).T  # column-major
        Binv[w_pos, keys] += 1.0
        Binv[s_pos, s_rows] -= 1.0
        s_keys = row_key[s_rows]
        has_key = s_keys >= 0
        Binv[s_pos[has_key], s_keys[has_key]] += 1.0
        if not np.all(np.isfinite(Binv)):
            raise SingularBasisError("non-finite basis inverse")
        self.Binv = Binv
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
            np.max(p.w_lower - sol.w, initial=0.0),
        )
    )
    d = sol.reduced_costs
    vstat = sol.basis.vstat if sol.basis is not None else None
    dual_violation = 0.0
    if vstat is not None:
        lower = np.concatenate([p.x_lower, p.w_lower, np.zeros(m)])
        upper = np.concatenate([p.x_upper, np.full(N + m, np.inf)])
        free = upper - lower > 0
        at_lo = (vstat == AT_LOWER) & free
        at_up = (vstat == AT_UPPER) & free
        is_basic = vstat == BASIC
        dual_violation = float(
            max(
                np.max(-d[at_lo], initial=0.0),
                np.max(d[at_up], initial=0.0),
                np.max(np.abs(d[is_basic]), initial=0.0),
            )
        )
    return {
        "row_violation": row_violation,
        "bound_violation": bound_violation,
        "dual_violation": dual_violation,
        "ok": row_violation <= 1e-8 and bound_violation <= 1e-8 and dual_violation <= DUAL_TOL,
    }
