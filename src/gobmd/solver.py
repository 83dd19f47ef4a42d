"""Global detection solvers: branch-and-bound with embedded cut generation, and
the outer incremental loop that alternates exact restricted MILP solves with
cut separation. Both certify a global minimizer of the one-bit ML objective.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import lp as lpmod
from .baselines import least_squares
# make_cut stays importable from here: bench/layertrace.py wraps gobmd.solver.make_cut
from .loss import Cut, LossContext, box_relaxation, make_cut, make_cuts  # noqa: F401
from .model import RealInstance, quantize_one_bit

# objective gap accepted by the incremental loop's optimality certificate
INCREMENTAL_GAP_TOL = 1e-7


@dataclass(frozen=True)
class SolverOptions:
    eps_int: float = 1e-6
    eps_cut: float = 1e-6
    eps_prune: float = 1e-9
    node_limit: int = 1_000_000
    time_limit: float | None = None

    def __post_init__(self):
        for name in ("eps_int", "eps_cut", "eps_prune"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.node_limit < 1:
            raise ValueError("node_limit must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


class CutPool:
    """The active tangent set S, deduplicated over (row, anchor) pairs.

    Rows are stored densely in append-only buffers so node LPs can reference
    them as read-only slices without copying.
    """

    def __init__(self, n_rows: int, n_x: int):
        self.n_rows = n_rows
        self.n_x = n_x
        self.cuts: list[Cut] = []
        self.index: dict[tuple[int, bytes], int] = {}
        cap = 64
        self._w = np.empty(cap, dtype=int)
        self._coef = np.empty((cap, n_x))
        self._off = np.empty(cap)

    def __len__(self) -> int:
        return len(self.cuts)

    @property
    def capacity(self) -> int:
        """|C| = N * 2^K, the full tangent family size."""
        return self.n_rows * (2**self.n_x)

    def ratio(self) -> float:
        return len(self.cuts) / self.capacity

    def key(self, i: int, point: np.ndarray) -> tuple[int, bytes]:
        return (i, np.ascontiguousarray(point, dtype=float).tobytes())

    def add(self, cut: Cut) -> int | None:
        """Append a cut unless its (row, anchor) pair is already present."""
        k = self.key(cut.row, cut.point)
        if k in self.index:
            return None
        cid = len(self.cuts)
        if cid == len(self._off):
            self._grow()
        self._w[cid] = cut.row
        self._coef[cid] = cut.grad
        self._off[cid] = cut.offset
        self.cuts.append(cut)
        self.index[k] = cid
        return cid

    def _grow(self):
        cap = 2 * len(self._off)
        for name in ("_w", "_coef", "_off"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, name, new)

    def lp_rows(self):
        """(row_w, coef, off) read-only views of the pooled rows for the LP."""
        n = len(self.cuts)
        views = []
        for a in (self._w[:n], self._coef[:n], self._off[:n]):
            v = a.view()
            v.setflags(write=False)
            views.append(v)
        return tuple(views)


@dataclass
class Node:
    """One branch-and-bound subproblem: fixed signs, inherited bound, warm state.

    ``x_relax`` is the parent's relaxation minimizer, where this node's
    projected Newton starts.
    """

    fixed_pos: tuple[int, ...]
    fixed_neg: tuple[int, ...]
    bound: float
    warm: lpmod.BasisToken | None
    depth: int
    x_relax: np.ndarray | None = None

    def __post_init__(self):
        if set(self.fixed_pos) & set(self.fixed_neg):
            raise ValueError("fixed_pos and fixed_neg must be disjoint")


@dataclass
class Incumbent:
    x_best: np.ndarray
    w_best: np.ndarray
    upper: float


class NodePool:
    """Best-bound open-node heap: minimal bound first; ties go to the deeper
    node, then to the earlier push."""

    def __init__(self):
        self._heap: list = []
        self._counter = 0

    def push(self, node: Node):
        heapq.heappush(self._heap, ((node.bound, -node.depth, self._counter), node))
        self._counter += 1

    def pop(self) -> Node:
        return heapq.heappop(self._heap)[1]

    def min_bound(self) -> float:
        """Smallest bound of an open node; inf when none is open."""
        return self._heap[0][0][0] if self._heap else np.inf

    def __len__(self) -> int:
        return len(self._heap)


def select_branch_var(x_lp: np.ndarray, eps_int: float = 1e-6) -> int:
    """Most fractional coordinate (smallest |x_j|) of the LP solution."""
    x_lp = np.asarray(x_lp, dtype=float)
    frac = np.abs(x_lp) < 1.0 - eps_int
    if not frac.any():
        raise ValueError("select_branch_var called with an integral point")
    scores = np.where(frac, np.abs(x_lp), np.inf)
    return int(np.argmin(scores))


def initial_cuts(instance: RealInstance, ctx: LossContext | None = None) -> CutPool:
    """Seed pool: one tangent per observation, all anchored at the zero-forcing point."""
    ctx = ctx or LossContext.from_instance(instance)
    x_zf = quantize_one_bit(least_squares(instance.H, instance.r))
    pool = CutPool(ctx.n, ctx.k)
    for cut in make_cuts(ctx, range(ctx.n), x_zf):
        pool.add(cut)
    return pool


@dataclass
class SolveReport:
    """Outcome of a global solve, JSON-serializable, counters included."""

    method: str
    status: str  # optimal | node-limit | time-limit | numerical-failure
    x_star: np.ndarray | None
    objective: float | None
    nodes_processed: int
    lp_solves: int
    cuts_added: int
    pool_size: int
    pool_capacity: int
    ratio_s_over_c: float
    wall_time: float
    options: dict
    bound_prunes: int = 0
    lower_bound: float | None = None  # the objective when optimal, else the least open bound; None if unknown
    incumbent_history: list = field(default_factory=list)
    bound_history: list = field(default_factory=list)
    outer_lower_bounds: list = field(default_factory=list)

    @property
    def gap(self) -> float | None:
        """objective - lower_bound, when both are known."""
        if self.objective is None or self.lower_bound is None:
            return None
        return self.objective - self.lower_bound

    def to_dict(self) -> dict:
        d = {
            "method": self.method,
            "status": self.status,
            "x_star": None if self.x_star is None else [int(v) for v in self.x_star],
            "objective": _json_num(self.objective),
            "lower_bound": _json_num(self.lower_bound),
            "gap": _json_num(self.gap),
            "nodes_processed": self.nodes_processed,
            "lp_solves": self.lp_solves,
            "bound_prunes": self.bound_prunes,
            "cuts_added": self.cuts_added,
            "pool_size": self.pool_size,
            "pool_capacity": self.pool_capacity,
            "ratio_s_over_c": self.ratio_s_over_c,
            "wall_time": self.wall_time,
            "options": dict(self.options),
            "incumbent_history": [[n, _json_num(v)] for n, v in self.incumbent_history],
            "bound_history": [_json_num(v) for v in self.bound_history],
            "outer_lower_bounds": [_json_num(v) for v in self.outer_lower_bounds],
        }
        return d

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _json_num(v):
    if v is None or not math.isfinite(v):
        return None
    return float(v)


class _TreeSearch:
    """One branch-and-bound run over a (possibly growing) cut pool.

    With ``generate_cuts`` the search is the full global algorithm: integral
    LP optima are checked against the true per-row losses and violated
    tangents are added in place (re-solving the tightened LP). Before its LP,
    each node is bounded by the continuous relaxation min f over its box and
    pruned on that bound when it can be (the relaxation stops as soon as its
    bound reaches the prune cutoff); otherwise the bound raises the
    children's, and its minimizer is where their relaxations start. Without
    ``generate_cuts`` the search solves the restricted MILP on the pool
    exactly, which is what the outer incremental loop needs; f bounds nothing
    there, so no relaxation is taken.

    A node LP that ends non-optimal (a failed warm start is first retried
    cold) ends the search with status ``numerical-failure``; the incumbent
    and counters are kept. However the search ends, ``lower_bound`` is the
    least bound of the nodes still open (the node in hand included), capped
    at the incumbent's value: a valid lower bound on the problem searched.
    """

    def __init__(self, ctx, pool, opts, generate_cuts, deadline=None, node_budget=None):
        self.ctx = ctx
        self.pool = pool
        self.opts = opts
        self.generate_cuts = generate_cuts
        self.deadline = deadline
        self.node_budget = node_budget if node_budget is not None else opts.node_limit
        self.incumbent: Incumbent | None = None
        self.upper = np.inf
        self.nodes_processed = 0
        self.lp_solves = 0
        self.bound_prunes = 0
        self.lower_bound = -np.inf
        self.incumbent_history: list = []
        self.bound_history: list = []

    def offer(self, x_int, w, f):
        """Make x_int, with LP values w and objective f, the incumbent if f improves on it."""
        if f < self.upper:
            self.upper = f
            self.incumbent = Incumbent(x_int, w, f)
            self.incumbent_history.append((self.nodes_processed, f))

    def run(self) -> str:
        opts = self.opts
        open_nodes = NodePool()
        open_nodes.push(Node((), (), -np.inf, None, 0, np.zeros(self.ctx.k)))

        while len(open_nodes):
            if self.nodes_processed >= self.node_budget:
                return self._stop("node-limit", open_nodes)
            if self.deadline is not None and time.monotonic() > self.deadline:
                return self._stop("time-limit", open_nodes)
            node = open_nodes.pop()
            if node.bound >= self.upper - opts.eps_prune:
                continue
            self.bound_history.append(node.bound)
            xl, xu = self._box(node)
            bound, x_relax = node.bound, node.x_relax
            if self.generate_cuts:
                cutoff = self.upper - opts.eps_prune
                x_relax, relax = box_relaxation(self.ctx, xl, xu, node.x_relax, cutoff)
                if relax >= cutoff:
                    self.bound_prunes += 1
                    continue
                bound = max(bound, relax)
            self.nodes_processed += 1

            problem = self._build_problem(xl, xu)
            warm = node.warm
            while True:
                sol = self._solve(problem, warm)
                if sol is None:
                    return self._stop("numerical-failure", open_nodes, bound)
                f_lp = sol.objective
                if f_lp >= self.upper - opts.eps_prune:
                    break  # case (1): bound prune
                x_lp = sol.x
                if np.all(np.abs(x_lp) >= 1.0 - opts.eps_int):
                    # a basic x can land within eps_int of +-1 without sitting
                    # exactly on the bound; tangents anchored at the rounded
                    # point are then not exactly enforced at x_lp, so resolve
                    # the coordinate by branching instead of rounding
                    not_exact = np.flatnonzero(np.abs(x_lp) != 1.0)
                    if not_exact.size:
                        j = int(not_exact[0])
                        self._branch(open_nodes, node, j, max(f_lp, bound), sol.basis, x_relax)
                        break
                    x_int = x_lp.copy()
                    if not self.generate_cuts:
                        # restricted MILP: an integral point is already optimal
                        # for this subtree at the pool's objective
                        self.offer(x_int, sol.w.copy(), f_lp)
                        break
                    g = self.ctx.g_all(x_int)
                    new_rows = self._add_cuts(np.flatnonzero(sol.w < g - opts.eps_cut), x_int)
                    if not new_rows:
                        # case (2.1): feasible for the true losses (or, unreachable
                        # in exact arithmetic, every violated tangent is already
                        # pooled); store the exact objective so pruning never
                        # drifts by eps_cut
                        self.offer(x_int, g.copy(), float(g.sum()))
                        break
                    problem = lpmod.add_rows(problem, new_rows)  # case (2.2)
                    warm = sol.basis
                    continue
                # case (3): branch
                j = select_branch_var(x_lp, opts.eps_int)
                self._branch(open_nodes, node, j, max(f_lp, bound), sol.basis, x_relax)
                break
        return self._stop("optimal", open_nodes)

    def _stop(self, status, open_nodes, in_hand=np.inf) -> str:
        self.lower_bound = min(open_nodes.min_bound(), in_hand, self.upper)
        return status

    def _branch(self, open_nodes, node, j, bound, warm, x_relax):
        open_nodes.push(Node(node.fixed_pos + (j,), node.fixed_neg, bound, warm, node.depth + 1, x_relax))
        open_nodes.push(Node(node.fixed_pos, node.fixed_neg + (j,), bound, warm, node.depth + 1, x_relax))

    def _box(self, node: Node):
        """The node's box: x_j in [-1, 1], collapsed to the fixed sign where one is fixed."""
        xl = np.full(self.ctx.k, -1.0)
        xu = np.full(self.ctx.k, 1.0)
        xl[list(node.fixed_pos)] = 1.0
        xu[list(node.fixed_neg)] = -1.0
        return xl, xu

    def _build_problem(self, xl, xu) -> lpmod.LpProblem:
        row_w, coef, off = self.pool.lp_rows()
        return lpmod.LpProblem(
            n_x=self.ctx.k,
            n_w=self.ctx.n,
            row_w=row_w,
            row_coef=coef,
            row_off=off,
            x_lower=xl,
            x_upper=xu,
            w_lower=np.zeros(self.ctx.n),
        )

    def _solve(self, problem, warm):
        """Optimal node-LP solution, or None; a failed warm start is retried cold."""
        sol = lpmod.solve_lp(problem, warm)
        self.lp_solves += 1
        # a node LP is never infeasible (w is unbounded above), so any status
        # but optimal is numerical trouble
        if sol.status != "optimal" and warm is not None:
            sol = lpmod.solve_lp(problem, None)  # retry cold
            self.lp_solves += 1
        return sol if sol.status == "optimal" else None

    def _add_cuts(self, rows, point) -> list[Cut]:
        return [cut for cut in make_cuts(self.ctx, rows, point) if self.pool.add(cut) is not None]


def solve_gobmd(instance: RealInstance, opts: SolverOptions | None = None) -> SolveReport:
    """Branch-and-bound with embedded cut generation; certifies a global minimum."""
    opts = opts or SolverOptions()
    t0 = time.perf_counter()
    ctx = LossContext.from_instance(instance)
    pool = initial_cuts(instance, ctx)
    n_initial = len(pool)
    deadline = None if opts.time_limit is None else time.monotonic() + opts.time_limit
    search = _TreeSearch(ctx, pool, opts, generate_cuts=True, deadline=deadline)
    x_zf = np.array(pool.cuts[0].point)  # every seed tangent is anchored at the ZF signs
    g_zf = ctx.g_all(x_zf)
    search.offer(x_zf, g_zf, float(g_zf.sum()))
    status = search.run()
    wall = time.perf_counter() - t0
    inc = search.incumbent
    return SolveReport(
        method="gobmd",
        status=status,
        x_star=None if inc is None else inc.x_best,
        objective=None if inc is None else inc.upper,
        nodes_processed=search.nodes_processed,
        lp_solves=search.lp_solves,
        cuts_added=len(pool) - n_initial,
        pool_size=len(pool),
        pool_capacity=pool.capacity,
        ratio_s_over_c=pool.ratio(),
        wall_time=wall,
        options=opts.to_dict(),
        bound_prunes=search.bound_prunes,
        lower_bound=_json_num(search.lower_bound),
        incumbent_history=search.incumbent_history,
        bound_history=search.bound_history,
    )


def solve_incremental(instance: RealInstance, opts: SolverOptions | None = None) -> SolveReport:
    """Outer loop: exact restricted MILP on the pool, then add violated tangents.

    Each restricted optimum is a global lower bound; the loop stops once the
    returned point's true objective matches that bound to INCREMENTAL_GAP_TOL,
    which certifies global optimality without trusting eps_cut-sized slack.
    """
    opts = opts or SolverOptions()
    t0 = time.perf_counter()
    ctx = LossContext.from_instance(instance)
    pool = initial_cuts(instance, ctx)
    n_initial = len(pool)
    deadline = None if opts.time_limit is None else time.monotonic() + opts.time_limit

    nodes = lps = 0
    lower_bounds: list[float] = []
    best_x = None
    best_f = np.inf
    lower = -np.inf
    status = "optimal"
    while True:
        search = _TreeSearch(
            ctx,
            pool,
            opts,
            generate_cuts=False,
            deadline=deadline,
            node_budget=opts.node_limit - nodes,
        )
        inner_status = search.run()
        nodes += search.nodes_processed
        lps += search.lp_solves
        if inner_status != "optimal" or search.incumbent is None:
            status = inner_status if inner_status != "optimal" else "node-limit"
            # each restricted MILP relaxes the problem, so the bounds on it are valid here too
            lower = min(max([search.lower_bound, *lower_bounds]), best_f)
            break
        x_bar = search.incumbent.x_best
        w_bar = search.incumbent.w_best
        milp_obj = search.incumbent.upper
        lower_bounds.append(milp_obj)
        g = ctx.g_all(x_bar)
        f_true = float(g.sum())
        if f_true < best_f:
            best_f, best_x = f_true, x_bar
        viol = np.flatnonzero(w_bar < g - opts.eps_cut)
        if viol.size == 0 and f_true - milp_obj <= INCREMENTAL_GAP_TOL:
            break
        if viol.size == 0:
            # certificate gap too wide: tighten with any measurable violation
            viol = np.flatnonzero(w_bar < g - 1e-12)
        added = [cut for cut in make_cuts(ctx, viol, x_bar) if pool.add(cut) is not None]
        if not added:
            break  # pool already tight at x_bar; gap is LP-tolerance noise
    wall = time.perf_counter() - t0
    return SolveReport(
        method="incremental",
        status=status,
        x_star=best_x,
        objective=None if best_x is None else best_f,
        nodes_processed=nodes,
        lp_solves=lps,
        cuts_added=len(pool) - n_initial,
        pool_size=len(pool),
        pool_capacity=pool.capacity,
        ratio_s_over_c=pool.ratio(),
        wall_time=wall,
        options=opts.to_dict(),
        lower_bound=_json_num(best_f if status == "optimal" else lower),
        outer_lower_bounds=lower_bounds,
    )
