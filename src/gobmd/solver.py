"""Global detection solvers: branch-and-bound with embedded cut generation, and
the outer incremental loop that alternates exact restricted MILP solves with
cut separation. Both certify a global minimizer of the one-bit ML objective.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import lp as lpmod
from .baselines import zero_forcing
# make_cut stays importable from here: bench/layertrace.py wraps gobmd.solver.make_cut
from .loss import LossContext, box_relaxation, make_cut, make_cuts  # noqa: F401
from .model import RealInstance, quantize_one_bit

# objective gap accepted by the incremental loop's optimality certificate
INCREMENTAL_GAP_TOL = 1e-7
# a tangent is violated at an integral point when w_i < g_i - CUT_TOL
CUT_TOL = 1e-6
# a node is pruned when its bound reaches the incumbent's value - PRUNE_TOL
PRUNE_TOL = 1e-9


@dataclass(frozen=True)
class SolverOptions:
    node_limit: int = 1_000_000
    time_limit: float | None = None

    def __post_init__(self):
        # the report echoes both limits as JSON, so they must be plain finite numbers
        n, t = self.node_limit, self.time_limit
        if type(n) is not int or n < 1:
            raise ValueError(f"node_limit must be an integer >= 1, got {n!r}")
        if t is not None and (type(t) is bool or not isinstance(t, (int, float)) or not 0 < t < math.inf):
            raise ValueError(f"time_limit must be a finite number > 0, got {t!r}")


class CutPool:
    """The active tangent set S as node-LP rows, deduplicated over (row, anchor) pairs.

    A tangent w_i >= grad . x + offset is the row w_i - grad . x >= offset.
    ``rows`` holds the pooled ones as read-only ``(row_w, coef, off)``
    arrays, in the order they were added; it starts with one tangent per
    row at ``seed``. ``add`` replaces the triple only when a tangent is new,
    so every node LP between two additions shares the same arrays.
    """

    def __init__(self, ctx: LossContext, seed: np.ndarray):
        self.ctx = ctx
        self.seed = np.array(seed, dtype=float)
        self.seed.setflags(write=False)
        self.capacity = ctx.n * 2**ctx.k  # |C| = N * 2^K, the full tangent family size
        self._keys: set[tuple[int, bytes]] = set()
        self.rows = (np.empty(0, dtype=int), np.empty((0, ctx.k)), np.empty(0))
        self.add(range(ctx.n), self.seed)

    def __len__(self) -> int:
        return len(self.rows[0])

    def add(self, rows, point) -> int:
        """Pool the tangents at ``point`` of ``rows`` whose (row, anchor) pair is new; the number added."""
        rows = np.asarray(rows, dtype=int)
        # the tangents of every requested row, so each batch is one margin product whatever the pool holds
        grads, offsets = make_cuts(self.ctx, rows, point)
        anchor = np.asarray(point, dtype=float).tobytes()
        new = []
        for k, i in enumerate(rows.tolist()):
            if (i, anchor) not in self._keys:
                self._keys.add((i, anchor))
                new.append(k)
        if new:
            self.rows = tuple(np.concatenate([a, b[new]]) for a, b in zip(self.rows, (rows, grads, offsets)))
            for a in self.rows:
                a.setflags(write=False)
        return len(new)


@dataclass(eq=False)
class Node:
    """One branch-and-bound subproblem: its box, inherited bound, warm state.

    A sign is fixed where ``xl_j == xu_j``; the node LP freezes the box, so a
    branch copies it. ``x_relax`` is the parent's relaxation minimizer, where
    this node's projected Newton starts.
    """

    xl: np.ndarray
    xu: np.ndarray
    bound: float
    warm: lpmod.BasisToken | None
    depth: int
    x_relax: np.ndarray | None = None


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


def select_branch_var(point: np.ndarray, free: np.ndarray) -> int:
    """The coordinate of least |point_j| among those marked ``free``.

    ``solve_gobmd`` passes the relaxation minimizer and the coordinates its
    node leaves free; the restricted MILP passes the LP point and |x_j| != 1,
    the exact complement of its integrality test (a basic x_j can overshoot
    its bound by the LP's feasibility tolerance, so it is not |x_j| < 1).
    """
    free = np.asarray(free, dtype=bool)
    if not free.any():
        raise ValueError("select_branch_var called with no free coordinate")
    return int(np.argmin(np.where(free, np.abs(point), np.inf)))


def initial_cuts(instance: RealInstance, ctx: LossContext) -> CutPool:
    """Seed pool: one tangent per observation, all anchored at the zero-forcing point."""
    return CutPool(ctx, zero_forcing(instance))


@dataclass(kw_only=True)
class SolveReport:
    """Outcome of a global solve, counters included.

    The fields, in this order, are the keys of ``to_dict``. ``gap`` and
    ``ratio_s_over_c`` are computed from the other fields.
    """

    method: str
    status: str  # optimal | node-limit | time-limit | numerical-failure
    x_star: np.ndarray | None
    objective: float | None
    lower_bound: float | None  # the objective when optimal, else the least open bound; None if unknown
    gap: float | None = field(init=False)  # objective - lower_bound, when both are known
    nodes_processed: int
    lp_solves: int
    lp_iterations: int  # dual-simplex pivots summed over every node LP
    bound_prunes: int
    cuts_added: int
    pool_size: int
    pool_capacity: int
    ratio_s_over_c: float = field(init=False)  # |S| / |C|
    wall_time: float
    options: dict
    incumbent_history: list = field(default_factory=list)
    bound_history: list = field(default_factory=list)
    outer_lower_bounds: list = field(default_factory=list)

    def __post_init__(self):
        known = self.objective is not None and self.lower_bound is not None
        self.gap = self.objective - self.lower_bound if known else None
        self.ratio_s_over_c = self.pool_size / self.pool_capacity

    def to_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _json_value(v):
    """v as JSON data: a float finite or None, a sign vector as integers, containers item by item."""
    if isinstance(v, float):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, np.ndarray):
        return [int(s) for s in v]
    if isinstance(v, (list, tuple)):
        return [_json_value(u) for u in v]
    if isinstance(v, dict):
        return {k: _json_value(u) for k, u in v.items()}
    return v


class _TreeSearch:
    """One solve: its setup, its branch-and-bound runs, its counters and its report.

    Built once per solve, it takes the clock and builds the loss context, the
    seed pool (``initial_cuts``) and the deadline. ``run`` searches a fresh
    tree with a fresh incumbent over the pool as it stands: ``solve_gobmd``
    runs it once, ``solve_incremental`` once per outer pass. The counters,
    the histories, ``node_limit`` and the deadline carry across runs, and
    ``report`` reads the counters and the pool.

    With ``generate_cuts`` a run is the full global algorithm: integral
    LP optima (every |x_j| exactly 1) are checked against the true per-row
    losses, and the tangents violated by more than ``CUT_TOL`` are added in
    place (re-solving the tightened LP); any other LP optimum is branched on.
    An integral optimum that violates none is offered as the incumbent; its
    LP value can lie up to N * ``CUT_TOL`` below f there, so its node is
    branched too unless that value reaches the new cutoff or no sign is free.
    A node is pruned once its bound reaches the incumbent's value less
    ``PRUNE_TOL``. Before its LP, each node is bounded by the continuous
    relaxation min f over its box and pruned on that bound when it can be
    (the relaxation stops as soon as its bound reaches the prune cutoff).
    Otherwise the relaxation steers the node: the signs of its minimizer
    x_relax are offered as an incumbent, at their true losses, and the prune
    is tested again against the new incumbent; a branch is on the free
    coordinate of least |x_relax_j|; the bound raises the children's, and
    x_relax is where their relaxations start. Without ``generate_cuts`` a
    run solves the restricted MILP on the pool exactly, which is what the
    outer incremental loop needs; f bounds nothing there, so no relaxation is
    taken and a branch is on the LP point.

    A node LP that ends ``numerical-failure`` (``solve_lp`` has already
    retried a failed warm run cold) ends the run with that status; the
    incumbent and counters are kept. However the run ends,
    ``lower_bound`` is the least bound of the nodes still open
    (the node in hand included), capped at the incumbent's value: a valid
    lower bound on the problem searched.
    """

    def __init__(self, instance: RealInstance, opts: SolverOptions, generate_cuts: bool):
        self.t0 = time.perf_counter()
        self.opts = opts
        self.generate_cuts = generate_cuts
        self.ctx = LossContext.from_instance(instance)
        self.pool = initial_cuts(instance, self.ctx)
        self.deadline = None if opts.time_limit is None else self.t0 + opts.time_limit
        self.nodes_processed = self.lp_solves = self.lp_iterations = self.bound_prunes = 0
        self.incumbent_history: list = []
        self.bound_history: list = []

    def offer(self, x, w):
        """Make x, with per-row values w, the incumbent if their sum improves on it."""
        f = float(w.sum())
        if f < self.upper:
            self.x_best, self.w_best, self.upper = x, w, f
            self.incumbent_history.append((self.nodes_processed, f))

    def run(self, x_start=None) -> str:
        """Search a fresh tree with a fresh incumbent; ``x_start``, if given,
        is the first incumbent, at its true losses. Returns the run's status."""
        self.x_best = self.w_best = None
        self.upper = np.inf
        if x_start is not None:
            self.offer(x_start, self.ctx.g_all(x_start))
        open_nodes = NodePool()
        k = self.ctx.k
        open_nodes.push(Node(np.full(k, -1.0), np.full(k, 1.0), -np.inf, None, 0, np.zeros(k)))

        while len(open_nodes):
            if self.nodes_processed >= self.opts.node_limit:
                return self._stop("node-limit", open_nodes)
            if self.deadline is not None and time.perf_counter() > self.deadline:
                return self._stop("time-limit", open_nodes)
            node = open_nodes.pop()
            if node.bound >= self.upper - PRUNE_TOL:
                continue
            self.bound_history.append(node.bound)
            xl, xu = node.xl, node.xu
            bound, x_relax = node.bound, node.x_relax
            if self.generate_cuts:
                cutoff = self.upper - PRUNE_TOL
                x_relax, relax = box_relaxation(self.ctx, xl, xu, node.x_relax, cutoff)
                if relax < cutoff:
                    # x_relax lies in the box, so its rounding keeps the fixed signs
                    x_round = quantize_one_bit(x_relax)
                    self.offer(x_round, self.ctx.g_all(x_round))
                if relax >= self.upper - PRUNE_TOL:
                    self.bound_prunes += 1
                    continue
                bound = max(bound, relax)
            self.nodes_processed += 1

            problem = self._build_problem(xl, xu)
            # a root has no parent basis; its crash start skips the cold start's first pivots
            warm = lpmod.crash_start(problem) if node.warm is None else node.warm
            while True:
                sol = lpmod.solve_lp(problem, warm)
                self.lp_solves += 1
                self.lp_iterations += sol.iterations
                if sol.status != "optimal":
                    return self._stop("numerical-failure", open_nodes, bound)
                f_lp = sol.objective
                if f_lp >= self.upper - PRUNE_TOL:
                    break  # case (1): bound prune
                x_lp = sol.x
                if np.all(np.abs(x_lp) == 1.0):
                    if not self.generate_cuts:
                        # restricted MILP: an integral point is already optimal
                        # for this subtree at the pool's objective
                        self.offer(x_lp, sol.w)
                        break
                    g = self.ctx.g_all(x_lp)
                    if self.pool.add(np.flatnonzero(sol.w < g - CUT_TOL), x_lp):
                        problem = self._build_problem(xl, xu)  # case (2.2): the new cuts are the last rows
                        warm = sol.basis
                        continue
                    # case (2.1): feasible for the true losses (or, unreachable in
                    # exact arithmetic, every violated tangent is already pooled);
                    # store the exact objective so pruning never drifts by CUT_TOL,
                    # and close the node only on its bound or as a single point
                    self.offer(x_lp, g)
                    if f_lp >= self.upper - PRUNE_TOL or not np.any(xl < xu):
                        break
                # case (3): branch, as is a case-(2.1) node left open
                if self.generate_cuts:
                    j = select_branch_var(x_relax, xl < xu)
                else:
                    j = select_branch_var(x_lp, np.abs(x_lp) != 1.0)
                self._branch(open_nodes, node, j, max(f_lp, bound), sol.basis, x_relax)
                break
        return self._stop("optimal", open_nodes)

    def _stop(self, status, open_nodes, in_hand=np.inf) -> str:
        self.lower_bound = min(open_nodes.min_bound(), in_hand, self.upper)
        return status

    def _branch(self, open_nodes, node, j, bound, warm, x_relax):
        for sign in (1.0, -1.0):  # the +1 child is pushed first
            xl, xu = node.xl.copy(), node.xu.copy()
            xl[j] = xu[j] = sign
            open_nodes.push(Node(xl, xu, bound, warm, node.depth + 1, x_relax))

    def _build_problem(self, xl, xu) -> lpmod.LpProblem:
        """The node LP over the whole pool in the box [xl, xu]; the problem freezes the box."""
        return lpmod.LpProblem(self.ctx.k, self.ctx.n, *self.pool.rows, xl, xu)

    def report(self, method, status, **outcome) -> SolveReport:
        """A SolveReport with the counters, the pool, the wall time so far and the options filled in."""
        return SolveReport(
            method=method,
            status=status,
            nodes_processed=self.nodes_processed,
            lp_solves=self.lp_solves,
            lp_iterations=self.lp_iterations,
            bound_prunes=self.bound_prunes,
            cuts_added=len(self.pool) - self.ctx.n,
            pool_size=len(self.pool),
            pool_capacity=self.pool.capacity,
            wall_time=time.perf_counter() - self.t0,
            options=asdict(self.opts),
            **outcome,
        )


def solve_gobmd(instance: RealInstance, opts: SolverOptions | None = None) -> SolveReport:
    """Branch-and-bound with embedded cut generation; certifies a global minimum."""
    search = _TreeSearch(instance, opts or SolverOptions(), generate_cuts=True)
    # the seed pool's anchor is the zero-forcing point; a copy, as the report hands it out
    status = search.run(x_start=search.pool.seed.copy())
    return search.report(
        "gobmd",
        status,
        x_star=search.x_best,
        objective=search.upper,
        lower_bound=_json_value(search.lower_bound),
        incumbent_history=search.incumbent_history,
        bound_history=search.bound_history,
    )


def solve_incremental(instance: RealInstance, opts: SolverOptions | None = None) -> SolveReport:
    """Outer loop: exact restricted MILP on the pool, then add violated tangents.

    Each restricted optimum is a global lower bound; the loop stops once the
    returned point's true objective matches that bound to INCREMENTAL_GAP_TOL,
    which certifies global optimality without trusting CUT_TOL-sized slack.
    A restricted-MILP run that ends optimal always has an incumbent.
    """
    search = _TreeSearch(instance, opts or SolverOptions(), generate_cuts=False)
    lower_bounds: list[float] = []
    best_x, best_f = None, np.inf
    while (status := search.run()) == "optimal":
        x_bar, w_bar, milp_obj = search.x_best, search.w_best, search.upper
        lower_bounds.append(milp_obj)
        g = search.ctx.g_all(x_bar)
        f_true = float(g.sum())
        if f_true < best_f:
            best_f, best_x = f_true, x_bar
        viol = np.flatnonzero(w_bar < g - CUT_TOL)
        if viol.size == 0 and f_true - milp_obj <= INCREMENTAL_GAP_TOL:
            break
        if viol.size == 0:
            # certificate gap too wide: tighten with any measurable violation
            viol = np.flatnonzero(w_bar < g - 1e-12)
        if not search.pool.add(viol, x_bar):
            break  # pool already tight at x_bar; gap is LP-tolerance noise
    # each restricted MILP relaxes the problem, so the bounds on it are valid here too
    lower = best_f if status == "optimal" else min(max([search.lower_bound, *lower_bounds]), best_f)
    return search.report(
        "incremental",
        status,
        x_star=best_x,
        objective=None if best_x is None else best_f,
        lower_bound=_json_value(lower),
        outer_lower_bounds=lower_bounds,
    )
