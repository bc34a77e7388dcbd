"""Two-phase Bland-rule simplex for the tiny linear programs this package builds.

Every LP solved here has at most a few hundred nonnegative variables and a
couple dozen rows, and Bland's anti-cycling rule solves it with no external
solver.  Feasibility tolerance is 1e-9 throughout.  The general LPs (the
absolute-DRO screen's coupling LP, the moment-feasibility LP in ``bayes`` and
the p > 1 toward-Dirac share LP in ``robustness._wasserstein_dirac_share``) run
on a dense tableau; transport LPs run on their basis tree (below).

The entering-column scan, the ratio test and the elimination are vectorised
over the tableau, but they pick the same pivots and do the same floating-point
operations as an element-by-element loop (kept in the tests as the reference),
so every result is bit-identical to it.  :func:`solve_lp` also takes a stack of
objectives over one feasible set: phase 1 runs once, and each objective's
phase 2 starts from a copy of the same tableau, so each row of the result has
the bits of a lone solve.

Transport LPs take :func:`solve_lp`'s transportation form, which pivots on the
basis tree (the network simplex, Peyré & Cuturi, *Computational Optimal
Transport*, 2019, §3.5) and stores no tableau.  Its constraint matrix is
totally unimodular, so each tableau column is a tree path with entries of
+-1, and the tree replays the dense run: the same Bland pivots, the same
right-hand-side updates, the same phase-1 drive-out and row drop.  The
results are the dense solve's bit for bit wherever the costs are integers;
with float costs the reduced costs are read from node potentials, so only one
within rounding of the -1e-9 threshold could pick another column.  The pivot
rule and the start stay Bland's and the artificial basis, because the seed-0
benchmark reference pins the bits of every transport distance (ROADMAP item
1); a warm start or another pricing rule would move them.

These transport LPs are most of the time of a Wasserstein run on a line.  A
16-atom W1 LP makes about 450 pivots, a third of them in phase 1.  In a
phase-2 pivot about half the time is the numpy pricing of every arc against
the potentials; the rest is the path walk, the ratio test over the path's +1
rows, and the repricing of the subtree that moves.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-9
_PIVOT_TOL = 1e-10


class LPFailureError(RuntimeError):
    """Numerical failure inside the simplex (distinct from infeasibility)."""


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None  # (n,), or (k, n) for k objectives
    value: float | np.ndarray | None  # a float, or (k,) for k objectives
    iterations: int

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, row: int, col: int, rows: np.ndarray) -> None:
    """Scale ``row`` to a unit pivot and eliminate ``col`` from ``rows``.

    ``rows`` are the other rows with a nonzero entry in ``col``: subtracting a
    zero multiple from the rest would still flip the sign of their zero entries.
    """
    pivot_row = tableau[row]
    pivot_row /= pivot_row[col]
    sub = tableau.take(rows, axis=0)
    sub -= sub[:, col, None] * pivot_row
    tableau[rows] = sub


def _simplex(tableau: np.ndarray, basis: np.ndarray, costs: np.ndarray, max_iter: int) -> tuple[str, int]:
    """Run Bland-rule simplex iterations in place; returns (status, iterations)."""
    body, rhs = tableau[:, :-1], tableau[:, -1]
    order = basis.tolist()
    basic_costs = costs[basis]
    for it in range(max_iter):
        improving = costs - basic_costs @ body < -FEASIBILITY_TOL
        entering = int(improving.argmax())
        if not improving[entering]:
            status = "optimal"
            break
        col = body[:, entering]
        # solve_lp takes finite data only, so no entry is NaN unless one
        # overflowed: the nonzero entries are those with |x| > 0, the rows
        # the elimination touches, and the ratio-test candidates among them.
        touched = col.nonzero()[0]
        entries = col[touched]
        positive = (entries > _PIVOT_TOL).nonzero()[0]
        candidates = touched[positive]
        if candidates.size == 1:
            # The scan below keeps a lone candidate iff its ratio is finite.
            leaving = int(candidates[0]) if rhs[candidates[0]] / entries[positive[0]] < np.inf else -1
        else:
            # Scan the candidates in row order: "within the tolerance of the
            # best so far" is not transitive, so an argmin can pick another row.
            leaving = -1
            best_ratio = np.inf
            for i, ratio in zip(candidates.tolist(), (rhs[candidates] / entries[positive]).tolist()):
                if ratio < best_ratio - _PIVOT_TOL or (
                    abs(ratio - best_ratio) <= _PIVOT_TOL and leaving >= 0 and order[i] < order[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            status = "unbounded"
            break
        _pivot(tableau, leaving, entering, touched[touched != leaving])
        order[leaving] = entering
        basic_costs[leaving] = costs[entering]
    else:
        raise LPFailureError(f"simplex did not terminate within {max_iter} iterations")
    basis[:] = order
    return status, it


class _BasisTree:
    """A basis of the transportation LP as a spanning tree, in place of its tableau.

    Nodes ``0 .. na-1`` are the supply rows and ``na .. na+nb-1`` the demand
    rows; node ``na+nb`` is a root that carries phase 1's artificials (the
    artificial of row r is the arc between node r and the root).  Arc
    ``q = i*nb + j`` joins supply node i to demand node ``na+j``.  Each node
    below the root keeps its parent, its depth, its children, its potential
    and the tableau row of the arc to its parent; each row keeps its basic
    column, that column's cost, its right-hand side and the node below its arc.
    The potentials are an ``array('d')``, so that phase 2 prices every arc
    through fixed numpy views of them.

    The constraint matrix is totally unimodular, so the tableau column of arc
    ``(u, v)`` is the tree path between u and v: on u's side of the path the
    arc above a supply node has entry +1 and the arc above a demand node -1,
    and on v's side the other way round (the path's arcs alternate between
    the two sides of the bipartite graph).  Every other entry is 0.
    """

    def __init__(self, na: int, nb: int, rhs: list[float]):
        n = na + nb
        self.na, self.nb, self.root = na, nb, n
        self.parent = [n] * n + [-1]
        self.depth = [1] * n + [0]
        self.children = [[] for _ in range(n)] + [list(range(n))]
        self.row = list(range(n)) + [-1]
        self.below = list(range(n))
        self.var = list(range(na * nb, na * nb + n))
        self.cost = [1.0] * n
        self.y = array("d", [1.0] * n + [0.0])  # the artificials' phase-1 cost, less the root's 0
        self.rhs = rhs

    def path(self, u: int, v: int) -> tuple[list[int], list[int]]:
        """The rows of arc ``(u, v)``'s tableau column with entry +1, and those with -1.

        They are gathered while the walk climbs from u and from v to the
        meeting point: supply nodes on u's side and demand nodes on v's side
        hang from a +1 arc.
        """
        na, parent, depth, row = self.na, self.parent, self.depth, self.row
        plus, minus = [], []
        du, dv = depth[u], depth[v]
        while du > dv:
            (plus if u < na else minus).append(row[u])
            u = parent[u]
            du -= 1
        while dv > du:
            (minus if v < na else plus).append(row[v])
            v = parent[v]
            dv -= 1
        while u != v:
            (plus if u < na else minus).append(row[u])
            u = parent[u]
            (minus if v < na else plus).append(row[v])
            v = parent[v]
        return plus, minus

    def subtree(self, top: int) -> list[int]:
        """``top`` and the nodes below it, parents before children."""
        nodes = [top]
        children = self.children
        for x in nodes:
            nodes += children[x]
        return nodes

    def reprice(self, top: int) -> None:
        """Depth and potential of every node of ``top``'s subtree, from its parent down."""
        parent, depth, y, cost, row, children = self.parent, self.depth, self.y, self.cost, self.row, self.children
        nodes = [top]
        for x in nodes:
            p = parent[x]
            depth[x] = depth[p] + 1
            y[x] = cost[row[x]] - y[p]
            nodes += children[x]

    def pivot(self, q: int, u: int, v: int, plus: list[int], minus: list[int], leaving: int, positive: bool,
              cost_q: float) -> None:
        """Arc ``q = (u, v)``, whose column has entries +1 in rows ``plus`` and -1
        in rows ``minus``, enters in place of row ``leaving``'s arc, whose entry
        is +1 if ``positive``.

        The right-hand sides take the dense pivot's operations: the leaving
        row divided by its entry, then ``rhs - entry * theta`` on the
        column's other rows.
        """
        rhs = self.rhs
        theta = rhs[leaving] if positive else -rhs[leaving]
        # With theta == 0 (+0.0 or -0.0) these updates change no bits but the
        # signs of zeros.  A zero's sign changes no comparison of the ratio
        # test, no later update of a nonzero rhs and no sum of the phase-1
        # infeasibility check; the clamp keeps it, and the |x| < 1e-14 cleanup
        # turns every zero of the result into +0.0.
        if theta != 0.0:
            for r in plus:
                rhs[r] -= theta
            for r in minus:
                rhs[r] += theta
            rhs[leaving] = theta
        self.var[leaving] = q
        self.cost[leaving] = cost_q
        # The subtree below the leaving arc hangs from the entering arc now:
        # reverse the parent links from the entering end up to w.
        parent, children, below, row = self.parent, self.children, self.below, self.row
        w = below[leaving]
        top, new_parent = (u, v) if (w < self.na) == positive else (v, u)
        x, new_row = top, leaving
        while True:
            old_parent, old_row = parent[x], row[x]
            children[old_parent].remove(x)
            children[new_parent].append(x)
            parent[x], row[x] = new_parent, new_row
            below[new_row] = x
            if x == w:
                break
            x, new_parent, new_row = old_parent, x, old_row
        self.reprice(top)


def _tree_simplex(tree: _BasisTree, prices: np.ndarray | None, max_iter: int) -> tuple[str, int]:
    """``_simplex`` on the basis tree: the same Bland pivots, read from the tree.

    A column's reduced cost is its price less its two nodes' potentials, and
    the entering arc is the first one below the tolerance.  The ratio test
    scans the path's +1 entries in row order, with the dense loop's tie rule.

    ``prices=None`` is phase 1, whose potentials are exactly +1 or -1: the
    first improving arc joins the first supply node and the first demand node
    at +1, and an artificial's reduced cost is 0 or 2, so none re-enters.
    """
    na, nb, n = tree.na, tree.nb, tree.root
    var, rhs, y, path, pivot = tree.var, tree.rhs, tree.y, tree.path, tree.pivot
    if prices is not None:
        flat_prices = prices.reshape(-1).tolist()
        potentials = np.frombuffer(y)
        supply_y, demand_y = potentials[:na, None], potentials[na:n]
        reduced = np.empty_like(prices)
        improving = np.empty(prices.shape, dtype=bool)
    for it in range(max_iter):
        if prices is None:
            try:
                u, v = y.index(1.0, 0, na), y.index(1.0, na, n)
            except ValueError:
                return "optimal", it
            q, cost_q = u * nb + v - na, 0.0
        else:
            np.subtract(prices, supply_y, out=reduced)
            reduced -= demand_y
            np.less(reduced, -FEASIBILITY_TOL, out=improving)
            q = int(improving.argmax())
            if not improving.item(q):
                return "optimal", it
            u, v = divmod(q, nb)
            v += na
            cost_q = flat_prices[q]
        plus, minus = path(u, v)
        plus.sort()
        leaving = -1
        best_ratio = np.inf
        for r in plus:
            ratio = rhs[r]
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL and leaving >= 0 and var[r] < var[leaving]
            ):
                best_ratio, leaving = ratio, r
        if leaving < 0:
            return "unbounded", it
        pivot(q, u, v, plus, minus, leaving, True, cost_q)
    raise LPFailureError(f"simplex did not terminate within {max_iter} iterations")


def _solve_transport(c, supply, demand) -> LPResult:
    """``solve_lp(c, marginals=(supply, demand))``: the dense solve's run on the basis tree."""
    c = np.asarray(c, dtype=float)
    supply = np.asarray(supply, dtype=float)
    demand = np.asarray(demand, dtype=float)
    if c.ndim != 1:
        raise ValueError("the transportation form takes one objective vector")
    if supply.ndim != 1 or demand.ndim != 1 or supply.size == 0 or demand.size == 0:
        raise ValueError("marginals must be two nonempty vectors")
    na, nb = supply.size, demand.size
    if c.size != na * nb:
        raise ValueError("objective length must be len(a) * len(b)")
    b = np.concatenate([supply, demand])
    if not (np.isfinite(c).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    if (b < 0.0).any():
        raise ValueError("marginals must be nonnegative")
    n_struct, m = na * nb, na + nb

    # Phase 1 from the artificial basis, as in the dense solve.
    tree = _BasisTree(na, nb, b.tolist())
    cap = 200 * (n_struct + m + 10)
    status, iterations = _tree_simplex(tree, None, cap)
    if status != "optimal":
        raise LPFailureError(f"phase 1 ended with status {status!r}")
    var, rhs = tree.var, tree.rhs
    artificial = np.array([v >= n_struct for v in var], dtype=float)
    if float(artificial @ np.array(rhs)) > FEASIBILITY_TOL * max(1.0, float(np.max(b))) * 10.0:
        return LPResult("infeasible", None, None, iterations)

    # Drive the artificials out in row order.  The artificial of row r is the
    # arc from node r to the root, and the structural columns with a nonzero
    # entry in row r are the arcs that leave r's subtree.  The matrix has rank
    # m - 1, so the last artificial's subtree holds every node: its row drops.
    dropped = -1
    for r in range(m):
        if var[r] < n_struct:
            continue
        inside = np.zeros(m, dtype=bool)
        inside[tree.subtree(r)] = True
        leaves = (inside[:na, None] != inside[na:]).reshape(-1)
        q = int(leaves.argmax())
        if not leaves[q]:
            dropped = r
            continue
        u, v = divmod(q, nb)
        v += na
        plus, minus = tree.path(u, v)
        tree.pivot(q, u, v, plus, minus, r, r in plus, 0.0)
    kept = [r for r in range(m) if r != dropped]
    for r, value in zip(kept, np.maximum([rhs[r] for r in kept], 0.0).tolist()):
        rhs[r] = value

    # Phase 2 from the dropped row's node, whose potential is 0.
    for r in kept:
        tree.cost[r] = float(c[var[r]])
    tree.y[dropped] = 0.0
    for child in tree.children[dropped]:
        tree.reprice(child)
    status, it2 = _tree_simplex(tree, c.reshape(na, nb), cap)
    iterations += it2
    if status == "unbounded":
        return LPResult("unbounded", None, None, iterations)
    x = np.zeros(n_struct)
    x[[var[r] for r in kept]] = [rhs[r] for r in kept]
    x[np.abs(x) < 1e-14] = 0.0
    return LPResult("optimal", x, float(c @ x), iterations)


def solve_lp(
    c,
    a_eq=None,
    b_eq=None,
    a_ub=None,
    b_ub=None,
    *,
    marginals=None,
) -> LPResult:
    """Minimize ``c @ x`` over ``x >= 0`` with ``a_eq x = b_eq`` and ``a_ub x <= b_ub``.

    All variables are nonnegative; callers encode free variables themselves
    (none of the programs in this package need them).  Every entry of the
    data must be finite.

    ``c`` may also be a (k, n) stack of objectives over the one feasible set.
    Phase 1, the drive-out of artificials and the row drop then run once, and
    phase 2 runs for each objective on its own copy of the tableau.  The
    result's ``x`` is (k, n) and its ``value`` (k,), row for row the bits of a
    lone solve; ``iterations`` counts every pivot made (phase 1 once, every
    phase 2), and the status is ``"optimal"`` only if every objective's is
    (``"unbounded"`` otherwise, with no ``x`` or ``value``).

    ``marginals=(a, b)`` takes the transportation form instead of the
    constraint blocks: ``x`` is a flattened ``len(a) x len(b)`` coupling,
    ``x[i * len(b) + j]``, with row sums ``a`` and column sums ``b``, both
    nonnegative, and ``c`` is one objective vector.  The solve pivots on the
    basis tree, and returns the result of the dense solve with ``a_eq`` the
    stacked row-sum and column-sum indicators and ``b_eq = [a, b]``.
    """
    if marginals is not None:
        if any(block is not None for block in (a_eq, b_eq, a_ub, b_ub)):
            raise ValueError("marginals replace the constraint blocks; pass one or the other")
        return _solve_transport(c, *marginals)
    c = np.asarray(c, dtype=float)
    if c.ndim not in (1, 2) or c.shape[0] == 0:
        raise ValueError("objective must be a vector or a (k, n) stack of k >= 1 vectors")
    n = c.shape[-1]
    blocks = []
    n_ub = 0
    if a_eq is not None:
        a_eq = np.atleast_2d(np.asarray(a_eq, dtype=float))
        b_eq = np.atleast_1d(np.asarray(b_eq, dtype=float))
        blocks.append((a_eq, b_eq))
    if a_ub is not None:
        a_ub = np.atleast_2d(np.asarray(a_ub, dtype=float))
        b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
        n_ub = a_ub.shape[0]
        blocks.append((a_ub, b_ub))
    if not blocks:
        raise ValueError("at least one constraint block is required")
    for mat, vec in blocks:
        if mat.shape[1] != n:
            raise ValueError("constraint matrix width does not match objective length")
        if mat.shape[0] != vec.size:
            raise ValueError("constraint rhs length does not match matrix")
    b = np.concatenate([vec for _, vec in blocks])
    m = b.size

    # Slack columns for the <= rows (the last n_ub), then flip rows to make
    # the rhs nonnegative.
    slack = np.vstack([np.zeros((m - n_ub, n_ub)), np.eye(n_ub)])
    full = np.hstack([np.vstack([mat for mat, _ in blocks]), slack])
    if not (np.isfinite(c).all() and np.isfinite(full).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    flip = b < 0.0
    full[flip] *= -1.0
    b[flip] = -b[flip]
    n_struct = n + n_ub

    # Phase 1: artificial basis, minimize the artificial mass.
    art = np.eye(m)
    tableau = np.hstack([full, art, b[:, None]])
    basis = np.arange(n_struct, n_struct + m)
    phase1_costs = np.concatenate([np.zeros(n_struct), np.ones(m)])
    cap = 200 * (n_struct + m + 10)
    status, iterations = _simplex(tableau, basis, phase1_costs, cap)
    if status != "optimal":
        raise LPFailureError(f"phase 1 ended with status {status!r}")
    scale = max(1.0, float(np.max(np.abs(b))) if m else 1.0)
    infeas = float(phase1_costs[basis] @ tableau[:, -1])
    if infeas > FEASIBILITY_TOL * scale * 10.0:
        return LPResult("infeasible", None, None, iterations)

    # Drive artificials out of the basis; drop redundant rows.
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_struct:
            candidates = np.flatnonzero(np.abs(tableau[i, :n_struct]) > 1e-8)
            if candidates.size == 0:
                keep[i] = False
                continue
            touched = np.flatnonzero(tableau[:, candidates[0]])
            _pivot(tableau, i, candidates[0], touched[touched != i])
            basis[i] = candidates[0]
    tableau = np.hstack([tableau[keep][:, :n_struct], tableau[keep][:, -1:]])
    basis = basis[keep]
    tableau[:, -1] = np.maximum(tableau[:, -1], 0.0)

    objectives = np.atleast_2d(c)
    xs = []
    for k, objective in enumerate(objectives):
        # The last objective runs on the tableau itself, the others on copies.
        if k < len(objectives) - 1:
            tab, bas = tableau.copy(), basis.copy()
        else:
            tab, bas = tableau, basis
        status, it2 = _simplex(tab, bas, np.concatenate([objective, np.zeros(n_ub)]), cap)
        iterations += it2
        if status == "unbounded":
            xs = None
        elif xs is not None:
            x_full = np.zeros(n_struct)
            x_full[bas] = tab[:, -1]
            x_full[np.abs(x_full) < 1e-14] = 0.0
            xs.append(x_full[:n])
    if xs is None:
        return LPResult("unbounded", None, None, iterations)
    if c.ndim == 1:
        return LPResult("optimal", xs[0], float(c @ xs[0]), iterations)
    return LPResult("optimal", np.array(xs), np.array([float(ck @ x) for ck, x in zip(c, xs)]), iterations)
