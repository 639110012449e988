"""Couplings of two finite measures and the solvers that search over them.

A coupling is a nonnegative matrix with prescribed row and column sums.
Three search routes live here and deliberately stay independent of each
other so they can cross-validate:

  * max_mass_on_set: bipartite max-flow, specialised and fast;
    flows.Transport solves it and completes and certifies the witness
    coupling on the scaled ints;
  * feasibility_lp: a dense simplex with Bland's rule, started from the
    northwest-corner coupling, capping the mass on several cell sets at
    once.  Its core, _common_cap_lp, takes the weights scaled to ints
    once, builds the start on them and pivots a fraction-free integer
    tableau (Bareiss updates) with them as right-hand sides, so it takes
    the same pivots as a rational tableau without the rational
    arithmetic, and certifies the witness's marginals and cap on the
    tableau's ints.  The core takes each set as its cell mask and
    minimises one column, the common cap t.  feasibility_lp passes its
    cell sets' masks and unscales what it returns; the dconc search
    calls the core on its own masks and keeps the ints;
  * transportation_vertices and enumerate_couplings: explicit vertex
    enumeration of the transportation polytope on tiny grids, peeled on
    scaled ints, and a deterministic mixture lattice.

A solver's certified witness becomes a Coupling in one way:
Coupling.certified takes its ints over their unit (floats and no unit in
float mode), unscales each entry once and skips the per-entry check that
certify_coupling has just made.  Every other matrix goes through the
checked constructor.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from .core import DiscreteMeasure, Record
from .errors import (
    GdsError,
    InfeasibleMarginals,
    MarginalMismatch,
    SizeLimit,
)
from .flows import Transport, bits, certify_coupling
from .metrics import CellSet, prohorov_weights
from .numerics import (
    EXACT,
    FLOAT,
    ZERO,
    Scalar,
    check_mode,
    close,
    leq,
    same_mode,
    scaled_ints,
    tolerance,
    unscaled,
    unscaled_rows,
)

VERTEX_CELL_LIMIT = 9


class Coupling(Record):
    """Nonnegative matrix on the n x m grid; marginals live with the caller."""

    _fields = ("matrix", "mode")

    def __init__(self, matrix: tuple, mode: str = EXACT):
        check_mode(mode)
        if not matrix or not matrix[0]:
            raise GdsError("a coupling needs a nonempty matrix")
        width = len(matrix[0])
        tol = tolerance(mode)
        for row in matrix:
            if len(row) != width:
                raise GdsError("coupling rows have inconsistent lengths")
            for v in row:
                if v < -tol:
                    raise GdsError(f"negative coupling entry {v!r}")
        self.__dict__.update(matrix=matrix, mode=mode)

    @classmethod
    def certified(cls, rows, unit, mode: str) -> "Coupling":
        """The Coupling of a witness certified on its ints, unchecked again.

        rows are equal-length rows of ints over unit (floats and unit None
        in float mode), as a solver certified them with
        flows.certify_coupling (none below the mode's tolerance), or the
        scaled entries of a coupling already built: the product of two
        measures' positive weights, or a lattice coupling.  Each entry is
        unscaled once, and __init__'s per-entry check is skipped.
        """
        pi = object.__new__(cls)
        vars(pi).update(matrix=unscaled_rows(rows, unit), mode=mode)
        return pi

    @property
    def n(self) -> int:
        return len(self.matrix)

    @property
    def m(self) -> int:
        return len(self.matrix[0])

    def row_sums(self) -> tuple:
        return tuple(sum(row) for row in self.matrix)

    def col_sums(self) -> tuple:
        return tuple(sum(col) for col in zip(*self.matrix))

    def mass(self, cells) -> Scalar:
        zero = ZERO if self.mode == EXACT else 0.0
        return sum((self.matrix[i][j] for (i, j) in cells), start=zero)

    def support(self) -> tuple:
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(self.m)
            if self.matrix[i][j] > 0
        )

    def check_marginals(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
        """Raise MarginalMismatch unless the rows sum to mu and the columns to nu.

        Exact mode compares on ints: the entries and the weights are
        scaled over one common denominator, so the sums are exact and no
        rational is added; a failing sum is built as a rational for the
        message only.  Float mode allows FLOAT_TOL per sum.
        """
        same_mode(self.mode, mu.mode, nu.mode)
        if (self.n, self.m) != (mu.n, nu.n):
            raise MarginalMismatch(
                f"coupling is {self.n}x{self.m}, its marginals need {mu.n}x{nu.n}"
            )
        tol = tolerance(self.mode)
        rows, mu_w, nu_w = self.matrix, mu.weights, nu.weights
        if self.mode == EXACT:
            (*rows, mu_w, nu_w), _ = scaled_ints(*rows, mu_w, nu_w)
        for i, row in enumerate(rows):
            if abs(sum(row) - mu_w[i]) > tol:
                s = sum(self.matrix[i])
                raise MarginalMismatch(f"row {i} sums to {s}, expected {mu.weights[i]}")
        for j, col in enumerate(zip(*rows)):
            if abs(sum(col) - nu_w[j]) > tol:
                s = self.col_sums()[j]
                raise MarginalMismatch(f"col {j} sums to {s}, expected {nu.weights[j]}")


def product_coupling(mu: DiscreteMeasure, nu: DiscreteMeasure) -> Coupling:
    """The independent coupling mu x nu."""
    mode = same_mode(mu.mode, nu.mode)
    rows = tuple(
        tuple(mu.weights[i] * nu.weights[j] for j in range(nu.n))
        for i in range(mu.n)
    )
    return Coupling(rows, mode)


def max_mass_on_set(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cells: CellSet
) -> tuple[Scalar, Coupling]:
    """Largest coupling mass placeable on a cell set, with a witness.

    Solved by bipartite max-flow; Transport.completion completes the flow
    plan to a genuine coupling by product-filling the residual marginals,
    on the scaled ints.  The filled mass cannot land on the target set
    (that would beat the maximum), so the witness attains exactly the
    returned value.  Its marginals are certified on those ints, before
    any entry is unscaled (within FLOAT_TOL in float mode).
    """
    mode = same_mode(mu.mode, nu.mode)
    if cells.n != mu.n or cells.m != nu.n:
        raise GdsError("cell set shape disagrees with the marginals")
    transport = Transport(mu.weights, nu.weights)
    flow, rows, unit = transport.completion(cells.to_mask())
    return unscaled(flow, transport.scale), Coupling.certified(rows, unit, mode)


# ---------------------------------------------------------------------------
# Exact simplex
# ---------------------------------------------------------------------------


def _simplex(rows, rhs, objective, start, mode):
    """Dense simplex with Bland's rule, minimising x[objective].

    rows/rhs describe equality constraints Ax = b with x >= 0; the entries
    of A are integers, and in exact mode so is b (the caller scales it).
    start lists one column per row and must be a feasible basis: B
    nonsingular and B^-1 b >= 0.  The tableau is pivoted into that basis
    and Bland's rule runs from there.  Returns (solution, d):
    an optimal solution is solution / d, with 0 in every non-basic entry.

    Exact mode runs on a fraction-free integer tableau (Edmonds 1967;
    Bareiss, "Sylvester's identity and multistep integer-preserving
    Gaussian elimination", Math. Comp. 1968), which starts as [A | b] with
    d = 1.  A pivot on p = T[r][c] keeps the pivot row, negated first
    when p < 0, and replaces every other row by
    (row * p - f * prow) // d, where f is the row's entry in column c;
    then d = |p|.  After any sequence of pivots T = d * B^-1 [A | b],
    where B holds the pivoted columns and a unit column for every row not
    yet pivoted, and d = |det B|; the division is exact because every
    entry is a minor of [A | b].  The reduced costs are one more row,
    d * e_objective minus the objective's row when it is basic (the cost
    vector is e_objective), built once the starting basis is in and
    pivoted like the others.  Since d > 0, every sign the method reads is
    the sign of the rational tableau, and the ratio test compares
    b_r / a_r by cross-multiplication, where d cancels.  So Bland picks
    the same entering and leaving columns as on a rational tableau, and
    on b scaled by any positive constant, and the final basis and
    solution are the same numbers.  Each basic entry of solution is the int
    T[r][-1].

    Float mode runs the same start, pricing and ratio test.  Its pivot
    divides the pivot row by p, so d stays 1, and comparisons use a small
    pivot tolerance.
    """
    exact = mode == EXACT
    eps = 0 if exact else 1e-12
    n_rows = len(rows)
    n_cols = len(rows[0])
    if exact:
        tab = [list(row) + [b] for row, b in zip(rows, rhs)]
    else:
        tab = [[float(v) for v in row] + [float(b)] for row, b in zip(rows, rhs)]
    basis = [-1] * n_rows
    d = 1

    def pivot(pr, pc):
        # The reduced-cost row, once built, is tab[-1].
        nonlocal d
        prow = tab[pr]
        p = prow[pc]
        if not exact:
            prow = [v / p for v in prow]
            p = 1
        elif p < 0:
            prow = [-v for v in prow]
            p = -p
        tab[pr] = prow
        nz = [k for k, v in enumerate(prow) if v]
        for r, row in enumerate(tab):
            if r == pr:
                continue
            f = row[pc]
            if not f:
                if p != d:
                    tab[r] = [v * p // d for v in row]
                continue
            if p != 1:
                row = [v * p for v in row]
            for k in nz:
                row[k] -= f * prow[k]
            tab[r] = row if d == 1 else [v // d for v in row]
        basis[pr] = pc
        d = p

    # B is nonsingular, so each starting column has a nonzero entry in
    # some row that no earlier column has taken.
    for c in start:
        pivot(next(r for r in range(n_rows) if basis[r] < 0 and abs(tab[r][c]) > eps), c)

    red = [0] * (n_cols + 1)
    red[objective] = d
    if objective in basis:
        red = [a - v for a, v in zip(red, tab[basis.index(objective)])]
    tab.append(red)
    while True:
        red = tab[-1]
        enter = next((k for k in range(n_cols) if red[k] < -eps), -1)
        if enter < 0:
            break
        leave = -1
        for r in range(n_rows):
            a = tab[r][enter]
            if a > eps:
                if leave < 0:
                    leave = r
                    continue
                br_al = tab[r][-1] * tab[leave][enter]
                bl_ar = tab[leave][-1] * a
                if br_al < bl_ar or (br_al == bl_ar and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            raise GdsError("unbounded linear program")
        pivot(leave, enter)
    solution = [0 if exact else 0.0] * n_cols
    for r, c in enumerate(basis):
        solution[c] = tab[r][-1]
    return solution, d


def _common_cap_lp(mu_w, nu_w, D, masks) -> tuple:
    """The common-cap LP on scaled weights: (rows, unit, t), certified.

    mu_w and nu_w are the weights scaled by D (numerics.scaled_ints; the
    floats and D None in float mode), and masks holds each set as a cell
    mask, cell (i, j) at bit i * m + j, which is also its column; the
    totals must agree.  A set's mass sums its cells lowest bit first.
    The corner's staircase, the heaviest set and the right-hand sides of
    the simplex are all read off the scaled weights, since a positive
    scale changes none of them.
    Exact mode returns the witness rows and t as ints over unit = d * D,
    d the tableau's; float mode returns the entries clamped at 0.0, t as
    a float and unit None.

    The witness is certified on those numbers: its marginals by
    flows.certify_coupling (every entry >= 0, rows summing to d * mu_w,
    columns to d * nu_w; within the float tolerance in float mode), and
    its cap by no set mass above t and one at t, that is
    max(set masses) == t.
    """
    mode = EXACT if D is not None else FLOAT
    n, m = len(mu_w), len(nu_w)
    t_col = n * m
    n_cols = t_col + 1 + len(masks)
    cells = [bits(mask) for mask in masks]

    rows = []
    for i in range(n):
        row = [0] * n_cols
        for j in range(m):
            row[i * m + j] = 1
        rows.append(row)
    # The last column sum follows from the others and the equal totals.
    for j in range(m - 1):
        row = [0] * n_cols
        for i in range(n):
            row[i * m + j] = 1
        rows.append(row)
    for k, set_cells in enumerate(cells):
        row = [0] * n_cols
        for c in set_cells:
            row[c] = 1
        row[t_col] = -1
        row[t_col + 1 + k] = 1
        rows.append(row)
    rhs = [*mu_w, *nu_w[:-1]] + [0] * len(masks)

    corner, staircase = _northwest_corner(mu_w, nu_w, range(n), range(m))
    start = [i * m + j for (i, j) in staircase]
    if masks:
        flat = [x for row in corner for x in row]
        masses = [sum(flat[c] for c in set_cells) for set_cells in cells]
        heaviest = masses.index(max(masses))
        start.append(t_col)
        start += [t_col + 1 + k for k in range(len(masks)) if k != heaviest]
    solution, d = _simplex(rows, rhs, t_col, start, mode)
    flat = solution[:t_col]
    if D is None:
        flat = [max(0.0, v) for v in flat]
    grid = [flat[i * m : (i + 1) * m] for i in range(n)]
    t = solution[t_col]
    certify_coupling(grid, mu_w, nu_w, d, tolerance(mode))
    masses = [sum(flat[c] for c in set_cells) for set_cells in cells]
    if masses and not (
        all(leq(x, t, mode) for x in masses) and any(close(x, t, mode) for x in masses)
    ):
        raise AssertionError("LP witness does not attain its common cap")
    return grid, None if D is None else d * D, t


def feasibility_lp(
    mu: DiscreteMeasure, nu: DiscreteMeasure, sets: Sequence[CellSet]
) -> tuple[Coupling, Scalar]:
    """Least common cap on several cell sets, by the exact simplex.

    Minimises t over couplings pi of (mu, nu) subject to pi(B_k) + s_k = t
    with slack s_k >= 0 for every set B_k in `sets`.  Returns (witness
    coupling, t).  Once the two totals agree the program is always
    feasible: the simplex starts from the northwest-corner coupling, with
    t at the mass it puts on the first heaviest set and every other set's
    slack basic.

    The weights are scaled to ints once, here, with numerics.scaled_ints,
    and _common_cap_lp solves and certifies the program on them; t is
    unscaled once, and Coupling.certified unscales each witness entry
    once, without a second check.
    """
    mode = same_mode(mu.mode, nu.mode)
    for cells in sets:
        if cells.n != mu.n or cells.m != nu.n:
            raise GdsError("constraint cell set disagrees with the marginals")
    (mu_w, nu_w), D = scaled_ints(mu.weights, nu.weights)
    if abs(sum(mu_w) - sum(nu_w)) > tolerance(mode):
        raise InfeasibleMarginals("marginals carry different total mass")
    rows, unit, t = _common_cap_lp(mu_w, nu_w, D, [cells.to_mask() for cells in sets])
    return Coupling.certified(rows, unit, mode), unscaled(t, unit)


# ---------------------------------------------------------------------------
# Gluing and comparison
# ---------------------------------------------------------------------------


def glue(pi_xy: Coupling, pi_yz: Coupling) -> tuple[tuple, Coupling]:
    """Glue two couplings along their shared middle marginal.

    rho(x,y,z) = pi_xy(x,y) * pi_yz(y,z) / nu(y), with 0/0 read as the
    mode's zero.  Returns the triple tensor and its (x,z) marginal as a
    Coupling.
    """
    mode = same_mode(pi_xy.mode, pi_yz.mode)
    tol = tolerance(mode)
    mid_a = pi_xy.col_sums()
    mid_b = pi_yz.row_sums()
    if len(mid_a) != len(mid_b) or any(
        abs(a - b) > tol for a, b in zip(mid_a, mid_b)
    ):
        raise MarginalMismatch("middle marginals disagree; cannot glue")
    n, mid, p = pi_xy.n, pi_xy.m, pi_yz.m
    zeros = (ZERO if mode == EXACT else 0.0,) * p
    tensor = []
    for x in range(n):
        plane = []
        for y in range(mid):
            ny = mid_a[y]
            if ny == 0:
                plane.append(zeros)
                continue
            a = pi_xy.matrix[x][y]
            plane.append(tuple(a * pi_yz.matrix[y][z] / ny for z in range(p)))
        tensor.append(tuple(plane))
    xz = tuple(
        tuple(sum(tensor[x][y][z] for y in range(mid)) for z in range(p))
        for x in range(n)
    )
    return tuple(tensor), Coupling(xz, mode)


def coupling_prohorov(
    pi: Coupling, rho: Coupling, dist_x: Sequence, dist_y: Sequence
) -> Scalar:
    """Prohorov distance between two couplings of the same pair of spaces.

    Both are read as measures on the product grid under the sup combination
    max(d_X, d_Y) of the two ground metrics.
    """
    same_mode(pi.mode, rho.mode)
    n, m = pi.n, pi.m
    if rho.n != n or rho.m != m:
        raise GdsError("couplings live on different grids")
    flat_pi = [pi.matrix[i][j] for i in range(n) for j in range(m)]
    flat_rho = [rho.matrix[i][j] for i in range(n) for j in range(m)]
    dist = []
    for i in range(n):
        for j in range(m):
            row = []
            for i2 in range(n):
                for j2 in range(m):
                    dx = dist_x[i][i2]
                    dy = dist_y[j][j2]
                    row.append(dx if dx >= dy else dy)
            dist.append(row)
    return prohorov_weights(flat_pi, flat_rho, dist)


# ---------------------------------------------------------------------------
# Vertex and lattice enumeration
# ---------------------------------------------------------------------------


def _forest_flows(n, m, edges, mu, nu):
    """Unique flow on a spanning forest of the transport graph, or None.

    Peels degree-one nodes, lowest first; each leaf pins its incident
    edge's flow to the node's remaining marginal.  degree counts each
    node's unpeeled edges.  Returns the matrix if all flows end up
    nonnegative and all marginals are exhausted.  mu and nu may be scaled
    ints: the flows are then those of the weights times the same scale.
    """
    need = [*mu, *nu]
    adj = [[] for _ in range(n + m)]
    degree = [0] * (n + m)
    for edge in edges:
        i, j = edge
        adj[i].append(edge)
        adj[n + j].append(edge)
        degree[i] += 1
        degree[n + j] += 1
    flow = {}
    for _ in edges:
        if 1 not in degree:
            return None  # a cycle survives; not a forest
        u = degree.index(1)
        i, j = edge = next(e for e in adj[u] if e not in flow)
        amount = need[u]
        if amount < 0:
            return None
        flow[edge] = amount
        need[i] -= amount
        need[n + j] -= amount
        degree[i] -= 1
        degree[n + j] -= 1
    if any(need):
        return None
    zero = mu[0] - mu[0]
    matrix = [[zero] * m for _ in range(n)]
    for (i, j), v in flow.items():
        matrix[i][j] = v
    return tuple(tuple(r) for r in matrix)


def transportation_vertices(mu: DiscreteMeasure, nu: DiscreteMeasure) -> tuple:
    """All vertices of the transportation polytope, deduplicated.

    Any vertex is the unique flow on some spanning forest with at most
    n + m - 1 edges, so scanning the edge subsets of that size finds all
    of them.  Capped at 9 cells, which keeps the scan at a few hundred
    candidates.  The peel runs on the weights scaled to ints
    (numerics.scaled_ints), where equality and order are those of the
    rationals, and only the distinct vertices are unscaled.
    """
    mode = same_mode(mu.mode, nu.mode)
    n, m = mu.n, nu.n
    if n * m > VERTEX_CELL_LIMIT:
        raise SizeLimit(
            f"vertex enumeration caps at {VERTEX_CELL_LIMIT} cells, got {n * m}"
        )
    (mu_w, nu_w), D = scaled_ints(mu.weights, nu.weights)
    cells = [(i, j) for i in range(n) for j in range(m)]
    target = min(n + m - 1, len(cells))
    seen = set()
    for edges in itertools.combinations(cells, target):
        matrix = _forest_flows(n, m, edges, mu_w, nu_w)
        if matrix is not None:
            seen.add(matrix)
    return tuple(Coupling(unscaled_rows(matrix, D), mode) for matrix in sorted(seen))


def _northwest_corner(mu, nu, row_order, col_order):
    """Northwest-corner matrix along the given orders, and the cells it visits.

    Each step fills one cell and moves past its row when that row is
    spent, else past its column, so the n + m - 1 visited cells, zero ones
    included, form a spanning tree of the transport graph: a basis of the
    transportation problem.  The matrix is a tuple of rows in the weights'
    own arithmetic; on scaled ints it is the corner coupling times the
    scale, not a coupling of the measures.
    """
    n, m = len(mu), len(nu)
    zero = mu[0] - mu[0]
    remaining_mu = list(mu)
    remaining_nu = list(nu)
    matrix = [[zero] * m for _ in range(n)]
    visited = []
    ri = ci = 0
    while ri < n and ci < m:
        i, j = row_order[ri], col_order[ci]
        amount = min(remaining_mu[i], remaining_nu[j])
        matrix[i][j] += amount
        remaining_mu[i] -= amount
        remaining_nu[j] -= amount
        visited.append((i, j))
        if remaining_mu[i] == 0:
            ri += 1
        else:
            ci += 1
    return tuple(tuple(r) for r in matrix), visited


def _mixture_lattice(mu_w, nu_w, D, resolution: int) -> tuple:
    """enumerate_couplings' lattice as (sorted matrices, unit), not unscaled.

    mu_w and nu_w are the weights as numerics.scaled_ints scales them
    over D (the floats and None in float mode).  The product anchor is
    over D * D, a corner anchor over D is brought to D * D, and the blend
    k * a + (resolution - k) * b of two anchors is over
    D * D * resolution, as are the anchors times resolution, which is the
    unit returned.  Scaling by a positive constant keeps equality and
    order, so the matrices are deduplicated and sorted as int tuples.
    Float mode blends with weights k / resolution and returns unit None.
    """
    n, m = len(mu_w), len(nu_w)

    def times(matrix, c):
        return tuple(tuple(x * c for x in row) for row in matrix)

    anchors = [tuple(tuple(a * b for b in nu_w) for a in mu_w)]
    orders = [
        (range(n), range(m)),
        (range(n), reversed(range(m))),
        (reversed(range(n)), range(m)),
        (reversed(range(n)), reversed(range(m))),
    ]
    for ro, co in orders:
        corner, _ = _northwest_corner(mu_w, nu_w, list(ro), list(co))
        anchors.append(corner if D is None else times(corner, D))
    out = dict.fromkeys(
        anchors if D is None else (times(a, resolution) for a in anchors)
    )
    for a, b in itertools.combinations(anchors, 2):
        for k in range(1, resolution):
            if D is None:
                lam, rest = k / resolution, 1 - k / resolution
            else:
                lam, rest = k, resolution - k
            matrix = tuple(
                tuple(lam * x + rest * y for x, y in zip(row_a, row_b))
                for row_a, row_b in zip(a, b)
            )
            out.setdefault(matrix)
    return sorted(out), None if D is None else D * D * resolution


def enumerate_couplings(
    mu: DiscreteMeasure, nu: DiscreteMeasure, resolution: int = 4
) -> tuple:
    """A finite, deterministic mixture lattice in the coupling polytope.

    The anchors are the product coupling and the corner couplings of the
    four monotone orders.  Each unordered pair of anchors is blended with
    weights k/resolution for 0 < k < resolution, so the lattice holds the
    anchors and these blends.  Every emitted matrix satisfies the
    marginals exactly, in both modes, since the polytope is convex.
    Exact mode builds the lattice on the weights scaled to ints
    (_mixture_lattice) and unscales each entry once.
    """
    mode = same_mode(mu.mode, nu.mode)
    if resolution < 1:
        raise GdsError("grid resolution must be at least 1")
    (mu_w, nu_w), D = scaled_ints(mu.weights, nu.weights)
    lattice, unit = _mixture_lattice(mu_w, nu_w, D, resolution)
    return tuple(Coupling(unscaled_rows(matrix, unit), mode) for matrix in lattice)
