"""Bipartite transportation max-flow with exact capacities.

Specialised to the one shape the package needs: source -> left vertices with
the mu weights, left -> right across an allowed cell set with unbounded
capacity, right -> sink with the nu weights.  The maximum flow is then the
largest mass a coupling of (mu, nu) can place on the allowed cells.

The kernel is Edmonds-Karp (Edmonds & Karp, J. ACM 1972) with the
residual graph held as int bitsets: an allowed cell edge never
saturates, so a row's forward edges are its row of the cell mask, and a
column's open reverse edges are the mask of the rows that ship to it.
Its search meets vertices in the order of the capacity-dict search it
replaced and stops at the sink, so it takes the same augmenting paths
with the same additions and subtractions, and returns the same value
and plan in int, rational or float arithmetic (max_flow_on_cells says
why).  Edmonds-Karp is exact for integer (and correct for float)
capacities and its augmentation count is bounded by the edge structure,
not the capacity values, so termination never depends on the
arithmetic.  For the same reason, scaling every capacity by one
positive D leaves each search, bottleneck and augmenting path as it
was.  Every solver reaches the kernel through Transport, which scales
the weights once with numerics.scaled_ints and memoises each cell
mask's flow as that int, so the sweeps compare flows as ints.
Transport.completion fills a witness plan out to a coupling on the same
ints and certifies the int matrix (certify_coupling); the caller
converts back only what it returns, the matrix through
Coupling.certified.  Float weights pass through unscaled.  Transport's is the only
memo of flow values in the package.

Each solve starts from a greedy flow: row by row, each allowed cell by
increasing j ships the smaller of what is left of mu[i] and of nu[j].
That start is exactly the first phase of Edmonds-Karp from the empty
flow.  With no flow yet, the search meets every row with mass by
increasing i before any longer path, and a column an earlier row met
without a hit has no capacity left, so the first hit is the lowest row
with a direct path, at its lowest such j, and takes the same minimum
with the same tie.  Augmenting never raises a remainder, so once no
direct path is left none comes back.  The greedy start makes the same
additions in the same order, in int, rational and float arithmetic, and
skips the searches that would find them one by one.

A cell set is an int bitmask in every solver, cell (i, j) at bit
i * m + j.  bits lists a mask's cells, lowest first, where a solver
reads them once per solve (the common-cap LP's rows, witness cells, a
set's radius); the kernels walk their masks inline.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InfeasibleMarginals
from .numerics import FLOAT_TOL, scaled_ints


def bits(mask: int) -> list:
    """The set bits of mask, lowest first: the cells of a cell mask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def max_flow_on_cells(mu: Sequence, nu: Sequence, allowed: int) -> tuple:
    """Max coupling mass on a cell bitmask, plus a realising partial plan.

    `allowed` is a bitmask over cells (i, j) -> bit i*m + j.  Returns
    (value, plan) where plan[i][j] is the transported mass, supported on
    allowed cells, with row sums <= mu and column sums <= nu.  The
    augmentations begin from the greedy start the module docstring
    describes, which is their own first phase.

    Edmonds-Karp with the residual graph held as bitsets.  A cell edge
    (i, j) is always open forward, so row i's forward edges are its row
    of `allowed`; its reverse edge is open while plan[i][j] > 0, and
    column j keeps the mask of those rows.  The source and sink edges
    are the remainders rest_mu and rest_nu.

    The result is the one an adjacency-list Edmonds-Karp returns when a
    row lists its columns by increasing j and a column lists the sink
    first, then its rows by increasing i (the capacity-dict kernel kept
    as an oracle in tests/test_flows.py).  The search meets vertices in
    that search's first-in first-out order: the source opens its rows
    with rest_mu > 0 by increasing i, a row its unseen columns by
    increasing j, a column its unseen rows with positive flow by
    increasing i.  Columns leave the queue in the order they enter it,
    so the first column met with rest_nu > 0 is the one whose sink edge
    that search takes; the path is fixed then, and the search stops.
    The bottleneck is read from the sink back, keeping the first
    smallest residual, and each remainder and plan entry takes the same
    += b or -= b, so value and plan are the same numbers of the same
    types in int, rational and float arithmetic.  That search gives a
    cell edge the capacity sum(mu) + sum(nu), and its residual never
    falls below rest_mu of the path's first row plus rest_nu of its last
    column, so a cell edge is never the bottleneck and needs no
    residual here.
    """
    n, m = len(mu), len(nu)
    zero = mu[0] - mu[0]
    full = (1 << m) - 1
    row_cols = [allowed >> (i * m) & full for i in range(n)]
    plan = [[zero] * m for _ in range(n)]
    rest_mu, rest_nu = list(mu), list(nu)
    col_rows = [0] * m
    flow_value = zero
    # The greedy start.  Each step subtracts an amount from two
    # remainders that are each at least as large, so none goes below
    # zero, in float arithmetic too.
    for i in range(n):
        cells, left, row = row_cols[i], rest_mu[i], plan[i]
        while cells and left:
            low = cells & -cells
            cells ^= low
            j = low.bit_length() - 1
            if rest_nu[j]:
                x = left if left < rest_nu[j] else rest_nu[j]
                left -= x
                rest_nu[j] -= x
                row[j] += x
                flow_value += x
                if x > 0:
                    col_rows[j] |= 1 << i
        rest_mu[i] = left
    sinks = 0
    for j in range(m):
        if rest_nu[j] > 0:
            sinks |= 1 << j
    row_parent = [-1] * n
    col_parent = [0] * m

    # col_parent[j] is the row that met column j; row_parent[i] the
    # column that met row i, or -1 for the source.
    while sinks:
        # One level of rows, then the columns they meet, then the rows
        # those columns meet: first-in first-out order, level by level.
        rows = [i for i in range(n) if rest_mu[i] > 0]
        seen_rows = 0
        for i in rows:
            seen_rows |= 1 << i
            row_parent[i] = -1
        seen_cols = 0
        end = -1
        while rows and end < 0:
            cols = []
            for i in rows:
                new = row_cols[i] & ~seen_cols
                if not new:
                    continue
                hit = new & sinks
                if hit:  # the first column met that still takes mass
                    end = (hit & -hit).bit_length() - 1
                    col_parent[end] = i
                    break
                seen_cols |= new
                while new:
                    low = new & -new
                    j = low.bit_length() - 1
                    col_parent[j] = i
                    cols.append(j)
                    new ^= low
            else:  # no sink at this level: the columns meet the next rows
                rows = []
                for j in cols:
                    new = col_rows[j] & ~seen_rows
                    seen_rows |= new
                    while new:
                        low = new & -new
                        i = low.bit_length() - 1
                        row_parent[i] = j
                        rows.append(i)
                        new ^= low
        if end < 0:
            break
        bottleneck = rest_nu[end]
        j = end
        while True:
            i = col_parent[j]
            back = row_parent[i]
            if back < 0:
                break
            c = plan[i][back]
            if c < bottleneck:
                bottleneck = c
            j = back
        if rest_mu[i] < bottleneck:
            bottleneck = rest_mu[i]
        rest_nu[end] -= bottleneck
        if not rest_nu[end] > 0:
            sinks &= ~(1 << end)
        j = end
        while True:
            i = col_parent[j]
            plan[i][j] += bottleneck
            col_rows[j] |= 1 << i
            back = row_parent[i]
            if back < 0:
                break
            plan[i][back] -= bottleneck
            if not plan[i][back] > 0:
                col_rows[back] &= ~(1 << i)
            j = back
        rest_mu[i] -= bottleneck
        flow_value = flow_value + bottleneck
    return flow_value, plan


def certify_coupling(rows, mu, nu, factor, tol) -> None:
    """Raise AssertionError unless rows is a coupling of (mu, nu) times factor.

    Every entry must be at least -tol, row i must sum to mu[i] * factor
    and column j to nu[j] * factor, each within tol.  On scaled ints, with
    tol 0, this certifies a witness exactly and adds no rational.
    """
    if (
        any(x < -tol for row in rows for x in row)
        or any(abs(sum(row) - w * factor) > tol for row, w in zip(rows, mu))
        or any(abs(sum(col) - w * factor) > tol for col, w in zip(zip(*rows), nu))
    ):
        raise AssertionError("witness coupling breaks its marginals")


class Transport:
    """The largest mass a coupling of (mu, nu) puts on a cell mask.

    The weights are scaled to ints once, here: `weights` holds the two
    scaled vectors and `scale` their D (the raw floats and None in float
    mode).  This is the one memo of flow values: scaled_value(mask), the
    max-flow on the mask as an int over D, is memoised, since the
    threshold sweeps revisit masks across levels and compare flows as
    these ints.  completion(mask), the one witness method, solves the mask
    again for its plan and completes it into a full coupling on the same
    ints, certified there, which only witnesses need; the caller unscales
    what it returns.  Each solver builds one Transport for its instance
    and reads both its sweep and its witness from it.  Float mode
    computes and returns floats throughout.
    """

    def __init__(self, mu: Sequence, nu: Sequence):
        self.weights, self.scale = scaled_ints(mu, nu)
        self._flows: dict = {}

    def scaled_value(self, mask: int):
        hit = self._flows.get(mask)
        if hit is None:
            hit, _ = max_flow_on_cells(*self.weights, mask)
            self._flows[mask] = hit
        return hit

    def completion(self, mask: int) -> tuple:
        """(flow, rows, unit): a max-flow and a coupling attaining it.

        When mu and nu carry one total, the row and column masses a_i and
        b_j the max-flow plan p leaves both sum to one leftover L, so adding
        a_i * b_j / L to each cell completes p to a coupling (that mass
        cannot land on the mask: it would beat the maximum).  Exact mode
        completes on ints: each entry is p * L + a_i * b_j, over
        unit = D * L (L read as 1 when p is full), and the int matrix is
        certified with certify_coupling, its rows summing to mu * L and
        its columns to nu * L.  flow is the plan's value over D.  Float
        mode adds a_i * b_j / L to p in place, certifies within
        FLOAT_TOL, and returns unit None; a leftover at or below
        FLOAT_TOL is rounding, not mass, and is left where it is, unless
        a column's residual is above FLOAT_TOL (the totals may differ by
        up to FLOAT_TOL): spreading it then fills that column and moves
        each row sum by at most the difference of the totals.  Weights
        whose totals differ (by more than FLOAT_TOL in float mode) have
        no coupling and raise InfeasibleMarginals, as feasibility_lp
        does.  Two float measures may each be FLOAT_TOL off 1, so a pair
        of valid measures can be declined here, where its completion
        could break a marginal by more than FLOAT_TOL.  Every matrix
        returned is certified.
        """
        mu, nu = self.weights
        if abs(sum(mu) - sum(nu)) > (FLOAT_TOL if self.scale is None else 0):
            raise InfeasibleMarginals("marginals carry different total mass")
        flow, plan = max_flow_on_cells(mu, nu, mask)
        a = [w - sum(row) for w, row in zip(mu, plan)]
        b = [w - sum(col) for w, col in zip(nu, zip(*plan))]
        leftover = sum(a)
        if self.scale is None:
            spread = leftover > 0 and max(leftover, *b) > FLOAT_TOL
            rows = [
                [
                    p + a_i * b_j / leftover if spread and a_i and b_j else p
                    for b_j, p in zip(b, row)
                ]
                for a_i, row in zip(a, plan)
            ]
            unit, factor, tol = None, 1, FLOAT_TOL
        else:
            factor = leftover or 1
            rows = [
                [p * factor + a_i * b_j for b_j, p in zip(b, row)]
                for a_i, row in zip(a, plan)
            ]
            unit, tol = self.scale * factor, 0
        certify_coupling(rows, mu, nu, factor, tol)
        return flow, rows, unit
