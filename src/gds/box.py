"""Box distance: distortion, per-pair objectives, and exact minimisation.

The objective pairs a coupling pi and a cell set S: keep 1 - pi(S) small
while the two feature families stay close in the sup distance restricted
to S (doubled), or for metric measure spaces, while S has small distortion.
For fixed S the Hausdorff (or distortion) term does not involve pi at all,
so the best coupling is a max-flow putting as much mass on S as possible.

The solvers below never enumerate all 2^(n*m) cell sets.  Both objective
terms are monotone along the threshold grid of the instance (the first
increases, the second decreases), so the minimum sits where they cross,
and each threshold level needs only the best mass among the cell sets
that the level permits.  metrics.crossing bisects for that crossing
and solves each level it probes once; two sweeps feed it:

  * _feature_sweep (box_exact, box_fixed_coupling): a set has Hausdorff
    radius <= h exactly when it fits inside a rectangle-intersection
    pattern cut out by a pair of feature assignments, so the best mass at
    level h is a max over assignment pairs of one max-flow (or of one
    fixed coupling's mass);
  * _distortion_sweep (box_mm_exact, dis_coupling): a set has distortion
    <= t exactly when it is a clique in the compatibility graph at t, and
    the kept mass only grows with the set, so the best mass at level t is
    that of a heaviest maximal clique; one Bron-Kerbosch scan of the
    maximal cliques serves both callers.

The subset enumeration the sweep replaces is kept alive in the test suite
as an independent oracle.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

from .core import FeatureFamily, GeometricDataSet, MmSpace
from .coupling import Coupling, max_mass_on_set
from .errors import EmptyCellSet, SizeLimit, WitnessNotLipschitz
from .flows import Transport
from .metrics import (
    ASSIGNMENT_BUDGET,
    CellSet,
    GapTable,
    crossing,
    hausdorff,
    sup_pseudometric,
)
from .numerics import FLOAT_TOL, Scalar, close, same_mode, scaled_ints, unscaled

CELL_BUDGET = 16


@dataclass(frozen=True)
class BoxResult:
    """Box distance value with the witnessing coupling and cell set."""

    value: Scalar
    coupling: Coupling
    cells: CellSet


def distortion(S, dX, dY) -> Scalar:
    """Worst additive disagreement of the two metrics over pairs from S.

    The metrics' zero for empty and singleton sets; self-pairs never
    contribute.
    """
    best = dX[0][0] - dX[0][0]  # the mode's zero
    cells = list(S)
    for a in range(len(cells)):
        x1, y1 = cells[a]
        for b in range(a + 1, len(cells)):
            x2, y2 = cells[b]
            gap = abs(dX[x1][x2] - dY[y1][y2])
            if gap > best:
                best = gap
    return best


def lip1_witness(S, f, dX, dY) -> tuple:
    """Transport a 1-Lipschitz function across a cell set.

    The returned g is 1-Lipschitz for dY (a minimum of cone functions) and
    stays within distortion(S)/2 of f on every cell of S, which is the
    tight general bound.
    """
    cells = list(S)
    if not cells:
        raise EmptyCellSet("cannot transport a function across no cells")
    tol = FLOAT_TOL if any(isinstance(v, float) for v in f) else 0
    n = len(dX)
    for x in range(n):
        for y in range(n):
            if abs(f[x] - f[y]) > dX[x][y] + tol:
                raise WitnessNotLipschitz(
                    f"function violates 1-Lipschitz between points {x} and {y}"
                )
    dis = distortion(S, dX, dY)
    half = dis / 2 if dis else 0
    m = len(dY)
    return tuple(
        half + min(f[x] + dY[z][y] for x, z in cells) for y in range(m)
    )


def box_objective(pi: Coupling, S: CellSet, FX: FeatureFamily, FY: FeatureFamily) -> Scalar:
    """max(1 - pi(S), 2 * Hausdorff over S); the empty set scores 1."""
    h = hausdorff(FX.rows, FY.rows, lambda f, g: sup_pseudometric(f, g, S))
    a = 1 - pi.mass(S)
    b = 2 * h
    return a if a > b else b


def _mask_sum(values, mask):
    """Sum of values[c] over the set bits c of mask, lowest bit first."""
    total = 0
    while mask:
        c = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        total = total + values[c]
    return total


def _maximal_cliques(count, adj):
    """All maximal cliques as bitmasks (pivoting Bron-Kerbosch)."""
    out = []

    def bk(r, p, x):
        if not p and not x:
            out.append(r)
            return
        px = p | x
        pivot, fan = -1, -1
        t = px
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            c = bin(p & adj[v]).count("1")
            if c > fan:
                pivot, fan = v, c
        ext = p & ~adj[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            bk(r | (1 << v), p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bk(0, (1 << count) - 1, 0)
    return out


def _distortion_sweep(cells, dX, dY, kept) -> tuple:
    """Minimise max(1 - kept mass, distortion) over sets of the given cells.

    The sets of distortion <= t are the cliques of the compatibility graph
    at t, whose edges join two cells that the metrics dX and dY disagree
    on by at most t.  kept(mask) is the mass kept on a set of positions in
    cells, monotone under inclusion, so every clique lies in a maximal one
    that keeps at least as much: each level scans the maximal cliques once
    and keeps the first heaviest in sorted order.  The two metrics are
    scaled to ints jointly, so the gaps and levels compare as ints and a
    level is unscaled only where the crossing search probes it.  Returns
    (value, mask over positions in cells).
    """
    count = len(cells)
    rows, scale = scaled_ints(*dX, *dY)
    sx, sy = rows[: len(dX)], rows[len(dX) :]
    gaps = [[abs(sx[a[0]][b[0]] - sy[a[1]][b[1]]) for b in cells] for a in cells]
    levels = sorted({0} | {gaps[a][b] for a in range(count) for b in range(a + 1, count)})

    def best_at(i):
        adj = [0] * count
        for a in range(count):
            for b in range(count):
                if a != b and gaps[a][b] <= levels[i]:
                    adj[a] |= 1 << b
        mask = max(sorted(_maximal_cliques(count, adj)), key=kept)
        return 1 - kept(mask), mask

    return crossing(len(levels), lambda i: unscaled(levels[i], scale), best_at)


def dis_coupling(pi: Coupling, dX, dY) -> tuple:
    """Distortion of a coupling: best trade-off of discarded mass vs spread.

    Minimises max(1 - pi(S), distortion(S)) over cell sets.  Cells outside
    the support can be dropped from S without raising either term, so the
    clique scan runs on the support only; its size is capped because the
    number of maximal cliques grows exponentially with it.
    """
    support = pi.support()
    if len(support) > CELL_BUDGET:
        raise SizeLimit(
            f"{len(support)} support cells exceed the exact budget {CELL_BUDGET}"
        )
    weights = [pi.matrix[i][j] for i, j in support]
    value, mask = _distortion_sweep(
        support, dX, dY, functools.partial(_mask_sum, weights)
    )
    cells = CellSet.from_pairs(
        pi.n, pi.m, [cell for p, cell in enumerate(support) if mask >> p & 1]
    )
    got = max(1 - pi.mass(cells), distortion(cells, dX, dY))
    if not close(got, value, pi.mode):
        raise AssertionError("distortion sweep witness disagrees with its value")
    return value, cells


def _table(X: GeometricDataSet, Y: GeometricDataSet) -> tuple:
    """Gap table of the two families and its levels: 0 and every gap.

    The levels are the table's scaled ints (floats in float mode).
    """
    table = GapTable(
        X.features.rows, Y.features.rows, X.measure.weights, Y.measure.weights
    )
    return table, sorted({0} | table.gaps())


def _side_masks(table: GapTable, h) -> tuple:
    """Sets of the cell masks cut out by each total assignment at level h."""
    allowed = [
        [table.allowed(f, g, h) for g in range(table.ky)] for f in range(table.kx)
    ]
    u_masks = set()
    for u in itertools.product(range(table.ky), repeat=table.kx):
        mask = table.full
        for f, g in enumerate(u):
            mask &= allowed[f][g]
        u_masks.add(mask)
    v_masks = set()
    for v in itertools.product(range(table.kx), repeat=table.ky):
        mask = table.full
        for g, f in enumerate(v):
            mask &= allowed[f][g]
        v_masks.add(mask)
    return u_masks, v_masks


def _best_pair_mass(table: GapTable, h, value_of) -> tuple:
    """Largest value_of(u_mask & v_mask) over assignment pairs at level h.

    value_of must be monotone under set inclusion, which makes
    min(value_of(u), value_of(v)) a sound bound for pruning.
    """
    u_masks, v_masks = _side_masks(table, h)
    us = sorted(((value_of(mk), mk) for mk in u_masks), reverse=True)
    vs = sorted(((value_of(mk), mk) for mk in v_masks), reverse=True)
    best, best_mask = None, 0
    for uval, um in us:
        if best is not None and uval <= best:
            break
        for vval, vm in vs:
            bound = uval if uval < vval else vval
            if best is not None and bound <= best:
                break
            val = value_of(um & vm)
            if best is None or val > best:
                best, best_mask = val, um & vm
    return best, best_mask


def _feature_sweep(
    X: GeometricDataSet, Y: GeometricDataSet, assignment_budget: int, kept=None
) -> tuple:
    """Minimise max(1 - kept mass, 2 * Hausdorff radius) over cell sets.

    kept(mask) is the mass kept on a cell mask, monotone under inclusion;
    by default the largest mass any coupling keeps, the flow of the
    instance's GapTable.  The assignment pairs behind each level are
    enumerated, so their count is gated first.  Returns (value, witness
    cells).
    """
    count = Y.k ** X.k + X.k ** Y.k
    if count > assignment_budget:
        raise SizeLimit(
            f"{count} feature assignments exceed the budget {assignment_budget}"
        )
    table, levels = _table(X, Y)
    value_of = kept or table.flow

    def best_at(i):
        most, mask = _best_pair_mass(table, levels[i], value_of)
        return 1 - most, mask

    value, mask = crossing(
        len(levels), lambda i: 2 * unscaled(levels[i], table.scale), best_at
    )
    return value, CellSet.from_mask(X.n, Y.n, mask)


def box_fixed_coupling(
    X: GeometricDataSet,
    Y: GeometricDataSet,
    pi: Coupling,
    assignment_budget: int = ASSIGNMENT_BUDGET,
) -> tuple:
    """Best cell set for one fixed coupling: (objective value, witness S)."""
    mode = same_mode(same_mode(X.mode, Y.mode), pi.mode)
    pi.check_marginals(X.measure, Y.measure)
    flat = [pi.matrix[i][j] for i in range(X.n) for j in range(Y.n)]
    mass = functools.cache(functools.partial(_mask_sum, flat))
    value, cells = _feature_sweep(X, Y, assignment_budget, mass)
    got = box_objective(pi, cells, X.features, Y.features)
    if not close(got, value, mode):
        raise AssertionError("fixed-coupling sweep witness disagrees with its value")
    return value, cells


def box_exact(
    X: GeometricDataSet,
    Y: GeometricDataSet,
    cell_budget: int = CELL_BUDGET,
    assignment_budget: int = ASSIGNMENT_BUDGET,
) -> BoxResult:
    """Box distance with witnesses, minimised over couplings and cell sets.

    The coupling only enters through the mass it puts on the candidate set,
    so at each threshold level the inner problem is one max-flow per
    assignment-pair mask and no coupling enumeration happens at all.
    """
    mode = same_mode(X.mode, Y.mode)
    if X.n * Y.n > cell_budget:
        raise SizeLimit(
            f"{X.n * Y.n} cells exceed the exact budget {cell_budget}"
        )
    value, cells = _feature_sweep(X, Y, assignment_budget)
    _, pi = max_mass_on_set(X.measure, Y.measure, cells)
    got = box_objective(pi, cells, X.features, Y.features)
    if not close(got, value, mode):
        raise AssertionError("box sweep witness disagrees with its value")
    return BoxResult(value, pi, cells)


def box_mm_exact(
    MX: MmSpace, MY: MmSpace, cell_budget: int = CELL_BUDGET
) -> Scalar:
    """Box distance between metric measure spaces, distortion flavour.

    Minimises max(1 - best coupling mass on S, distortion(S)).  Cell sets
    of distortion <= t are the cliques of the compatibility graph at t and
    the mass term is monotone, so only maximal cliques need a flow solve.
    """
    mode = same_mode(MX.mode, MY.mode)
    n, m = MX.n, MY.n
    count = n * m
    if count > cell_budget:
        raise SizeLimit(f"{count} cells exceed the exact budget {cell_budget}")
    flow = Transport(MX.measure.weights, MY.measure.weights).value
    cells = [(i, j) for i in range(n) for j in range(m)]
    value, mask = _distortion_sweep(cells, MX.dist, MY.dist, flow)
    witness = CellSet.from_mask(n, m, mask)
    got = max(1 - flow(mask), distortion(witness, MX.dist, MY.dist))
    if not close(got, value, mode):
        raise AssertionError("clique sweep witness disagrees with its value")
    return value


def box_heuristic(
    X: GeometricDataSet, Y: GeometricDataSet, budget: int = 400, seed: int = 0
) -> Scalar:
    """Upper bound on the box distance by local search over cell sets.

    Starts from the empty and full sets, greedy threshold patterns, and
    seeded random assignment patterns, then hill-climbs by single-cell
    toggles.  budget caps the number of distinct objective evaluations;
    the running best is non-increasing as the budget grows, and the value
    returned is a true objective at a realisable pair, hence an upper
    bound for any budget.
    """
    same_mode(X.mode, Y.mode)
    table, levels = _table(X, Y)
    n, m = X.n, Y.n
    nm = n * m
    full = table.full
    pm = [a * b for a, b in itertools.product(*table.transport.weights)]
    weight = functools.partial(_mask_sum, pm)

    def radius(mask):
        """Hausdorff distance of the families over the masked cells."""
        cells = [c for c in range(nm) if mask >> c & 1]
        scaled = hausdorff(
            range(table.kx),
            range(table.ky),
            lambda f, g: max([table.diff[f][g][c] for c in cells], default=0),
        )
        return unscaled(scaled, table.scale)

    evals = {}
    spent = 0

    def objective(mask):
        # Budget counts requests, not distinct masks: small grids run out
        # of new masks long before a generous budget would otherwise stop.
        nonlocal spent
        spent += 1
        hit = evals.get(mask)
        if hit is None:
            a = 1 - table.flow(mask)
            b = 2 * radius(mask)
            hit = a if a > b else b
            evals[mask] = hit
        return hit

    def greedy_mask(h):
        mask = full
        for f in range(table.kx):
            mask &= max(
                (table.allowed(f, g, h) for g in range(table.ky)), key=weight
            )
        for g in range(table.ky):
            mask &= max(
                (table.allowed(f, g, h) for f in range(table.kx)), key=weight
            )
        return mask

    rng = random.Random(seed)

    def starts():
        yield 0
        yield full
        count = len(levels)
        for h in levels[:: max(1, count // 12)]:
            yield greedy_mask(h)
        while True:
            mask = full
            for f in range(table.kx):
                g, h = rng.randrange(table.ky), levels[rng.randrange(count)]
                mask &= table.allowed(f, g, h)
            for g in range(table.ky):
                f, h = rng.randrange(table.kx), levels[rng.randrange(count)]
                mask &= table.allowed(f, g, h)
            yield mask

    best = None
    for start in starts():
        # At least one start is scored, so any budget returns a bound.
        if best is not None and spent >= budget:
            break
        current = start
        cur_val = objective(current)
        moved = True
        while moved and spent < budget:
            moved = False
            cand, cand_val = None, cur_val
            for c in range(nm):
                if spent >= budget:
                    break
                nb_val = objective(current ^ (1 << c))
                if nb_val < cand_val:
                    cand, cand_val = current ^ (1 << c), nb_val
            if cand is not None:
                current, cur_val = cand, cand_val
                moved = True
        if best is None or cur_val < best[0]:
            best = (cur_val, current)
    value, mask = best
    cells = CellSet.from_mask(n, m, mask)
    _, pi = max_mass_on_set(X.measure, Y.measure, cells)
    return box_objective(pi, cells, X.features, Y.features)
