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
that the level permits.  metrics.crossing searches for that crossing,
bracketing it by the best masses it reads, and solves each level it
probes once; two sweeps feed it:

  * _feature_sweep (box_exact, box_fixed_coupling): a set has Hausdorff
    radius <= h exactly when it fits inside a rectangle-intersection
    pattern cut out by a pair of feature assignments, so the best mass at
    level h is a max over assignment pairs of one max-flow (or of one
    fixed coupling's mass);
  * _distortion_sweep (box_mm_exact, dis_coupling): a set has distortion
    <= t exactly when it is a clique in the compatibility graph at t, and
    the kept mass only grows with the set, so the best mass at level t is
    that of a heaviest maximal clique; one Bron-Kerbosch search, which
    cuts every branch the kept mass of its candidate set shows cannot win,
    serves both callers.

Exact mode runs both sweeps on ints.  The levels are scaled by S (the
gaps' or the metrics' common denominator) and the kept masses by D (the
solver's Transport's, or the fixed coupling's, from
numerics.scaled_ints), so every level, mass and crossing comparison is
an int over S * D; box_heuristic scores its cell sets on the same ints.
Each solver certifies its witness on the same ints, re-evaluating the
objective from the witness coupling's ints and the scaled gaps or
metrics, and unscales once, only the value and the witness it returns.
Float mode computes the same expressions on its floats.

The subset enumeration the sweep replaces is kept alive in the test suite
as an independent oracle.
"""

from __future__ import annotations

import functools
import itertools
import random

from .core import (
    CELL_BUDGET,
    FeatureFamily,
    GeometricDataSet,
    MmSpace,
    Record,
    lip_violation,
)
from .coupling import Coupling
from .errors import EmptyCellSet, SizeLimit, WitnessNotLipschitz
from .flows import Transport, bits
from .metrics import (
    ASSIGNMENT_BUDGET,
    CellSet,
    GapTable,
    crossing,
    hausdorff,
    sup_pseudometric,
)
from .numerics import (
    FLOAT_TOL,
    Scalar,
    close,
    same_mode,
    scaled_ints,
    to_scalar,
    unscaled,
)


class BoxResult(Record):
    """Box distance value with the witnessing coupling and cell set."""

    _fields = ("value", "coupling", "cells")

    def __init__(self, value: Scalar, coupling: Coupling, cells: CellSet):
        self.__dict__.update(value=value, coupling=coupling, cells=cells)


def check_cell_budget(n: int, m: int, cell_budget: int) -> None:
    """Raise SizeLimit when the n x m cell grid exceeds the exact budget."""
    if n * m > cell_budget:
        raise SizeLimit(f"{n * m} cells exceed the exact budget {cell_budget}")


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
    bad = lip_violation(f, dX, tol)
    if bad:
        raise WitnessNotLipschitz(
            f"function violates 1-Lipschitz between points {bad[0]} and {bad[1]}"
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
    """Sum of values[c] over the set bits c of mask, lowest bit first.

    The sum starts from the values' own zero, so the empty mask gives
    the mode's scalar.
    """
    total = values[0] - values[0]
    while mask:
        c = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        total = total + values[c]
    return total


def _heaviest_clique(count, adj, kept):
    """The maximal clique (a bitmask) of most kept mass, ties to the least.

    A pivoting Bron-Kerbosch search, bounded.  A clique is ranked by the
    key (kept mass, -mask), so the best is the first heaviest of all
    maximal cliques in ascending mask order.  Every clique C that a node
    (r, p, x) can still reach holds r and lies in r | p; kept is monotone
    under inclusion, so kept(C) <= kept(r | p) and C >= r as ints, and
    the node's key (kept(r | p), -r) bounds the keys of all of them.  A
    node whose key does not exceed the best found so far is cut.  Float
    flows are monotone only up to rounding, so where two cliques keep
    the same mass but their float flows differ in the last bit, the
    search may keep the one a full scan ranks an ulp lower.
    """
    best = (-1, 0)  # the key of the best maximal clique so far

    def bk(r, p, x):
        nonlocal best
        if not p and x:
            return
        key = (kept(r | p), -r)
        if key <= best:
            return
        if not p:
            best = key
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
    return -best[1]


def _distortion_sweep(cells, dX, dY, kept, D, mode) -> tuple:
    """Minimise max(1 - kept mass, distortion) over sets of the given cells.

    The sets of distortion <= t are the cliques of the compatibility graph
    at t, whose edges join two cells that the metrics dX and dY disagree
    on by at most t.  kept(mask) is the mass kept on a set of positions in
    cells, an int over D, monotone under inclusion, so every clique lies
    in a maximal one that keeps at least as much: each level runs one
    bounded search for the first heaviest maximal clique in mask order.
    The two metrics are scaled to ints jointly, by S, so a level t * D and
    a discarded mass (D - kept) * S are ints over S * D, and the crossing
    search's minimum is unscaled once.  Float mode (D and S None) keeps
    its floats.  The witness is certified on the same ints: its kept mass
    and its distortion, re-read from the scaled metrics, attain the
    value.  Returns (value, mask over positions in cells).
    """
    count = len(cells)
    rows, S = scaled_ints(*dX, *dY)
    sx, sy = rows[: len(dX)], rows[len(dX) :]
    gaps = [[abs(sx[a[0]][b[0]] - sy[a[1]][b[1]]) for b in cells] for a in cells]
    levels = sorted({0} | {gaps[a][b] for a in range(count) for b in range(a + 1, count)})
    s, d = S or 1, D or 1

    def best_at(i):
        adj = [0] * count
        for a in range(count):
            for b in range(count):
                if a != b and gaps[a][b] <= levels[i]:
                    adj[a] |= 1 << b
        mask = _heaviest_clique(count, adj, kept)
        return (d - kept(mask)) * s, mask

    value, mask = crossing(len(levels), lambda i: levels[i] * d, best_at, d * s)
    witness = [cells[p] for p in bits(mask)]
    a, b = (d - kept(mask)) * s, distortion(witness, sx, sy) * d
    if not close(a if a > b else b, value, mode):
        raise AssertionError("clique sweep witness disagrees with its value")
    return unscaled(value, None if S is None else S * d), mask


def dis_coupling(pi: Coupling, dX, dY) -> tuple:
    """Distortion of a coupling: best trade-off of discarded mass vs spread.

    Minimises max(1 - pi(S), distortion(S)) over cell sets.  Cells outside
    the support can be dropped from S without raising either term, so the
    clique search runs on the support only; its size is capped because the
    number of maximal cliques grows exponentially with it.  A coupling
    with no positive entry leaves the empty set only, which scores the
    mode's 1.
    """
    support = pi.support()
    if not support:
        return to_scalar(1, pi.mode), CellSet.empty(pi.n, pi.m)
    if len(support) > CELL_BUDGET:
        raise SizeLimit(
            f"{len(support)} support cells exceed the exact budget {CELL_BUDGET}"
        )
    (weights,), D = scaled_ints([pi.matrix[i][j] for i, j in support])
    value, mask = _distortion_sweep(
        support, dX, dY, functools.partial(_mask_sum, weights), D, pi.mode
    )
    return value, CellSet.from_pairs(pi.n, pi.m, [support[p] for p in bits(mask)])


def _table(X: GeometricDataSet, Y: GeometricDataSet) -> tuple:
    """Gap table of the two families and its levels: 0 and every gap.

    The levels are the table's scaled ints (floats in float mode).
    """
    table = GapTable(X.features.rows, Y.features.rows)
    return table, sorted({0} | table.gaps())


def _side_masks(table: GapTable, h) -> tuple:
    """Sets of the cell masks cut out by each total assignment at level h.

    An assignment picks one partner per feature, so its mask is built one
    feature at a time: the set of masks after a feature is every mask
    before it cut by each of that feature's options.
    """
    allowed = [
        [table.allowed(f, g, h) for g in range(table.ky)] for f in range(table.kx)
    ]
    u_masks = v_masks = {table.full}
    for options in allowed:
        u_masks = {mk & o for mk in u_masks for o in options}
    for options in zip(*allowed):
        v_masks = {mk & o for mk in v_masks for o in options}
    return u_masks, v_masks


def _radius(table: GapTable, mask: int):
    """Hausdorff distance of the families over the masked cells, scaled.

    Read from the table's scaled gaps, so it is an int over table.scale
    (a float in float mode); 0 on the empty mask.
    """
    cells = bits(mask)
    return hausdorff(
        range(table.kx),
        range(table.ky),
        lambda f, g: max([table.diff[f][g][c] for c in cells], default=0),
    )


def _certified(table: GapTable, mask: int, value, d, mass, unit, mode):
    """A box sweep's value, checked against its witness on ints, unscaled.

    value is the sweep's minimum over S * d, S the table's scale; the
    witness coupling puts mass / unit on the cells of mask.  Its
    objective max(1 - mass / unit, 2 * radius) is re-evaluated over
    S * unit from the mass and the table's scaled gaps, and compared
    with value by cross-multiplication.  In float mode S, d and unit are
    1, the comparison has the float tolerance and value is returned as
    it is.
    """
    S = table.scale
    s = S or 1
    a, b = (unit - mass) * s, 2 * _radius(table, mask) * unit
    if not close((a if a > b else b) * d, value * unit, mode):
        raise AssertionError("box sweep witness disagrees with its value")
    return unscaled(value, None if S is None else S * d)


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
    X: GeometricDataSet, Y: GeometricDataSet, assignment_budget: int, kept, D
) -> tuple:
    """Minimise max(1 - kept mass, 2 * Hausdorff radius) over cell sets.

    kept(mask) is the mass kept on a cell mask as an int over D, monotone
    under inclusion: a Transport's scaled flow (box_exact) or a fixed
    coupling's scaled mass (box_fixed_coupling); D is None in float mode.
    With S the gap table's scale, a rise 2 * level * D and a fall
    (D - kept) * S are ints over S * D (floats in float mode), so the
    crossing search compares ints only.  The assignment pairs behind each
    level are enumerated, so their count is gated first.  Returns
    (table, value over S * D, witness mask).
    """
    count = Y.k ** X.k + X.k ** Y.k
    if count > assignment_budget:
        raise SizeLimit(
            f"{count} feature assignments exceed the budget {assignment_budget}"
        )
    table, levels = _table(X, Y)
    s, d = table.scale or 1, D or 1

    def best_at(i):
        most, mask = _best_pair_mass(table, levels[i], kept)
        return (d - most) * s, mask

    value, mask = crossing(
        len(levels), lambda i: 2 * levels[i] * d, best_at, d * s
    )
    return table, value, mask


def box_fixed_coupling(
    X: GeometricDataSet,
    Y: GeometricDataSet,
    pi: Coupling,
    assignment_budget: int = ASSIGNMENT_BUDGET,
) -> tuple:
    """Best cell set for one fixed coupling: (objective value, witness S).

    The coupling's entries are scaled to ints once, by D, so the sweep
    and the certificate read its masses as ints over D.
    """
    mode = same_mode(same_mode(X.mode, Y.mode), pi.mode)
    pi.check_marginals(X.measure, Y.measure)
    (flat,), D = scaled_ints([x for row in pi.matrix for x in row])
    mass = functools.cache(functools.partial(_mask_sum, flat))
    table, value, mask = _feature_sweep(X, Y, assignment_budget, mass, D)
    d = D or 1
    value = _certified(table, mask, value, d, _mask_sum(flat, mask), d, mode)
    return value, CellSet.from_mask(X.n, Y.n, mask)


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

    The sweep compares its flows and levels as ints over S * D, S the gap
    table's scale and D the scale of the instance's one Transport.  The
    witness coupling comes from the same Transport, completed and
    certified on ints over a unit D * L; its objective is re-evaluated
    from those ints and the table's scaled gaps over the witness cells,
    and must equal the sweep's int value.  The value and each witness
    entry are unscaled once.
    """
    mode = same_mode(X.mode, Y.mode)
    check_cell_budget(X.n, Y.n, cell_budget)
    transport = Transport(X.measure.weights, Y.measure.weights)
    table, value, mask = _feature_sweep(
        X, Y, assignment_budget, transport.scaled_value, transport.scale
    )
    _, rows, unit = transport.completion(mask)
    mass = _mask_sum([x for row in rows for x in row], mask)
    d = transport.scale or 1
    return BoxResult(
        _certified(table, mask, value, d, mass, unit or 1, mode),
        Coupling.certified(rows, unit, mode),
        CellSet.from_mask(X.n, Y.n, mask),
    )


def box_mm_exact(
    MX: MmSpace, MY: MmSpace, cell_budget: int = CELL_BUDGET
) -> Scalar:
    """Box distance between metric measure spaces, distortion flavour.

    Minimises max(1 - best coupling mass on S, distortion(S)).  Cell sets
    of distortion <= t are the cliques of the compatibility graph at t and
    the mass term is monotone, so a flow solve is needed only for the
    candidate set of each node of the bounded clique search.
    The sweep compares the Transport's int flows and the scaled metrics'
    int gaps, and certifies its witness on them: 1 - flow and the
    distortion, re-read from the scaled metrics, attain the int value,
    which is unscaled once.

    It reads only each space's metric `dist` and its measure, so a
    GeometricDataSet serves as its induced mm-space, the one gds_to_mm
    builds, without that conversion's O(n**3) re-check of the metric;
    the cell budget declines before either metric is read.
    """
    mode = same_mode(MX.mode, MY.mode)
    n, m = MX.n, MY.n
    check_cell_budget(n, m, cell_budget)
    transport = Transport(MX.measure.weights, MY.measure.weights)
    cells = [(i, j) for i in range(n) for j in range(m)]
    value, _ = _distortion_sweep(
        cells, MX.dist, MY.dist, transport.scaled_value, transport.scale, mode
    )
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

    The search scores a cell set as ints over S * D, S the gap table's
    scale and D that of the instance's one Transport: it compares
    (D - flow) * S with 2 * radius * D, as box_exact's sweep does.  The
    returned value is box_objective at the best set and that
    Transport's witness coupling for it.
    """
    mode = same_mode(X.mode, Y.mode)
    table, levels = _table(X, Y)
    transport = Transport(X.measure.weights, Y.measure.weights)
    s, d = table.scale or 1, transport.scale or 1
    n, m = X.n, Y.n
    nm = n * m
    full = table.full
    pm = [a * b for a, b in itertools.product(*transport.weights)]
    weight = functools.partial(_mask_sum, pm)

    evals = {}
    spent = 0

    def objective(mask):
        # Budget counts requests, not distinct masks: small grids run out
        # of new masks long before a generous budget would otherwise stop.
        nonlocal spent
        spent += 1
        hit = evals.get(mask)
        if hit is None:
            a = (d - transport.scaled_value(mask)) * s
            b = 2 * _radius(table, mask) * d
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
    _, mask = best
    _, rows, unit = transport.completion(mask)
    cells = CellSet.from_mask(n, m, mask)
    return box_objective(Coupling.certified(rows, unit, mode), cells, X.features, Y.features)
