"""Observable distance between geometric data sets.

The distance is a minimax: over all couplings of the two measures, the
Hausdorff distance (in the coupling's Ky Fan metric) between the two
feature families lifted to the product.  The exact solver exploits that
the minimum is attained and that, once a Hausdorff bound is encoded by a
pair of total assignments between the families, the remaining optimisation
over couplings is a linear program.

All candidate optima live on a finite grid: the Ky Fan exceedance sets can
only change at the absolute differences |f(x) - g(y)|, so the search walks
the half-open intervals between those values, keeping every comparison
exact in rational mode.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .core import GeometricDataSet, lip_violation
from .coupling import (
    Coupling,
    enumerate_couplings,
    feasibility_lp,
    product_coupling,
)
from .errors import BudgetExceeded, GdsError, ModeMismatch, WitnessNotLipschitz
from .flows import Transport
from .metrics import (
    ASSIGNMENT_BUDGET,
    CellSet,
    GapTable,
    _ky_fan_from_pairs,
    crossing,
    first_feasible,
    hausdorff,
    ky_fan_coupling,
)
from .numerics import Scalar, same_mode, scaled_ceil, to_scalar, tolerance, unscaled


@dataclass(frozen=True)
class DconcResult:
    """Observable distance value with the witnesses that certify it."""

    value: Scalar
    coupling: Coupling
    to_right: tuple  # assignment F_X index -> F_Y index
    to_left: tuple  # assignment F_Y index -> F_X index


def dconc_at_coupling(X: GeometricDataSet, Y: GeometricDataSet, pi) -> Scalar:
    """Hausdorff distance of the lifted families under one fixed coupling.

    An upper bound for the observable distance at any coupling, exact at
    an optimal one.
    """
    same_mode(X.mode, Y.mode)
    return hausdorff(
        X.features.rows,
        Y.features.rows,
        lambda f, g: ky_fan_coupling(pi, f, g),
    )


def feature_transfer(X: GeometricDataSet, Y: GeometricDataSet, pi) -> tuple:
    """Best Ky Fan partner in F_Y for each feature of F_X, lowest index wins.

    Every transferred pair satisfies ky_fan <= dconc_at_coupling(X, Y, pi),
    since the Hausdorff value dominates each row's best match.
    """
    out = []
    for f in X.features.rows:
        best_j, best_v = 0, None
        for j, g in enumerate(Y.features.rows):
            v = ky_fan_coupling(pi, f, g)
            if best_v is None or v < best_v:
                best_j, best_v = j, v
        out.append(best_j)
    return tuple(out)


def _unit_levels(gaps, mode: str, scale) -> list:
    """Ky Fan threshold grid: 0, 1 and every gap strictly between them.

    The gaps, and so the levels, are scaled by `scale`, a GapTable's
    (None in float mode, where 0 and 1 are the mode's floats).
    """
    one = to_scalar(1, mode) if scale is None else scale
    return sorted({one - one, one} | {d for d in gaps if 0 < d < one})


def _bits(mask: int) -> list:
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


class _DconcSearch:
    """Exact-search state: the gap table, its level grid, memoised LPs.

    Cell sets are bitmasks over the flat n x m grid.  exceed(idx)[f][g] is
    where |f - g| exceeds level idx: the set whose mass a Ky Fan bound caps.
    grid holds the levels scaled as the gap table's, and exceed reads
    them; level(idx) unscales one only where it meets a cap or is
    returned, as a rational (a float in float mode).  The instance has
    one Transport, `transport`: it memoises the flows behind the
    single-set floors and gives the single-set caps their witness
    couplings.  The LP caps of set families are memoised here.
    product_bound, the search's upper bound, runs on the table's scaled
    gaps and the Transport's scaled weights.
    """

    def __init__(self, X: GeometricDataSet, Y: GeometricDataSet):
        self.X, self.Y = X, Y
        self.table = GapTable(X.features.rows, Y.features.rows)
        self.transport = Transport(X.measure.weights, Y.measure.weights)
        self.kx, self.ky = X.k, Y.k
        self.grid = _unit_levels(self.table.gaps(), X.mode, self.table.scale)
        self._lp_cache: dict = {}

    def level(self, level_idx: int) -> Scalar:
        return unscaled(self.grid[level_idx], self.table.scale)

    def exceed(self, level_idx: int) -> list:
        """exceed[f][g]: cells where |f - g| is above the level."""
        h, table = self.grid[level_idx], self.table
        return [
            [table.full ^ table.allowed(f, g, h) for g in range(self.ky)]
            for f in range(self.kx)
        ]

    def product_bound(self) -> Scalar:
        """dconc_at_coupling at the product coupling, on the scaled ints.

        A gap is d over the table's scale S and a product cell weighs
        a_i * b_j over D * D, with a, b and D the Transport's scaled
        weights.  So the pairs (a_i * b_j * S, d * D * D) share the unit
        1 / (S * D * D), which keeps every comparison of the Ky Fan scans
        and of the Hausdorff max/min, and the result is unscaled once.
        Float mode has no scale and pairs the very floats that
        dconc_at_coupling does.
        """
        table = self.table
        (a, b), D = self.transport.weights, self.transport.scale
        weights = [x * y for x in a for y in b]
        gap_unit = scale = None
        if D is not None:
            gap_unit = D * D
            scale = table.scale * gap_unit
            weights = [w * table.scale for w in weights]

        def ky_fan(f, g):
            gaps = table.diff[f][g]
            if gap_unit is not None:
                gaps = [d * gap_unit for d in gaps]
            return _ky_fan_from_pairs(list(zip(weights, gaps)))

        return unscaled(hausdorff(range(self.kx), range(self.ky), ky_fan), scale)

    def joint_min_cap(self, sets: frozenset) -> tuple:
        """min over couplings of max mass over several cell sets, via LP."""
        hit = self._lp_cache.get(sets)
        if hit is None:
            mu, nu = self.X.measure, self.Y.measure
            # The constraint order fixes the simplex pivots, hence the
            # witness: sets go by their ascending cell lists.
            live = sorted((s for s in sets if s), key=_bits)
            if not live:
                hit = (0, product_coupling(mu, nu))
            elif len(live) == 1:
                value, matrix = self.transport.coupling(self.table.full ^ live[0])
                hit = (1 - value, Coupling(matrix, mu.mode))
            else:
                cells = tuple(CellSet.from_mask(mu.n, nu.n, s) for s in live)
                pi, t = feasibility_lp(mu, nu, cells)
                hit = (t, pi)
            self._lp_cache[sets] = hit
        return hit

    def pair_sets(self, u: Sequence[int], v: Sequence[int], level_idx: int):
        ex = self.exceed(level_idx)
        return frozenset(ex[f][g] for f, g in enumerate(u)) | frozenset(
            ex[f][g] for g, f in enumerate(v)
        )

    def scan_level(self, level_idx: int, stop_at_first: bool):
        """Best assignment pair at one level of the threshold grid.

        Returns (cap, coupling, u, v)  for the least achievable common cap
        among assignment pairs, or None if no pair beats the next level
        (i.e. the interval [level, next) contains no feasible epsilon).
        With stop_at_first, any single feasible pair suffices.

        The floors are ints over S * D, S the gap table's scale and D its
        Transport's: (D - flow) * S.  A rational bound meets them through
        scaled_ceil, once: the cutoff per scan, and the best cap each
        time it improves.  Float mode compares its floats as they are.
        """
        level = self.level(level_idx)
        is_last = level_idx + 1 == len(self.grid)
        cutoff = 2 if is_last else self.level(level_idx + 1)  # masses are <= 1
        ex = self.exceed(level_idx)
        # floor[f][g], the least mass any coupling puts on ex[f][g], is a
        # lower bound on the cap of every pair that picks (f, g).  Partners
        # whose floor reaches the cutoff are pruned, and a feature with no
        # partner ends the scan before the next feature's flows are solved.
        table = self.table
        flow, full, D = self.transport.scaled_value, table.full, self.transport.scale
        s, d = table.scale or 1, D or 1
        unit = None if D is None else table.scale * D
        floor_cut = scaled_ceil(cutoff, unit)
        floor, gs_for_f = [], []
        for row in ex:
            floor.append([(d - flow(full ^ cells)) * s for cells in row])
            gs_for_f.append([g for g, x in enumerate(floor[-1]) if x < floor_cut])
            if not gs_for_f[-1]:
                return None
        fs_for_g = [
            [f for f in range(self.kx) if floor[f][g] < floor_cut]
            for g in range(self.ky)
        ]
        if not all(fs_for_g):
            return None
        # A pair must beat the bar: the cutoff until a pair is found, then
        # the best cap so far.  bar_cut is the bar against the floors.
        best, bar, bar_cut = None, cutoff, floor_cut
        for u in itertools.product(*gs_for_f):
            u_sets = frozenset(ex[f][g] for f, g in enumerate(u))
            u_floor = max(floor[f][g] for f, g in enumerate(u))
            if u_floor >= bar_cut:
                continue
            for v in itertools.product(*fs_for_g):
                sets = u_sets | frozenset(ex[f][g] for g, f in enumerate(v))
                pair_floor = max(u_floor, *(floor[f][g] for g, f in enumerate(v)))
                if pair_floor >= bar_cut:
                    continue
                cap, pi = self.joint_min_cap(sets)
                if cap >= bar:
                    continue
                best, bar, bar_cut = (cap, pi, u, v), cap, scaled_ceil(cap, unit)
                if stop_at_first or cap <= level:
                    return best
        return best


def _forced_coupling_result(X, Y) -> DconcResult:
    pi = product_coupling(X.measure, Y.measure)
    value = dconc_at_coupling(X, Y, pi)
    u = feature_transfer(X, Y, pi)
    v = feature_transfer(Y, X, Coupling(tuple(zip(*pi.matrix)), pi.mode))
    return DconcResult(value, pi, u, v)


def dconc_exact(
    X: GeometricDataSet,
    Y: GeometricDataSet,
    assignment_budget: int = ASSIGNMENT_BUDGET,
) -> DconcResult:
    """Observable distance, exact, with witness coupling and assignments.

    When either space is a single point the coupling is forced and the
    value is read off directly; the family sizes do not matter there.
    Otherwise the search bisects the threshold grid for the first interval
    containing a feasible bound, then minimises the joint LP cap over all
    surviving assignment pairs inside it.  The reported minimum is attained
    by the returned witnesses.
    """
    mode = same_mode(X.mode, Y.mode)
    if X.n == 1 or Y.n == 1:
        return _forced_coupling_result(X, Y)
    pairs = X.k ** Y.k * Y.k ** X.k
    if pairs > assignment_budget:
        raise BudgetExceeded(
            f"{pairs} assignment pairs exceed the budget {assignment_budget}"
        )
    search = _DconcSearch(X, Y)

    # A certified upper bound narrows the bisection range: the interval
    # holding the optimum can never lie above the one holding the bound.
    # A float bound can round to just below the level it sits on, which
    # would cut that level off, so it gets the float tolerance.
    # The bisection asks only whether a level's interval holds a feasible
    # eps, which the first assignment pair under the cutoff settles;
    # metrics.crossing would need the least cap of every level it probes,
    # a full scan of the assignment pairs each, and so more LPs.
    ub = search.product_bound()
    tol = tolerance(mode)
    hi = bisect_right(range(len(search.grid)), ub + tol, key=search.level) - 1
    lo = first_feasible(
        lambda i: search.scan_level(i, stop_at_first=True) is not None, hi
    )
    best = search.scan_level(lo, stop_at_first=False)
    if best is None:
        raise AssertionError("bisection landed on an infeasible level")
    cap, pi, u, v = best
    level = search.level(lo)
    value = cap if cap > level else level
    return DconcResult(value, pi, u, v)


def dconc_heuristic(
    X: GeometricDataSet,
    Y: GeometricDataSet,
    budget: int = 12,
    seed: int = 0,
) -> tuple[Scalar, Coupling]:
    """Alternating descent on (coupling, assignments); certified upper bound.

    From several anchor couplings: read off the best assignments under the
    current coupling, re-optimise the coupling for those assignments by the
    single-pair exact search, and repeat while the bound improves.  The
    reported value is dconc_at_coupling at the best coupling seen, so it is
    monotone across iterations and never below the exact distance.
    """
    same_mode(X.mode, Y.mode)
    if X.n == 1 or Y.n == 1:
        res = _forced_coupling_result(X, Y)
        return res.value, res.coupling
    search = _DconcSearch(X, Y)
    rng = random.Random(seed)

    anchors = list(enumerate_couplings(X.measure, Y.measure, 2))
    rng.shuffle(anchors)
    anchors = [product_coupling(X.measure, Y.measure)] + anchors[: max(1, budget // 2)]

    def pair_value(u, v):
        """Exact optimum over couplings for one fixed assignment pair."""
        return crossing(
            len(search.grid),
            search.level,
            lambda i: search.joint_min_cap(search.pair_sets(u, v, i)),
            1,
        )

    best_val, best_pi = None, None
    for pi in anchors:
        current = pi
        seen = set()
        for _ in range(max(1, budget)):
            val = dconc_at_coupling(X, Y, current)
            if best_val is None or val < best_val:
                best_val, best_pi = val, current
            u = feature_transfer(X, Y, current)
            v = feature_transfer(
                Y, X, Coupling(tuple(zip(*current.matrix)), current.mode)
            )
            if (u, v) in seen:
                break
            seen.add((u, v))
            cand_val, cand_pi = pair_value(u, v)
            if cand_val >= val:
                break
            current = cand_pi
    return best_val, best_pi


def dconc_lower_witness(
    X: GeometricDataSet, Y: GeometricDataSet, witness: Sequence
) -> Scalar:
    """Certified lower bound from a single 1-Lipschitz witness function.

    Any coupling must match the witness against some feature of Y, so
    min over g of (min over couplings of ky_fan(witness o pr1, g o pr2))
    bounds the observable distance from below whenever the witness belongs
    to the closed family of X; 1-Lipschitz for the induced metric is how
    that membership is checked here.  Each g's crossing search compares
    ints over S * D, S the gap table's scale and D the Transport's, and
    the least minimum is unscaled once.  A witness that holds a float
    while the weights are exact cannot share their ints, and raises
    ModeMismatch.
    """
    mode = same_mode(X.mode, Y.mode)
    if len(witness) != X.n:
        raise GdsError("witness length disagrees with the space")
    bad = lip_violation(witness, X.dist, tolerance(mode), ordered=True)
    if bad:
        raise WitnessNotLipschitz(
            f"witness violates 1-Lipschitz between points {bad[0]} and {bad[1]}"
        )
    table = GapTable([witness], Y.features.rows)
    transport = Transport(X.measure.weights, Y.measure.weights)
    S, D = table.scale, transport.scale
    if (S is None) != (D is None):
        raise ModeMismatch("the witness mixes float and exact numbers")
    s, d = S or 1, D or 1
    best = None
    for g in range(Y.k):
        grid = _unit_levels(table.diff[0][g], mode, S)
        flow = lambda i: transport.scaled_value(table.allowed(0, g, grid[i]))
        val, _ = crossing(
            len(grid),
            lambda i: grid[i] * d,
            lambda i: ((d - flow(i)) * s, None),
            d * s,
        )
        if best is None or val < best:
            best = val
    return unscaled(best, None if S is None else S * d)
