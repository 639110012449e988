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
from bisect import bisect_left, bisect_right
from typing import Sequence

from .core import GeometricDataSet, Record, lip_violation
from .coupling import Coupling, _common_cap_lp, _mixture_lattice
from .errors import BudgetExceeded, GdsError, ModeMismatch, WitnessNotLipschitz
from .flows import Transport, bits
from .metrics import (
    ASSIGNMENT_BUDGET,
    GapTable,
    _ky_fan_from_pairs,
    crossing,
    hausdorff,
    ky_fan_coupling,
)
from .numerics import Scalar, same_mode, scaled_ceil, to_scalar, tolerance
from .numerics import unscaled


class DconcResult(Record):
    """Observable distance value with the witnesses that certify it.

    to_right assigns each F_X index an F_Y index, and to_left each F_Y
    index an F_X index.
    """

    _fields = ("value", "coupling", "to_right", "to_left")

    def __init__(
        self, value: Scalar, coupling: Coupling, to_right: tuple, to_left: tuple
    ):
        self.__dict__.update(
            value=value, coupling=coupling, to_right=to_right, to_left=to_left
        )


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
    rows = Y.features.rows
    return tuple(
        min(range(Y.k), key=lambda j: ky_fan_coupling(pi, f, rows[j]))
        for f in X.features.rows
    )


def _unit_levels(gaps, mode: str, scale) -> list:
    """Ky Fan threshold grid: 0, 1 and every gap strictly between them.

    The gaps, and so the levels, are scaled by `scale`, a GapTable's
    (None in float mode, where 0 and 1 are the mode's floats).
    """
    one = to_scalar(1, mode) if scale is None else scale
    return sorted({one - one, one} | {d for d in gaps if 0 < d < one})


class _DconcSearch:
    """Exact-search state: the gap table, its level grid, memoised LPs.

    Cell sets are bitmasks over the flat n x m grid.  exceed(idx)[f][g] is
    where |f - g| exceeds level idx: the set whose mass a Ky Fan bound caps.
    grid holds the levels scaled as the gap table's, and exceed reads
    them; level(idx) unscales one only where it meets a cap or is
    returned, as a rational (a float in float mode).  The instance has
    one Transport, `transport`: it memoises the flows behind the
    single-set floors, and its scaled weights feed every witness.  The
    caps of set families are memoised here with their witnesses as
    certified ints (joint_min_cap), and the search reads every coupling
    in that form, (rows, unit).  ky_fan_table evaluates one on the
    table's scaled gaps, as ints in exact mode; read takes the value and
    both transfers off that table, and product_bound, the search's upper
    bound, is the value at the Transport's scaled product coupling.  Only
    the witness a solver returns becomes a Coupling, through
    Coupling.certified.
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

    def ky_fan_table(self, rows, unit) -> list:
        """Ky Fan value of each feature pair under a coupling, on ints.

        rows is the coupling's matrix as ints over unit, and a gap is d
        over the table's scale S, so the pairs (w * S, d * unit) share
        the unit 1 / (S * unit): table[f][g] is ky_fan_coupling of rows
        f and g times S * unit, and every comparison of the scans and of
        a Hausdorff max/min over the table is that of the rationals.
        Float mode (unit None) pairs the floats as ky_fan_coupling does.
        """
        weights = [w for row in rows for w in row]
        if unit is not None:
            weights = [w * self.table.scale for w in weights]

        def ky_fan(gaps):
            if unit is not None:
                gaps = [d * unit for d in gaps]
            return _ky_fan_from_pairs(list(zip(weights, gaps)))

        return [[ky_fan(gaps) for gaps in per_f] for per_f in self.table.diff]

    def table_value(self, table: list, unit) -> Scalar:
        """The Hausdorff value of a ky_fan_table, unscaled once."""
        value = hausdorff(table, range(self.ky), lambda row, g: row[g])
        return value if unit is None else unscaled(value, self.table.scale * unit)

    def product(self) -> tuple:
        """The product coupling as (rows, unit): the Transport's a_i * b_j
        over D * D."""
        (a, b), D = self.transport.weights, self.transport.scale
        return [[x * y for y in b] for x in a], None if D is None else D * D

    def product_bound(self) -> Scalar:
        """dconc_at_coupling at the product coupling, read by ky_fan_table."""
        rows, unit = self.product()
        return self.table_value(self.ky_fan_table(rows, unit), unit)

    def read(self, rows, unit) -> tuple:
        """dconc_at_coupling and feature_transfer both ways at a coupling.

        The coupling is (rows, unit), ints over unit as joint_min_cap
        keeps its witnesses (floats and unit None in float mode).  One
        ky_fan_table gives the Hausdorff value and each row's first
        minimum; its float entries pair the cells in ky_fan_coupling's
        row-major order, so they are that function's bits.  Exact mode
        reads each column's first minimum off the same table.  Float Ky
        Fan sums depend on the pair order, so float mode reads the
        transfer back by feature_transfer on the transposed rows.
        """
        table = self.ky_fan_table(rows, unit)
        first_min = lambda values: values.index(min(values))
        u = tuple(map(first_min, table))
        if unit is None:
            v = feature_transfer(self.Y, self.X, tuple(zip(*rows)))
        else:
            v = tuple(map(first_min, zip(*table)))
        return self.table_value(table, unit), u, v

    def joint_min_cap(self, sets: frozenset) -> tuple:
        """min over couplings of max mass over several cell sets: (cap, witness).

        The witness is (rows, unit), a coupling attaining the cap as it
        was computed: ints over unit in exact mode, floats and unit None
        in float mode.  No live set: the product.  One: the Transport's
        completion on the set's complement.  More: the
        common-cap LP on the Transport's scaled weights and the sets'
        masks.  The search reads a witness as it is, and only
        the one a solver returns goes through Coupling.certified.
        """
        hit = self._lp_cache.get(sets)
        if hit is None:
            transport = self.transport
            # The constraint order fixes the simplex pivots, hence the
            # witness: sets go by their ascending cell lists.
            live = sorted((s for s in sets if s), key=bits)
            if not live:
                hit = (0, self.product())
            elif len(live) == 1:
                flow, rows, unit = transport.completion(self.table.full ^ live[0])
                hit = (1 - unscaled(flow, transport.scale), (rows, unit))
            else:
                rows, unit, t = _common_cap_lp(*transport.weights, transport.scale, live)
                hit = (unscaled(t, unit), (rows, unit))
            self._lp_cache[sets] = hit
        return hit

    def pair_sets(self, u: Sequence[int], v: Sequence[int], level_idx: int):
        ex = self.exceed(level_idx)
        return frozenset(ex[f][g] for f, g in enumerate(u)) | frozenset(
            ex[f][g] for g, f in enumerate(v)
        )

    def scan_level(self, level_idx: int, stop_at_first: bool):
        """Best assignment pair at one level of the threshold grid.

        Returns (cap, witness, u, v) for the least achievable common cap
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
                cap, witness = self.joint_min_cap(sets)
                if cap >= bar:
                    continue
                best, bar, bar_cut = (cap, witness, u, v), cap, scaled_ceil(cap, unit)
                if stop_at_first or cap <= level:
                    return best
        return best


def _forced_coupling_result(X, Y) -> DconcResult:
    search = _DconcSearch(X, Y)
    rows, unit = search.product()
    value, u, v = search.read(rows, unit)
    return DconcResult(value, Coupling.certified(rows, unit, X.mode), u, v)


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
    # The first feasible level below hi, else hi, which is never probed.
    feasible = lambda i: search.scan_level(i, stop_at_first=True) is not None
    lo = bisect_left(range(hi), True, key=feasible)
    best = search.scan_level(lo, stop_at_first=False)
    if best is None:
        raise AssertionError("bisection landed on an infeasible level")
    cap, witness, u, v = best
    level = search.level(lo)
    value = cap if cap > level else level
    return DconcResult(value, Coupling.certified(*witness, mode), u, v)


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
    monotone across iterations and never below the exact distance.  Each
    coupling is walked as (rows, unit), the form _DconcSearch.read takes:
    the product as the search's own, the anchors of enumerate_couplings'
    lattice (resolution 2) as _mixture_lattice builds them on the
    Transport's scaled weights, and each accepted witness as
    joint_min_cap returns it.  Only the best one becomes a Coupling, at
    return.
    """
    mode = same_mode(X.mode, Y.mode)
    if X.n == 1 or Y.n == 1:
        res = _forced_coupling_result(X, Y)
        return res.value, res.coupling
    search = _DconcSearch(X, Y)
    rng = random.Random(seed)

    lattice, unit = _mixture_lattice(*search.transport.weights, search.transport.scale, 2)
    rng.shuffle(lattice)
    anchors = [search.product()] + [(rows, unit) for rows in lattice[: max(1, budget // 2)]]

    def pair_value(u, v):
        """Exact optimum over couplings for one fixed assignment pair."""
        return crossing(
            len(search.grid),
            search.level,
            lambda i: search.joint_min_cap(search.pair_sets(u, v, i)),
            1,
        )

    best_val, best = None, None
    for current in anchors:
        seen = set()
        for _ in range(max(1, budget)):
            val, u, v = search.read(*current)
            if best_val is None or val < best_val:
                best_val, best = val, current
            if (u, v) in seen:
                break
            seen.add((u, v))
            cand_val, witness = pair_value(u, v)
            if cand_val >= val:
                break
            current = witness
    return best_val, Coupling.certified(*best, mode)


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
    bad = lip_violation(witness, X.dist, tolerance(mode))
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
