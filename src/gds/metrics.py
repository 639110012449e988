"""Metrics between functions and between measures on a finite space.

The Ky Fan metric measures how far two functions are apart in probability;
the Prohorov metric compares two measures on a shared finite metric space.
Both are computed exactly on the finite grid of thresholds where their
defining step functions can change: the value is the minimum over
thresholds t of max(t, the mass still required at t), for Prohorov
possibly an unattained infimum.  crossing finds such a minimum by a
bisection that brackets the crossing with the falling values it reads,
here and in the box and dconc sweeps.  Partial and observable
diameter sit on top of the same machinery.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from itertools import accumulate
from operator import itemgetter, or_
from typing import Callable, Iterable, Sequence

from .core import DiscreteMeasure, GeometricDataSet, Record
from .errors import GdsError, ModeMismatch, SizeLimit
from .flows import Transport, bits
from .numerics import Scalar, leq, same_mode, scaled_ints, to_scalar, unscaled

BRUTE_FORCE_POINT_LIMIT = 12
ASSIGNMENT_BUDGET = 70000


def crossing(count: int, rise: Callable, fall: Callable, top) -> tuple:
    """Minimise max(rise(i), fall(i)) over the indices of a level grid.

    rise(i) grows with i and the value of fall(i) -> (value, witness)
    never does, so the minimum is attained at the first index c where
    rise reaches fall or at its predecessor; an earlier index can only
    tie the predecessor's fall.  rise is cheap and fall costly, so the
    search for c brackets it by the values it reads: top bounds every
    fall value, so c is at or before the first index whose rise reaches
    top; and a probe at mid with fall value F places c at or before the
    first index past mid whose rise reaches F (fall is at most F there),
    and, when c is at or before mid, at or after the first index whose
    rise reaches F (fall is at least F before mid).  Each probe halves
    the bracket at least, so fall is called about log2(count) times,
    none at one index twice, and never past the first rise reaching top;
    rise is taken to reach fall at the last index.  Returns the minimum
    and the witness of the first of c - 1 and c to attain it.

    Each bracket end is the first index in [lo, hi) whose rise reaches a
    value, else hi: bisect_left over range(lo, hi) probes (lo + hi) // 2
    each step and never reads hi.
    """
    at = functools.cache(fall)

    def candidate(i: int) -> tuple:
        a, (b, witness) = rise(i), at(i)
        return (a if a > b else b), witness

    lo, hi = 0, bisect_left(range(count - 1), top, key=rise)
    while lo < hi:
        mid = (lo + hi) // 2
        F = at(mid)[0]
        if rise(mid) >= F:
            lo, hi = bisect_left(range(lo, mid), F, key=rise) + lo, mid
        else:
            lo, hi = mid + 1, bisect_left(range(mid + 1, hi), F, key=rise) + mid + 1
    return min(map(candidate, range(max(lo - 1, 0), lo + 1)), key=itemgetter(0))


class CellSet(Record):
    """A subset of the n x m product grid, stored as frozen (i, j) pairs."""

    _fields = ("n", "m", "cells")

    def __init__(self, n: int, m: int, cells: frozenset):
        for (i, j) in cells:
            if not (0 <= i < n and 0 <= j < m):
                raise GdsError(f"cell ({i},{j}) outside {n}x{m} grid")
        self.__dict__.update(n=n, m=m, cells=cells)

    @classmethod
    def from_pairs(cls, n: int, m: int, pairs: Iterable) -> "CellSet":
        return cls(n, m, frozenset((int(i), int(j)) for i, j in pairs))

    @classmethod
    def full(cls, n: int, m: int) -> "CellSet":
        return cls(n, m, frozenset((i, j) for i in range(n) for j in range(m)))

    @classmethod
    def empty(cls, n: int, m: int) -> "CellSet":
        return cls(n, m, frozenset())

    @classmethod
    def from_mask(cls, n: int, m: int, mask: int) -> "CellSet":
        return cls(n, m, frozenset(divmod(c, m) for c in bits(mask)))

    def to_mask(self) -> int:
        mask = 0
        for (i, j) in self.cells:
            mask |= 1 << (i * self.m + j)
        return mask

    @property
    def sorted_cells(self) -> tuple:
        return tuple(sorted(self.cells))

    def __contains__(self, cell) -> bool:
        return cell in self.cells

    def __iter__(self):
        return iter(self.sorted_cells)

    def __len__(self) -> int:
        return len(self.cells)


def _ky_fan_from_pairs(pairs: Sequence) -> Scalar:
    """Ky Fan value from (weight, deviation) pairs.

    Weights and deviations share one positive unit, and may be ints: a
    caller that scales both by one constant gets the value scaled by it.
    Finds min eps with mass{deviation > eps} <= eps.  Between consecutive
    deviation values the tail mass T is constant, so an interval [lo, hi)
    admits a feasible point iff T < hi, and its least one is max(lo, T).
    Walking the intervals from the top down, T only grows and hi only
    falls, so the admitting intervals form a top segment and the lowest of
    them yields the minimum, which is always attained.  One sort of the
    deviations and one running sum from the top find it.  Pairs with zero
    weight never change T, and mass at deviation 0 lies above no interval
    start, so both are dropped; the interval starting at 0 is tried last.
    """
    ranked = sorted(
        (p for p in pairs if p[0] and p[1]), key=itemgetter(1), reverse=True
    )
    lo = tail = prev = None
    above = 0  # mass strictly above the deviation being visited
    for w, d in ranked:
        if d != prev:
            if lo is not None and not above < lo:
                break
            lo, tail, prev = d, above, d
        above += w
    else:
        if lo is None:
            return pairs[0][1] - pairs[0][1]  # the deviations' zero
        if above < lo:
            lo, tail = 0, above
    return tail if tail > lo else lo


def ky_fan(mu: DiscreteMeasure, a: Sequence, b: Sequence) -> Scalar:
    """Ky Fan distance between two functions under one measure.

    The least eps such that {|a - b| > eps} has mass at most eps.  Never
    exceeds 1 for a probability measure.
    """
    if len(a) != mu.n or len(b) != mu.n:
        raise GdsError("function rows disagree with the measure's point count")
    pairs = [(mu.weights[i], abs(a[i] - b[i])) for i in range(mu.n)]
    return _ky_fan_from_pairs(pairs)


def ky_fan_coupling(pi, f: Sequence, g: Sequence) -> Scalar:
    """Ky Fan distance of f o pr1 and g o pr2 under a coupling.

    `pi` may be a Coupling or a raw matrix (sequence of rows).
    """
    matrix = getattr(pi, "matrix", pi)
    n, m = len(matrix), len(matrix[0])
    if len(f) != n or len(g) != m:
        raise GdsError("row lengths disagree with the coupling's shape")
    pairs = [
        (matrix[i][j], abs(f[i] - g[j]))
        for i in range(n)
        for j in range(m)
    ]
    return _ky_fan_from_pairs(pairs)


def sup_pseudometric(f: Sequence, g: Sequence, cells: Iterable) -> Scalar:
    """sup over the cell set of |f(x) - g(y)|; zero on the empty set."""
    best = f[0] - f[0]  # the mode's zero
    for (i, j) in cells:
        d = abs(f[i] - g[j])
        if d > best:
            best = d
    return best


def hausdorff(items_a: Sequence, items_b: Sequence, dist: Callable) -> Scalar:
    """Hausdorff distance between two finite nonempty sets under `dist`.

    Each dist(a, b) is evaluated once; both directions read one table.
    """
    if not items_a or not items_b:
        raise GdsError("hausdorff needs two nonempty families")
    table = [[dist(a, b) for b in items_b] for a in items_a]
    forward = max(min(row) for row in table)
    backward = max(min(column) for column in zip(*table))
    return forward if forward >= backward else backward


class GapTable:
    """Lifted gaps |f(x) - g(y)| between two feature families, scaled.

    The rows of both families are scaled to ints once, jointly, with
    numerics.scaled_ints, so diff[f][g][c] is the gap on the flat n x m
    cell grid (c = x * m + y) times `scale`, and every gap and level the
    searches compare is an int; unscaled(h, scale) gives back the
    rational a level stands for.  In float mode the rows pass through
    unchanged and scale is None.  The exact searches walk thresholds h
    of this table: allowed(f, g, h) is the bitmask of cells with scaled
    gap <= h, computed afresh on each call.  The table holds gaps only:
    each solver meets them with the flows of its own Transport.
    """

    def __init__(self, rows_x: Sequence, rows_y: Sequence):
        self.n, self.m = len(rows_x[0]), len(rows_y[0])
        self.kx, self.ky = len(rows_x), len(rows_y)
        self.full = (1 << (self.n * self.m)) - 1
        rows, self.scale = scaled_ints(*rows_x, *rows_y)
        self.diff = [
            [
                [abs(fr[i] - gr[j]) for i in range(self.n) for j in range(self.m)]
                for gr in rows[self.kx :]
            ]
            for fr in rows[: self.kx]
        ]

    def gaps(self) -> set:
        """Every scaled gap of the table."""
        return {d for per_f in self.diff for cells in per_f for d in cells}

    def allowed(self, f: int, g: int, h) -> int:
        """Cells whose scaled gap between rows f and g is at most h."""
        mask = 0
        for c, d in enumerate(self.diff[f][g]):
            if d <= h:
                mask |= 1 << c
        return mask


# ---------------------------------------------------------------------------
# Prohorov metric on a shared finite metric space
# ---------------------------------------------------------------------------


def prohorov_weights(
    mu_weights: Sequence,
    nu_weights: Sequence,
    dist: Sequence,
    method: str = "auto",
) -> Scalar:
    """Prohorov distance for raw weight vectors, zero masses permitted.

    Core of `prohorov`, shared with the coupling-to-coupling comparison
    where zero cells are routine.  Dropping a zero-mass point from a set A
    keeps nu(A) while shrinking the neighborhood, so the subset scan over
    the full grid still attains its maximum on supported sets and the
    value is unaffected by null points.
    """
    n = len(mu_weights)
    if len(nu_weights) != n or len(dist) != n:
        raise GdsError("prohorov needs two weight vectors on one metric space")
    if method == "auto":
        method = "flow"

    if method == "brute":
        if n > BRUTE_FORCE_POINT_LIMIT:
            raise SizeLimit(
                f"brute-force prohorov caps at {BRUTE_FORCE_POINT_LIMIT} points"
            )
        # The subset scan sums and compares weights only, so it runs on
        # ints; a requirement is converted back before it meets the
        # thresholds, which stay the raw distances.
        thresholds = sorted(_cells_at(dist))
        (mu_int, nu_int), scale = scaled_ints(mu_weights, nu_weights)
        req = _prohorov_requirements_brute(mu_int, nu_int, dist, thresholds)
        return min(
            max(t, unscaled(need, scale)) for t, need in zip(thresholds, req)
        )

    if method != "flow":
        raise GdsError(f"unknown prohorov method {method!r}")

    # By transportation duality the requirement at thresholds[i] is the
    # mass no coupling can keep on within[i], the cells with d(x, y) at
    # most that threshold: the least Ky Fan value of d over couplings.
    rows, S = scaled_ints(*dist)
    cells_at = _cells_at(rows)
    thresholds = sorted(cells_at)
    within = list(accumulate((cells_at[t] for t in thresholds), or_))
    transport = Transport(mu_weights, nu_weights)
    total = sum(transport.weights[1])
    return _least_ky_fan(transport, thresholds, within.__getitem__, S, total)


def _least_ky_fan(transport, levels: Sequence, within: Callable, S, total) -> Scalar:
    """min over i of max(levels[i], total - the most a coupling keeps on
    the cell mask within(i)), unscaled once.

    By Strassen's theorem this is the least Ky Fan value over couplings
    of a ground distance whose ascending levels, scaled by S (None in
    float mode), bound the masks within(i), which grow with i.  The
    requirement falls as the level rises, from at most total, the mass
    that transport's flows carry in its scale D, so crossing reads it at
    about log2 of the levels up to total, or fewer where the
    requirements it reads bracket the crossing.  A level over S and a
    requirement over D meet as ints over S * D (floats in float mode).
    Levels whose scale disagrees with the weights' mode cannot share
    their ints, and raise ModeMismatch.
    """
    if (S is None) != (transport.scale is None):
        raise ModeMismatch("the distances and the weights mix float and exact numbers")
    s, d = S or 1, transport.scale or 1
    value, _ = crossing(
        len(levels),
        lambda i: levels[i] * d,
        lambda i: ((total - transport.scaled_value(within(i))) * s, None),
        total * s,
    )
    return unscaled(value, None if S is None else S * d)


def _cells_at(dist) -> dict:
    """Prohorov thresholds, 0 and every distance, each with its cells.

    cells_at[t] is the bitmask of the cells (x, y), bit x * n + y, with
    d(x, y) = t.
    """
    n = len(dist)
    cells_at: dict = {}
    for x in range(n):
        for y in range(n):
            d = dist[x][y]
            cells_at[d] = cells_at.get(d, 0) | 1 << (x * n + y)
    cells_at.setdefault(0, 0)
    return cells_at


def _neighborhood_mass_table(dist, weights, member_mask: int, thresholds):
    """mu({x : d(x, A) <= t}) for each threshold t, for one subset A."""
    n = len(weights)
    d_to_A = []
    for x in range(n):
        best = None
        for a in range(n):
            if member_mask >> a & 1:
                if best is None or dist[x][a] < best:
                    best = dist[x][a]
        d_to_A.append(best)
    masses = []
    for t in thresholds:
        acc = 0
        for x in range(n):
            if d_to_A[x] <= t:
                acc += weights[x]
        masses.append(acc)
    return masses


def _prohorov_requirements_brute(mu_weights, nu_weights, dist, thresholds):
    """For each threshold index i, the least eps any subset forces on the
    interval (t_i, t_{i+1}]: max over A of nu(A) - mu({d(.,A) <= t_i})."""
    n = len(mu_weights)
    req = [None] * len(thresholds)
    for mask in range(1, 1 << n):
        nu_mass = sum(nu_weights[x] for x in range(n) if mask >> x & 1)
        table = _neighborhood_mass_table(dist, mu_weights, mask, thresholds)
        for i, covered in enumerate(table):
            need = nu_mass - covered
            if req[i] is None or need > req[i]:
                req[i] = need
    return req


def prohorov(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    dist: Sequence,
    method: str = "auto",
) -> Scalar:
    """Prohorov distance of two measures on one finite metric space.

    Defined through open neighborhoods: the least eps such that every set A
    satisfies mu({d(., A) < eps}) >= nu(A) - eps.  The requirement, the
    most any A forces, is constant on each interval (t, t'] between
    consecutive thresholds (0 and every distance), so the value is the
    minimum over thresholds t of max(t, requirement just above t).  When
    the requirement is at most t that minimum is t itself, the open left
    end of the interval: a genuine unattained infimum.

    method: "flow" (or "auto") evaluates the requirement through max-flow
    duality, the fastest route at every size; "brute" enumerates all
    subsets and stays as the oracle.  Both return identical values in
    exact mode; float sums may differ in the last bit.
    """
    same_mode(mu.mode, nu.mode)
    if nu.n != mu.n:
        raise GdsError("prohorov needs two measures on one metric space")
    return prohorov_weights(mu.weights, nu.weights, dist, method)


# ---------------------------------------------------------------------------
# Partial and observable diameter
# ---------------------------------------------------------------------------


def _atoms(values: Sequence, weights: Sequence):
    acc = {}
    for v, w in zip(values, weights):
        acc[v] = acc.get(v, 0) + w
    items = sorted(acc.items())
    return [v for v, _ in items], [w for _, w in items]


def partial_diameter(values: Sequence, mu: DiscreteMeasure, alpha) -> Scalar:
    """Least diameter of a closed interval catching mass at least alpha.

    Computed on the pushforward of mu under the value row.  alpha <= 0
    returns the mode's 0 (the empty interval suffices); alpha > 1 is out
    of range.
    """
    if len(values) != mu.n:
        raise GdsError("value row disagrees with the measure's point count")
    if not alpha <= 1:
        raise GdsError("partial diameter is undefined for alpha > 1")
    if alpha <= 0:
        return to_scalar(0, mu.mode)
    vs, ws = _atoms(values, mu.weights)
    mode = mu.mode
    best = None
    j = -1
    window = 0
    for i in range(len(vs)):
        if j < i:
            j = i
            window = ws[i]
        while not leq(alpha, window, mode) and j + 1 < len(vs):
            j += 1
            window += ws[j]
        if leq(alpha, window, mode):
            diam = vs[j] - vs[i]
            if best is None or diam < best:
                best = diam
        else:
            break
        window -= ws[i]
    if best is None:
        raise AssertionError("total mass 1 always covers alpha <= 1")
    return best


def observable_diameter(X: GeometricDataSet, kappa) -> Scalar:
    """Largest partial diameter, at level 1 - kappa, over the features.

    kappa < 0 is out of range; kappa >= 1 returns the mode's 0.
    """
    if not kappa >= 0:
        raise GdsError(f"observable diameter needs kappa >= 0, got {kappa}")
    alpha = 1 - kappa
    if alpha <= 0:
        return to_scalar(0, X.mode)
    return max(
        partial_diameter(row, X.measure, alpha) for row in X.features.rows
    )


def od_breakpoints(X: GeometricDataSet) -> tuple:
    """kappa values where the observable diameter can jump.

    The partial diameter of a feature changes only when 1 - kappa crosses
    the mass of some contiguous value window, so those crossings (plus 0)
    enumerate every candidate discontinuity.
    """
    kappas = {0}
    for row in X.features.rows:
        _, ws = _atoms(row, X.measure.weights)
        u = len(ws)
        for i in range(u):
            acc = 0
            for j in range(i, u):
                acc += ws[j]
                kap = 1 - acc
                if 0 <= kap <= 1:
                    kappas.add(kap)
    return tuple(sorted(kappas))
