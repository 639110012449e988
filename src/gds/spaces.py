"""Builders for the named example spaces, products, and quotients."""

from __future__ import annotations

import random
import warnings
from typing import Iterable, Optional, Sequence

from .core import GeometricDataSet, close_pairs
from .errors import GdsError, NotLipschitzFamily
from .numerics import (
    EXACT,
    Q,
    same_mode,
    scalar_list,
    scaled_ints,
    to_scalar,
    tolerance,
)


def singleton_gds(values: Iterable, mode: str = EXACT) -> GeometricDataSet:
    """One point carrying a family of constants, one per distinct value."""
    consts = sorted(set(scalar_list(values, mode)))
    if not consts:
        raise GdsError("a singleton needs at least one constant feature")
    return GeometricDataSet.build(
        [[c] for c in consts],
        [to_scalar(1, mode)],
        point_labels=("*",),
        mode=mode,
    )


def n_point_discrete(N: int, mode: str = EXACT) -> GeometricDataSet:
    """N points, uniform weights, indicator-style features d_m = 1 - [x = m].

    The induced metric is 1 between any two distinct points.
    """
    if N < 1:
        raise GdsError("need at least one point")
    one = to_scalar(1, mode)
    zero = one - one
    rows = [[zero if x == m else one for x in range(N)] for m in range(N)]
    weights = [Q(1, N)] * N if mode == EXACT else [1.0 / N] * N
    return GeometricDataSet.build(
        rows,
        weights,
        feature_labels=[f"d{m}" for m in range(N)],
        mode=mode,
    )


def product_gds(X: GeometricDataSet, Y: GeometricDataSet) -> GeometricDataSet:
    """Product space: both families lifted through the projections.

    Cells are ordered row-major, (x, y) -> x * Y.n + y, matching the cell
    convention used by couplings.  The induced metric is the pointwise max
    of the factor metrics and the measure is the product measure, whose
    marginals recover the factors exactly.
    """
    same_mode(X.mode, Y.mode)
    n, m = X.n, Y.n
    rows = [tuple(f[i] for i in range(n) for _ in range(m)) for f in X.features.rows]
    rows += [tuple(g[j] for _ in range(n) for j in range(m)) for g in Y.features.rows]
    labels = [f"x:{l}" for l in X.features.labels] + [
        f"y:{l}" for l in Y.features.labels
    ]
    weights = [
        X.measure.weights[i] * Y.measure.weights[j]
        for i in range(n)
        for j in range(m)
    ]
    points = [
        f"{X.point_labels[i]}|{Y.point_labels[j]}"
        for i in range(n)
        for j in range(m)
    ]
    return GeometricDataSet.build(
        rows, weights, feature_labels=labels, point_labels=points, mode=X.mode
    )


def _resolve_rows(X: GeometricDataSet, G) -> tuple:
    """Accept feature labels or raw rows; return (rows, labels, explicit),
    explicit listing the raw rows alone."""
    rows, labels, explicit = [], [], []
    for idx, item in enumerate(G):
        if isinstance(item, str):
            rows.append(X.features.by_label(item))
            labels.append(item)
        else:
            rows.append(tuple(scalar_list(item, X.mode)))
            labels.append(f"g{idx}")
            explicit.append(rows[-1])
    return tuple(rows), tuple(labels), explicit


def _sup_lip_violation(row: Sequence, rows: Sequence[Sequence], tol):
    """First pair x < y, in lexicographic order, with |row[x] - row[y]|
    above tol plus the sup over rows of |r[x] - r[y]|; else None.

    The same pair as core.lip_violation over the sup-metric of rows, read
    one point's pairs at a time from the rows themselves.
    """
    for x, a in enumerate(row):
        tails = [[abs(r[x] - v) for v in r[x + 1 :]] for r in rows]
        for y, b, *gaps in zip(range(x + 1, len(row)), row[x + 1 :], *tails):
            if abs(a - b) > max(gaps) + tol:
                return x, y
    return None


def quotient_gds(X: GeometricDataSet, G) -> tuple:
    """Collapse the pseudometric of a 1-Lipschitz subfamily.

    G may mix feature labels of X and explicit rows.  Points at
    pseudodistance zero merge (within 1e-9 in float mode, with a warning,
    since chains of merges can then join points slightly further apart).
    Returns the quotient space and the point map; the descended family
    composed with the map reproduces G row-for-row, and the map is
    1-Lipschitz and measure preserving.

    The descended rows are also exactly the functions on the quotient that
    pull back into G: the map is onto, so a function downstairs is pinned
    by its pullback, which keeps this family faithful to the largest
    possible reading.
    """
    rows, labels, explicit = _resolve_rows(X, G)
    if not rows:
        raise GdsError("cannot quotient by an empty family")
    n = X.n
    tol = tolerance(X.mode)
    # A feature row of X is 1-Lipschitz for X's sup-metric by definition,
    # so only explicit rows are checked, on X's columns scaled to ints
    # jointly with them; X.dist is never built.
    scaled, _ = scaled_ints(*X.features.rows, *explicit)
    for r in scaled[X.k :]:
        if len(r) != n:
            raise NotLipschitzFamily("row length disagrees with the point count")
        bad = _sup_lip_violation(r, scaled[: X.k], tol)
        if bad:
            raise NotLipschitzFamily(
                f"row is not 1-Lipschitz between points {bad[0]} and {bad[1]}"
            )
    # Points with equal columns start in one class, rooted at the first
    # of them: in exact mode these are the classes.  Float mode merges
    # the chains of pairs within tol on top.  Each root is its
    # component's minimum, whatever the order of the pairs.
    first: dict = {}
    parent = [first.setdefault(column, x) for x, column in enumerate(zip(*rows))]
    pairs = close_pairs(rows, tol) if tol else []
    if any(r[x] != r[y] for x, y in pairs for r in rows):
        warnings.warn("quotient merged points at small positive pseudodistance")

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for x, y in pairs:
        ra, rb = find(x), find(y)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    reps = sorted({find(x) for x in range(n)})
    index = {rep: k for k, rep in enumerate(reps)}
    mapping = tuple(index[find(x)] for x in range(n))
    groups = [[] for _ in reps]
    for x, k in enumerate(mapping):
        groups[k].append(x)
    weights = [sum(X.measure.weights[x] for x in group) for group in groups]
    out_rows = [tuple(r[rep] for rep in reps) for r in rows]
    points = ["+".join(X.point_labels[x] for x in group) for group in groups]
    Y = GeometricDataSet.build(
        out_rows,
        weights,
        feature_labels=labels,
        point_labels=points,
        mode=X.mode,
    )
    return Y, mapping


def levy_sequence(
    kind: str,
    n_max: int,
    base: Optional[GeometricDataSet] = None,
    mode: str = EXACT,
):
    """Deterministic families whose observable diameter is meant to vanish.

    kind "discrete" yields the N-point discrete spaces for N = 1..n_max,
    in `mode`; kind "product_power" yields base, base^2, ..., base^n_max,
    in the base's mode.  A family needs at least one member, so n_max < 1
    raises GdsError.
    """
    if n_max < 1:
        raise GdsError(f"a family needs at least one member, not n = {n_max}")
    if kind == "discrete":
        for N in range(1, n_max + 1):
            yield n_point_discrete(N, mode)
    elif kind == "product_power":
        if base is None:
            raise GdsError("product_power needs a base space")
        current = base
        for _ in range(n_max):
            yield current
            current = product_gds(current, base)
    else:
        raise GdsError(f"unknown family kind {kind!r}")


def levy_table(
    kind: str,
    n_max: int,
    base: Optional[GeometricDataSet] = None,
    kappas: Optional[Sequence] = None,
    mode: str = EXACT,
) -> tuple:
    """Observable diameters of a family over a kappa grid.

    Returns (kappas, rows) with one (label, values) row per member.
    """
    from .metrics import observable_diameter  # only the table needs the solver layer

    if kappas is None:
        kappas = scalar_list((Q(j, 20) for j in range(1, 20)), mode)
    rows = []
    for idx, X in enumerate(levy_sequence(kind, n_max, base, mode)):
        rows.append(
            (f"{kind}[{idx + 1}]", [observable_diameter(X, k) for k in kappas])
        )
    return list(kappas), rows


def random_gds(
    n: int, k: int, seed: int = 0, scale: int = 8, mode: str = EXACT
) -> GeometricDataSet:
    """Seed-deterministic instance with small-denominator values.

    Features land on the 1/scale lattice in [0, 1] and weights are
    normalised small integers, so exact-mode arithmetic stays cheap.
    Separation is enforced by resampling; after too many failures the last
    row is replaced by an increasing ramp, which separates everything.
    """
    if n < 1 or k < 1:
        raise GdsError("need at least one point and one feature")
    if scale < 1:
        raise GdsError(f"the value lattice needs a scale of at least 1, not {scale}")
    rng = random.Random(seed)
    ints = [rng.randrange(1, scale + 1) for _ in range(n)]
    total = sum(ints)
    if mode == EXACT:
        weights = [Q(a, total) for a in ints]
        lattice = lambda v, d: Q(v, d)
    else:
        weights = [a / total for a in ints]
        lattice = lambda v, d: v / d
    for _ in range(64):
        rows = [
            [lattice(rng.randrange(0, scale + 1), scale) for _ in range(n)]
            for _ in range(k)
        ]
        # Two points with the same feature column are never separated.  The
        # build finds them too, but only after converting the draw: without
        # this, random_gds(800, 2) converts and builds all 64 draws, ~70x slower.
        if len(set(zip(*rows))) < n:
            continue
        try:
            return GeometricDataSet.build(rows, weights, mode=mode)
        except GdsError:
            continue
    # Ramp row separates every pair no matter what the other rows do.
    denom = max(n - 1, 1)
    rows = [
        [lattice(rng.randrange(0, scale + 1), scale) for _ in range(n)]
        for _ in range(k - 1)
    ] + [[lattice(i, denom) for i in range(n)]]
    return GeometricDataSet.build(rows, weights, mode=mode)
