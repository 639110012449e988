"""Core model: discrete measures, feature families, and the two space types.

A geometric data set is a finite point set carrying a fully supported
probability measure and a finite family of real-valued features.  The
features induce a sup-metric d(x,y) = max_f |f(x) - f(y)|, which is required
to separate points; that is checked on the feature columns, and the metric
is built on first use.  A metric measure space stores the metric directly.

Points are always indices 0..n-1; optional labels are carried along for I/O
but never interpreted.  A finite feature family equals its own uniform
closure, so no closure operator appears anywhere in the API.
"""

from __future__ import annotations

import random
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .errors import (
    GdsError,
    MetricViolation,
    SeparationFailure,
    SupportError,
)
from .numerics import (
    EXACT,
    FLOAT_TOL,
    Scalar,
    check_mode,
    same_mode,
    scalar_list,
    to_scalar,
    tolerance,
)

# The largest grid (cells = point pairs) an exact box search takes on
# by default.  box reads it from here, and so does the CLI for --cells.
CELL_BUDGET = 16


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


class Record:
    """A frozen value record, written out where dataclasses would generate it.

    A subclass names its fields in `_fields` and writes its own __init__,
    which stores them with one self.__dict__.update(...) and then calls
    __post_init__, the validation hook, where the class has one.  The base
    gives what @dataclass(frozen=True) did: the same repr, == between
    instances of one class only and a hash, both of the field tuple, and no
    assignment or deletion of attributes.  An attribute outside `_fields`,
    such as GeometricDataSet's cached dist, is in none of them.  Importing
    dataclasses costs a CLI process about 7 ms on CPython 3.11 (it pulls
    in inspect and ast), and each decorated class about 0.6 ms more to
    compile its generated methods.
    """

    _fields: tuple

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DiscreteMeasure(Record):
    """Probability weights on points 0..n-1, all strictly positive."""

    _fields = ("weights", "mode")

    def __init__(self, weights: tuple, mode: str = EXACT):
        self.__dict__.update(weights=weights, mode=mode)
        self.__post_init__()

    def __post_init__(self):
        check_mode(self.mode)
        if not self.weights:
            raise SupportError("a measure needs at least one point")
        for i, w in enumerate(self.weights):
            if w <= 0:
                raise SupportError(f"weight of point {i} is {w}; support must be full")
        total = sum(self.weights)
        if self.mode == EXACT:
            if total != 1:
                raise SupportError(f"weights sum to {total}, expected 1")
        elif abs(total - 1.0) > FLOAT_TOL:
            raise SupportError(f"weights sum to {total!r}, expected 1 within {FLOAT_TOL}")

    @classmethod
    def from_weights(
        cls,
        values: Iterable,
        mode: str = EXACT,
        rescale: bool = False,
    ) -> "DiscreteMeasure":
        """Build a measure, optionally rescaling the weights to total 1."""
        ws = list(scalar_list(values, mode))
        if rescale:
            total = sum(ws)
            if total <= 0:
                raise SupportError("cannot rescale weights with non-positive total")
            ws = [w / total for w in ws]
        return cls(tuple(ws), mode)

    @classmethod
    def uniform(cls, n: int, mode: str = EXACT) -> "DiscreteMeasure":
        if n <= 0:
            raise SupportError("uniform measure needs n >= 1")
        w = to_scalar(1, mode) / n
        return cls((w,) * n, mode)

    @property
    def n(self) -> int:
        return len(self.weights)

    def __getitem__(self, i: int) -> Scalar:
        return self.weights[i]

    def mass(self, indices: Iterable[int]) -> Scalar:
        seen = set()
        total = to_scalar(0, self.mode)
        for i in indices:
            if i not in seen:
                seen.add(i)
                total += self.weights[i]
        return total


class FeatureFamily(Record):
    """Finite family of real-valued functions on points 0..n-1.

    rows[f][x] is the value of feature f at point x.  The family is closed
    under uniform limits by finiteness, so it can be fed directly to any
    operation stated for closed families.
    """

    _fields = ("rows", "labels", "mode")

    def __init__(self, rows: tuple, labels: tuple, mode: str = EXACT):
        self.__dict__.update(rows=rows, labels=labels, mode=mode)
        self.__post_init__()

    def __post_init__(self):
        check_mode(self.mode)
        if not self.rows:
            raise SeparationFailure("a feature family needs at least one feature")
        width = len(self.rows[0])
        for r in self.rows:
            if len(r) != width:
                raise SeparationFailure("feature rows have inconsistent lengths")
        if len(self.labels) != len(self.rows):
            raise SeparationFailure("need exactly one label per feature row")
        if len(set(self.labels)) != len(self.labels):
            raise SeparationFailure("feature labels must be distinct")

    @classmethod
    def build(
        cls,
        rows: Sequence[Sequence],
        labels: Optional[Sequence[str]] = None,
        mode: str = EXACT,
    ) -> "FeatureFamily":
        frozen = tuple(scalar_list(r, mode) for r in rows)
        if labels is None:
            labels = _default_labels("f", len(frozen))
        return cls(frozen, tuple(labels), mode)

    @property
    def n_features(self) -> int:
        return len(self.rows)

    @property
    def n_points(self) -> int:
        return len(self.rows[0])

    def row(self, f: int) -> tuple:
        return self.rows[f]

    def by_label(self, label: str) -> tuple:
        try:
            return self.rows[self.labels.index(label)]
        except ValueError:
            raise GdsError(f"no feature labeled {label!r}") from None


def close_pairs(rows: Sequence[Sequence], tol) -> list:
    """Sorted pairs x < y on which every row agrees within tol, found without
    the metric.  With tol 0 (exact mode) they are the pairs of points with
    equal columns, grouped by one dict of the column tuples.  Otherwise the
    points are sorted on the row with the most distinct values, and each is
    compared with those that follow it within tol there.
    """
    if not tol:
        groups: dict = {}
        for x, column in enumerate(zip(*rows)):
            groups.setdefault(column, []).append(x)
        return sorted(
            (x, y) for g in groups.values() for i, x in enumerate(g) for y in g[i + 1 :]
        )
    key = max(rows, key=lambda r: len(set(r)))
    order = sorted(range(len(key)), key=key.__getitem__)
    pairs = []
    for i, x in enumerate(order):
        for j in range(i + 1, len(order)):
            y = order[j]
            if key[y] - key[x] > tol:
                break
            if all(abs(r[x] - r[y]) <= tol for r in rows):
                pairs.append((min(x, y), max(x, y)))
    pairs.sort()
    return pairs


def lip_violation(row: Sequence, dist: Sequence[Sequence], tol):
    """First pair (x, y), in lexicographic order over all ordered pairs,
    with |row[x] - row[y]| > dist[x][y] + tol; else None."""
    n = len(dist)
    for x in range(n):
        for y in range(n):
            if abs(row[x] - row[y]) > dist[x][y] + tol:
                return x, y
    return None


def induced_metric(features: FeatureFamily) -> tuple:
    """Sup-metric matrix d(x,y) = max over features of |f(x) - f(y)|.

    Always a pseudometric; separation is checked where a data set is built,
    not here, so this can also probe families that fail it.
    """
    n = features.n_points
    zero = to_scalar(0, features.mode)
    out = []
    for x in range(n):
        row = []
        for y in range(n):
            best = zero
            for r in features.rows:
                d = r[x] - r[y]
                if d < 0:
                    d = -d
                if d > best:
                    best = d
            row.append(best)
        out.append(tuple(row))
    return tuple(out)


class GeometricDataSet(Record):
    """Feature family plus fully supported measure, with separation checked
    on the feature columns; the induced metric `dist` is built on first use."""

    _fields = ("features", "measure", "point_labels")

    def __init__(
        self, features: FeatureFamily, measure: DiscreteMeasure, point_labels: tuple = ()
    ):
        self.__dict__.update(features=features, measure=measure, point_labels=point_labels)
        self.__post_init__()

    def __post_init__(self):
        same_mode(self.features.mode, self.measure.mode)
        if self.features.n_points != self.measure.n:
            raise SupportError(
                f"features cover {self.features.n_points} points, "
                f"measure has {self.measure.n}"
            )
        if not self.point_labels:
            self.__dict__["point_labels"] = _default_labels("p", self.measure.n)
        if len(self.point_labels) != self.measure.n:
            raise SupportError("need exactly one label per point")
        pairs = close_pairs(self.features.rows, tolerance(self.mode))
        if pairs:
            x, y = pairs[0]
            raise SeparationFailure(f"features do not separate points {x} and {y}")

    @classmethod
    def build(
        cls,
        feature_rows: Sequence[Sequence],
        weights: Iterable,
        feature_labels: Optional[Sequence[str]] = None,
        point_labels: Optional[Sequence[str]] = None,
        mode: str = EXACT,
    ) -> "GeometricDataSet":
        ws = scalar_list(weights, mode)
        labels = tuple(point_labels) if point_labels else _default_labels("p", len(ws))
        fam = FeatureFamily.build(feature_rows, feature_labels, mode)
        meas = DiscreteMeasure(ws, mode)
        return cls(fam, meas, labels)

    @property
    def mode(self) -> str:
        return self.features.mode

    @property
    def n(self) -> int:
        return self.measure.n

    @property
    def k(self) -> int:
        return self.features.n_features

    @cached_property
    def dist(self) -> tuple:
        return induced_metric(self.features)


class MmSpace(Record):
    """Finite metric measure space: explicit metric plus full-support measure."""

    _fields = ("dist", "measure", "point_labels")

    def __init__(self, dist: tuple, measure: DiscreteMeasure, point_labels: tuple = ()):
        self.__dict__.update(dist=dist, measure=measure, point_labels=point_labels)
        self.__post_init__()

    def __post_init__(self):
        n = self.measure.n
        if len(self.dist) != n or any(len(r) != n for r in self.dist):
            raise MetricViolation("distance matrix shape disagrees with measure")
        if not self.point_labels:
            self.__dict__["point_labels"] = _default_labels("p", n)
        tol = tolerance(self.mode)
        d = self.dist
        for x in range(n):
            if abs(d[x][x]) > tol:
                raise MetricViolation(f"nonzero diagonal at point {x}")
            for y in range(x + 1, n):
                if abs(d[x][y] - d[y][x]) > tol:
                    raise MetricViolation(f"asymmetry between {x} and {y}")
                if d[x][y] <= tol:
                    raise MetricViolation(f"points {x} and {y} are at distance 0")
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if d[x][z] > d[x][y] + d[y][z] + tol:
                        raise MetricViolation(
                            f"triangle inequality fails on ({x},{y},{z})"
                        )

    @classmethod
    def build(
        cls,
        matrix: Sequence[Sequence],
        weights: Iterable,
        point_labels: Optional[Sequence[str]] = None,
        mode: str = EXACT,
    ) -> "MmSpace":
        rows = tuple(scalar_list(r, mode) for r in matrix)
        meas = DiscreteMeasure.from_weights(weights, mode)
        labels = tuple(point_labels) if point_labels else ()
        return cls(rows, meas, labels)

    @property
    def mode(self) -> str:
        return self.measure.mode

    @property
    def n(self) -> int:
        return self.measure.n


def gds_to_mm(X: GeometricDataSet) -> MmSpace:
    """Forget the features, keep the induced metric and the measure.

    The induced sup-metric is a metric by construction, separation being
    checked where X is built, so MmSpace's O(n^3) metric check is skipped.
    """
    M = object.__new__(MmSpace)
    vars(M).update(dist=X.dist, measure=X.measure, point_labels=X.point_labels)
    return M


def mm_lip1_generators(M: MmSpace) -> FeatureFamily:
    """The distance functions d(x, .), one per point.

    Each row is 1-Lipschitz by the triangle inequality, and the family's
    sup-metric reproduces d exactly: the row anchored at x witnesses
    |d(x,x) - d(x,y)| = d(x,y).
    """
    labels = tuple(f"d_{lbl}" for lbl in M.point_labels)
    return FeatureFamily(tuple(M.dist[x] for x in range(M.n)), labels, M.mode)


def sample_lip1(M: MmSpace, count: int, seed: int = 0) -> FeatureFamily:
    """Deterministic sample of 1-Lipschitz functions on M.

    Each sample draws anchor points with values on an eighth-of-diameter
    lattice and returns z -> min over anchors a of (v_a + d(a, z)).  A
    minimum of 1-Lipschitz functions is 1-Lipschitz, so every row satisfies
    |f(x) - f(y)| <= d(x,y) by construction.
    """
    if count <= 0:
        raise SeparationFailure("sample_lip1 needs count >= 1")
    rng = random.Random(seed)
    n = M.n
    diam = max((M.dist[x][y] for x in range(n) for y in range(n)), default=0)
    step = diam / 8 if diam > 0 else to_scalar(1, M.mode)
    rows = []
    for _ in range(count):
        size = rng.randint(1, n)
        anchors = rng.sample(range(n), size)
        values = {a: rng.randint(0, 8) * step for a in anchors}
        row = tuple(
            min(values[a] + M.dist[a][z] for a in anchors) for z in range(n)
        )
        rows.append(row)
    labels = _default_labels("s", count)
    return FeatureFamily(tuple(rows), labels, M.mode)


def mm_to_gds(M: MmSpace, extra: int = 0, seed: int = 0) -> GeometricDataSet:
    """Feature-family presentation of an mm-space.

    Uses the distance generators, optionally padded with sampled 1-Lipschitz
    rows.  The induced metric equals d exactly: generators attain it and no
    1-Lipschitz row can exceed it.  Distances through this presentation are
    therefore bounds relative to the full 1-Lipschitz family, not certified
    values; only the generators are guaranteed present.
    """
    gen = mm_lip1_generators(M)
    rows = list(gen.rows)
    labels = list(gen.labels)
    if extra > 0:
        extra_fam = sample_lip1(M, extra, seed)
        rows.extend(extra_fam.rows)
        labels.extend(extra_fam.labels)
    fam = FeatureFamily(tuple(rows), tuple(labels), M.mode)
    return GeometricDataSet(fam, M.measure, M.point_labels)


def pushforward_vector(mu: DiscreteMeasure, assignment: Sequence[int], m: int) -> tuple:
    """Raw pushforward weights on 0..m-1 under the point map, zeros kept."""
    if len(assignment) != mu.n:
        raise SupportError("assignment length disagrees with the measure")
    out = [to_scalar(0, mu.mode)] * m
    for i, j in enumerate(assignment):
        if not 0 <= j < m:
            raise SupportError(f"assignment sends point {i} outside 0..{m - 1}")
        out[j] += mu.weights[i]
    return tuple(out)


def pushforward(
    mu: DiscreteMeasure,
    assignment: Sequence[int],
    codomain_size: Optional[int] = None,
) -> tuple[DiscreteMeasure, tuple[int, ...]]:
    """Pushforward measure under a point map, restricted to its support.

    Returns the measure on the surviving targets plus the tuple of original
    target indices that carried mass, in increasing order.
    """
    m = codomain_size if codomain_size is not None else (max(assignment) + 1)
    vec = pushforward_vector(mu, assignment, m)
    kept = tuple(j for j in range(m) if vec[j] > 0)
    meas = DiscreteMeasure(tuple(vec[j] for j in kept), mu.mode)
    return meas, kept
