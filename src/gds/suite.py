"""Randomized self-checks of the library's mathematical contracts.

Every asserted property restates a fact the implementation is supposed to
guarantee (metric axioms, duality of solver routes, comparison inequalities
between the distances) and probes it on seed-deterministic random
instances.  A failure is always a bug: either in the module under test or
in the property's own independent re-derivation, and the two disagreeing
is exactly the point.

Properties marked as observations are measured, not asserted.  They track
quantities that are allowed to be loose, currently how tight the
1-Lipschitz transport is when the target metric is the larger one.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional

from .box import (
    box_exact,
    box_fixed_coupling,
    box_heuristic,
    box_mm_exact,
    box_objective,
    dis_coupling,
    distortion,
    lip1_witness,
)
from .core import (
    DiscreteMeasure,
    GeometricDataSet,
    MmSpace,
    Record,
    gds_to_mm,
    induced_metric,
    mm_lip1_generators,
    pushforward_vector,
    sample_lip1,
)
from .coupling import (
    coupling_prohorov,
    enumerate_couplings,
    glue,
    max_mass_on_set,
    product_coupling,
    transportation_vertices,
)
from .errors import GdsError
from .flows import Transport
from .metrics import (
    CellSet,
    hausdorff,
    ky_fan,
    ky_fan_coupling,
    observable_diameter,
    od_breakpoints,
    partial_diameter,
    prohorov_weights,
)
from .numerics import Q, unscaled
from .observable import (
    dconc_at_coupling,
    dconc_exact,
    dconc_heuristic,
    dconc_lower_witness,
    feature_transfer,
)
from .order import check_domination, check_isomorphism
from .spaces import (
    n_point_discrete,
    product_gds,
    quotient_gds,
    random_gds,
    singleton_gds,
)

__all__ = [
    "PropertyOutcome",
    "SuiteReport",
    "property_names",
    "run_property",
    "verify_theorem_suite",
]


class PropertyOutcome(Record):
    """Result of running one property for a number of trials.

    asserted is False for a measured observation.
    """

    _fields = ("name", "asserted", "trials", "failures", "example")

    def __init__(
        self,
        name: str,
        asserted: bool,
        trials: int,
        failures: int,
        example: Optional[str] = None,
    ):
        self.__dict__.update(
            name=name, asserted=asserted, trials=trials, failures=failures, example=example
        )

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        if not self.asserted:
            return f"NOTE {self.name}: {self.example or 'no trials run'}"
        if self.ok:
            return f"PASS {self.name} ({self.trials} trials)"
        return (
            f"FAIL {self.name} ({self.failures}/{self.trials} failed):"
            f" {self.example}"
        )


class SuiteReport(Record):
    _fields = ("seed", "trials", "outcomes")

    def __init__(self, seed: int, trials: int, outcomes: tuple):
        self.__dict__.update(seed=seed, trials=trials, outcomes=outcomes)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes if o.asserted)

    def lines(self) -> list:
        checked = sum(1 for o in self.outcomes if o.asserted)
        noted = len(self.outcomes) - checked
        out = [f"theorem suite: seed={self.seed} trials={self.trials}"]
        out.extend(o.line() for o in self.outcomes)
        verdict = "ok" if self.ok else "FAILED"
        out.append(
            f"result: {verdict} ({checked} properties, {noted} observations)"
        )
        return out

    def summary(self) -> str:
        return "\n".join(self.lines())


# ---------------------------------------------------------------------------
# Registries and shared generators
# ---------------------------------------------------------------------------

_CHECKS: list = []  # (name, per-trial callable)
_OBSERVATIONS: list = []  # (name, whole-run callable)


def _prop(func: Callable) -> Callable:
    _CHECKS.append((func.__name__.removeprefix("prop_"), func))
    return func


def _observation(func: Callable) -> Callable:
    _OBSERVATIONS.append((func.__name__.removeprefix("obs_"), func))
    return func


def _space(rng, n_max: int = 3, k_max: int = 2, n_min: int = 2):
    n = rng.randint(n_min, n_max)
    k = rng.randint(1, k_max)
    return random_gds(n, k, seed=rng.getrandbits(32))


def _measure(rng, n: int) -> DiscreteMeasure:
    return DiscreteMeasure.from_weights(
        [rng.randint(1, 6) for _ in range(n)], rescale=True
    )


def _raw_weights(rng, n: int) -> list:
    # zero entries allowed; at least one positive
    raw = [rng.randint(0, 5) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return [Q(v, total) for v in raw]


def _rand_coupling(rng, mu: DiscreteMeasure, nu: DiscreteMeasure):
    options = enumerate_couplings(mu, nu, resolution=3)
    return options[rng.randrange(len(options))]


def _rand_cellset(rng, n: int, m: int) -> CellSet:
    cells = [(x, y) for x in range(n) for y in range(m)]
    return CellSet.from_pairs(n, m, rng.sample(cells, rng.randint(0, len(cells))))


def _by_mask(count: int, step) -> list:
    """A value for every subset of count cells, indexed by bitmask.

    The empty set's is Q(0), and a set's is step(value of the set without
    its lowest cell, that cell, the set without it): one step per mask.
    """
    out = [Q(0)]
    for mask in range(1, 1 << count):
        rest = mask & (mask - 1)
        out.append(step(out[rest], (mask & -mask).bit_length() - 1, rest))
    return out


def _distortions(cells, dX, dY) -> list:
    """distortion of every subset of cells, by mask, from one table of
    the rational gaps |dX - dY| between two cells."""
    gap = [[abs(dX[x][z] - dY[y][w]) for z, w in cells] for x, y in cells]
    return _by_mask(
        len(cells),
        lambda d, low, rest: max([d] + [e for c, e in enumerate(gap[low]) if rest >> c & 1]),
    )


def _least_score(mu, nu, count: int, spread) -> Q:
    """min over the masks of count cells of max(1 - the most mass a
    coupling keeps on the mask, spread(mask)), the empty set scoring 1.
    One Transport values every mask."""
    transport = Transport(mu.weights, nu.weights)
    kept = lambda mask: unscaled(transport.scaled_value(mask), transport.scale)
    return min([Q(1)] + [max(1 - kept(mask), spread(mask)) for mask in range(1, 1 << count)])


def _permuted(rng, X: GeometricDataSet):
    """Same space with points and features listed in a shuffled order."""
    pp = list(range(X.n))
    fp = list(range(X.k))
    rng.shuffle(pp)
    rng.shuffle(fp)
    rows = [tuple(X.features.rows[f][pp[i]] for i in range(X.n)) for f in fp]
    weights = [X.measure.weights[pp[i]] for i in range(X.n)]
    return GeometricDataSet.build(rows, weights, mode=X.mode), pp


# ---------------------------------------------------------------------------
# Core objects
# ---------------------------------------------------------------------------


@_prop
def prop_induced_metric_definition(rng, t):
    X = _space(rng, 3, 3)
    for x in range(X.n):
        assert X.dist[x][x] == 0
        for y in range(X.n):
            gap = max(abs(r[x] - r[y]) for r in X.features.rows)
            assert X.dist[x][y] == gap
            assert X.dist[x][y] == X.dist[y][x]
            if x != y:
                assert X.dist[x][y] > 0
            for z in range(X.n):
                assert X.dist[x][z] <= X.dist[x][y] + X.dist[y][z]


@_prop
def prop_metric_generators_recover_distance(rng, t):
    M = gds_to_mm(_space(rng, 4, 2))
    assert induced_metric(mm_lip1_generators(M)) == M.dist


@_prop
def prop_sampled_rows_are_lipschitz(rng, t):
    M = gds_to_mm(_space(rng, 4, 2))
    fam = sample_lip1(M, count=3, seed=rng.getrandbits(32))
    for r in fam.rows:
        for x in range(M.n):
            for y in range(M.n):
                assert abs(r[x] - r[y]) <= M.dist[x][y]


@_prop
def prop_pushforward_conserves_mass(rng, t):
    X = _space(rng, 4, 2)
    m = rng.randint(1, 3)
    assignment = tuple(rng.randrange(m) for _ in range(X.n))
    out = pushforward_vector(X.measure, assignment, m)
    assert len(out) == m
    assert sum(out) == 1
    for j in range(m):
        direct = sum(
            w for x, w in enumerate(X.measure.weights) if assignment[x] == j
        )
        assert out[j] == direct


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------


@_prop
def prop_ky_fan_is_a_metric(rng, t):
    X = _space(rng, 4, 3)
    rows = X.features.rows
    f, g, h = (rows[rng.randrange(X.k)] for _ in range(3))
    assert ky_fan(X.measure, f, f) == 0
    d_fg = ky_fan(X.measure, f, g)
    assert 0 <= d_fg <= 1
    assert d_fg == ky_fan(X.measure, g, f)
    assert ky_fan(X.measure, f, h) <= d_fg + ky_fan(X.measure, g, h)


@_prop
def prop_ky_fan_matches_direct_scan(rng, t):
    # independent route: the objective is piecewise constant between the
    # distinct |f-g| values, so scanning those intervals finds the minimum
    X = _space(rng, 4, 3)
    f = X.features.rows[rng.randrange(X.k)]
    g = X.features.rows[rng.randrange(X.k)]
    diffs = sorted({abs(a - b) for a, b in zip(f, g)} | {0})
    best = None
    for i, level in enumerate(diffs):
        mass = sum(
            w
            for a, b, w in zip(f, g, X.measure.weights)
            if abs(a - b) > level
        )
        cand = level if level >= mass else mass
        right = diffs[i + 1] if i + 1 < len(diffs) else None
        if right is not None and cand >= right:
            continue
        if best is None or cand < best:
            best = cand
    assert ky_fan(X.measure, f, g) == best


@_prop
def prop_prohorov_routes_agree(rng, t):
    X = _space(rng, 3 + t % 3, 2)
    wa = _raw_weights(rng, X.n)
    wb = _raw_weights(rng, X.n)
    brute = prohorov_weights(wa, wb, X.dist, "brute")
    flow = prohorov_weights(wa, wb, X.dist, "flow")
    assert brute == flow
    assert prohorov_weights(wa, wa, X.dist, "flow") == 0


@_prop
def prop_ky_fan_dominates_value_prohorov(rng, t):
    # comparing two feature rows in Ky Fan distance can only exceed the
    # Prohorov distance of their value distributions on the line
    X = _space(rng, 4, 3)
    f = X.features.rows[rng.randrange(X.k)]
    g = X.features.rows[rng.randrange(X.k)]
    values = sorted(set(f) | set(g))
    pos = {v: i for i, v in enumerate(values)}
    wf = [Q(0)] * len(values)
    wg = [Q(0)] * len(values)
    for x, w in enumerate(X.measure.weights):
        wf[pos[f[x]]] += w
        wg[pos[g[x]]] += w
    line = [[abs(a - b) for b in values] for a in values]
    assert prohorov_weights(wf, wg, line, "auto") <= ky_fan(X.measure, f, g)


@_prop
def prop_partial_diameter_monotone(rng, t):
    X = _space(rng, 5, 2)
    row = X.features.rows[rng.randrange(X.k)]
    spread = max(row) - min(row)
    previous = None
    for alpha in sorted(Q(rng.randint(0, 16), 16) for _ in range(5)):
        cur = partial_diameter(row, X.measure, alpha)
        assert 0 <= cur <= spread
        if previous is not None:
            assert previous <= cur
        previous = cur
    assert partial_diameter(row, X.measure, 1) == spread
    assert partial_diameter(row, X.measure, 0) == 0


@_prop
def prop_observable_diameter_steps(rng, t):
    # constant between breakpoints, non-increasing across them,
    # right-continuous at each
    X = _space(rng, 4, 3)
    grid = [b for b in od_breakpoints(X) if 0 <= b < 1] + [Q(1)]
    previous = None
    for i in range(len(grid) - 1):
        val = observable_diameter(X, grid[i])
        mid = (grid[i] + grid[i + 1]) / 2
        assert observable_diameter(X, mid) == val
        if previous is not None:
            assert val <= previous
        previous = val
    assert observable_diameter(X, 1) == 0


@_prop
def prop_hausdorff_axioms(rng, t):
    length = rng.randint(2, 4)

    def rand_list(count):
        return [
            tuple(Q(rng.randint(0, 8), 8) for _ in range(length))
            for _ in range(count)
        ]

    def dist(f, g):
        return max(abs(a - b) for a, b in zip(f, g))

    A = rand_list(rng.randint(1, 3))
    B = rand_list(rng.randint(1, 3))
    C = rand_list(rng.randint(1, 3))
    assert hausdorff(A, A, dist) == 0
    ab = hausdorff(A, B, dist)
    assert ab >= 0
    assert ab == hausdorff(B, A, dist)
    assert hausdorff(A, C, dist) <= ab + hausdorff(B, C, dist)


# ---------------------------------------------------------------------------
# Couplings
# ---------------------------------------------------------------------------


@_prop
def prop_enumerated_couplings_have_marginals(rng, t):
    mu = _measure(rng, rng.randint(2, 3))
    nu = _measure(rng, rng.randint(2, 3))
    full = CellSet.full(mu.n, nu.n)
    pis = (product_coupling(mu, nu),) + enumerate_couplings(mu, nu, resolution=2)
    for pi in pis:
        pi.check_marginals(mu, nu)
        assert pi.mass(full) == 1
        assert all(v >= 0 for row in pi.matrix for v in row)


@_prop
def prop_vertices_support_and_optimality(rng, t):
    mu = _measure(rng, rng.randint(2, 3))
    nu = _measure(rng, rng.randint(2, 3))
    vertices = transportation_vertices(mu, nu)
    assert vertices
    for v in vertices:
        v.check_marginals(mu, nu)
        assert len(v.support()) <= mu.n + nu.n - 1
    cells = _rand_cellset(rng, mu.n, nu.n)
    best, witness = max_mass_on_set(mu, nu, cells)
    assert witness.mass(cells) == best
    # a linear objective attains its maximum at a polytope vertex
    assert best == max(v.mass(cells) for v in vertices)


@_prop
def prop_glue_composes_marginals(rng, t):
    mu = _measure(rng, rng.randint(2, 3))
    nu = _measure(rng, rng.randint(2, 3))
    ta = _measure(rng, rng.randint(2, 3))
    pi1 = _rand_coupling(rng, mu, nu)
    pi2 = _rand_coupling(rng, nu, ta)
    tensor, xz = glue(pi1, pi2)
    xz.check_marginals(mu, ta)
    for x in range(mu.n):
        for y in range(nu.n):
            assert sum(tensor[x][y]) == pi1.matrix[x][y]
    for y in range(nu.n):
        for z in range(ta.n):
            assert (
                sum(tensor[x][y][z] for x in range(mu.n)) == pi2.matrix[y][z]
            )


@_prop
def prop_coupling_prohorov_identity(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 2, 2)
    pi = _rand_coupling(rng, X.measure, Y.measure)
    rho = _rand_coupling(rng, X.measure, Y.measure)
    assert coupling_prohorov(pi, pi, X.dist, Y.dist) == 0
    d = coupling_prohorov(pi, rho, X.dist, Y.dist)
    assert d >= 0
    assert d == coupling_prohorov(rho, pi, X.dist, Y.dist)


# ---------------------------------------------------------------------------
# Observable distance
# ---------------------------------------------------------------------------


@_prop
def prop_dconc_identity_symmetry(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    assert dconc_exact(X, X).value == 0
    res = dconc_exact(X, Y)
    assert 0 <= res.value <= 1
    assert dconc_exact(Y, X).value == res.value
    # the returned coupling certifies the value
    assert dconc_at_coupling(X, Y, res.coupling) == res.value


@_prop
def prop_dconc_triangle(rng, t):
    X = _space(rng, 2 + t % 2, 2)
    Y = _space(rng, 2, 2)
    Z = _space(rng, 2 + t % 2, 2)
    xz = dconc_exact(X, Z).value
    assert xz <= dconc_exact(X, Y).value + dconc_exact(Y, Z).value


@_prop
def prop_dconc_coupling_upper_bound(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    res = dconc_exact(X, Y)
    for pi in enumerate_couplings(X.measure, Y.measure, resolution=2):
        assert res.value <= dconc_at_coupling(X, Y, pi)


@_prop
def prop_dconc_heuristic_upper(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    exact = dconc_exact(X, Y).value
    val, pi = dconc_heuristic(X, Y, budget=6, seed=rng.getrandbits(32))
    assert val == dconc_at_coupling(X, Y, pi)
    assert exact <= val


@_prop
def prop_dconc_lower_witness_bounds(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    exact = dconc_exact(X, Y).value
    witness = X.features.rows[rng.randrange(X.k)]
    assert dconc_lower_witness(X, Y, witness) <= exact


@_prop
def prop_feature_transfer_minimizes(rng, t):
    X = _space(rng, 3, 3)
    Y = _space(rng, 3, 3)
    pi = _rand_coupling(rng, X.measure, Y.measure)
    partners = feature_transfer(X, Y, pi)
    for i, f in enumerate(X.features.rows):
        values = [ky_fan_coupling(pi, f, g) for g in Y.features.rows]
        assert values[partners[i]] == min(values)


@_prop
def prop_dconc_permutation_invariant(rng, t):
    X = _space(rng, 3, 3)
    Y = _space(rng, 3, 2)
    base = dconc_exact(X, Y).value
    Xp, _ = _permuted(rng, X)
    assert dconc_exact(Xp, Y).value == base


@_prop
def prop_quotient_shrinks_observable_distance(rng, t):
    # collapsing a subfamily on one side and its transferred partners on
    # the other pushes the optimal coupling forward, so the distance can
    # only drop
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    res = dconc_exact(X, Y)
    picks = rng.sample(range(X.k), rng.randint(1, X.k))
    Xq, _ = quotient_gds(X, [X.features.labels[i] for i in picks])
    partner_labels = sorted(
        {Y.features.labels[res.to_right[i]] for i in picks}
    )
    Yq, _ = quotient_gds(Y, partner_labels)
    assert Yq.k <= Xq.k
    assert dconc_exact(Xq, Yq).value <= res.value


@_prop
def prop_observable_diameter_comparison(rng, t):
    # any bound delta strictly above the observable distance transfers
    # diameter estimates between the spaces at a 2*delta penalty
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    delta = dconc_exact(X, Y).value + Q(1, 64)
    kappas = set(od_breakpoints(Y)) | {Q(rng.randint(1, 15), 16)}
    for kappa in kappas:
        lhs = observable_diameter(X, kappa + delta)
        assert lhs <= observable_diameter(Y, kappa) + 2 * delta


# ---------------------------------------------------------------------------
# Box distance
# ---------------------------------------------------------------------------


@_prop
def prop_box_identity_symmetry(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 2, 2)
    assert box_exact(X, X).value == 0
    res = box_exact(X, Y)
    assert 0 <= res.value <= 1
    assert box_exact(Y, X).value == res.value
    assert (
        box_objective(res.coupling, res.cells, X.features, Y.features)
        == res.value
    )


@_prop
def prop_box_triangle(rng, t):
    X = _space(rng, 2 + t % 2, 2)
    Y = _space(rng, 2, 2)
    Z = _space(rng, 2 + t % 2, 2)
    xz = box_exact(X, Z).value
    assert xz <= box_exact(X, Y).value + box_exact(Y, Z).value


@_prop
def prop_dconc_below_box(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    assert dconc_exact(X, Y).value <= box_exact(X, Y).value


@_prop
def prop_distortion_below_fixed_box(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    pi = _rand_coupling(rng, X.measure, Y.measure)
    dis_val, _ = dis_coupling(pi, X.dist, Y.dist)
    fixed_val, _ = box_fixed_coupling(X, Y, pi)
    assert dis_val <= fixed_val
    assert box_exact(X, Y).value <= fixed_val


@_prop
def prop_dis_coupling_matches_mask_enumeration(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    pi = _rand_coupling(rng, X.measure, Y.measure)
    val, cells = dis_coupling(pi, X.dist, Y.dist)
    score = max(1 - pi.mass(cells), distortion(cells, X.dist, Y.dist))
    assert val == score, f"dis_coupling gives {val}, its cell set scores {score}"
    support = [
        (x, y)
        for x in range(X.n)
        for y in range(Y.n)
        if pi.matrix[x][y] > 0
    ]
    weights = [pi.matrix[x][y] for x, y in support]
    kept = _by_mask(len(support), lambda k, low, rest: k + weights[low])
    dis = _distortions(support, X.dist, Y.dist)
    # the empty set always scores 1
    best = min([Q(1)] + [max(1 - kept[mask], dis[mask]) for mask in range(1, len(dis))])
    assert val == best, f"dis_coupling gives {val}, the enumeration {best}"


@_prop
def prop_lip1_witness_postconditions(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    cells = [(x, y) for x in range(X.n) for y in range(Y.n)]
    S = rng.sample(cells, rng.randint(1, len(cells)))
    f = X.features.rows[rng.randrange(X.k)]
    g = lip1_witness(S, f, X.dist, Y.dist)
    dis = distortion(S, X.dist, Y.dist)
    half = dis / 2 if dis else 0
    for y1 in range(Y.n):
        for y2 in range(Y.n):
            assert abs(g[y1] - g[y2]) <= Y.dist[y1][y2]
    assert all(abs(f[x] - g[y]) <= half for x, y in S)


@_prop
def prop_lip1_two_point_tight(rng, t):
    # two cells, one distance on each side: the transported function sits
    # exactly dis/2 away, and when the source distance is the larger one
    # no 1-Lipschitz partner can do better
    D = Q(rng.randint(1, 16), 16)
    e = Q(rng.randint(1, 16), 16)
    X = GeometricDataSet.build([(Q(0), D)], [Q(1, 2), Q(1, 2)])
    Y = GeometricDataSet.build([(Q(0), e)], [Q(1, 2), Q(1, 2)])
    S = ((0, 0), (1, 1))
    f = X.features.rows[0]
    g = lip1_witness(S, f, X.dist, Y.dist)
    achieved = max(abs(f[0] - g[0]), abs(f[1] - g[1]))
    assert 2 * achieved == abs(D - e)
    if D >= e:
        assert achieved == (D - e) / 2


@_prop
def prop_box_permutation_invariant(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 2, 2)
    base = box_exact(X, Y).value
    Xp, _ = _permuted(rng, X)
    assert box_exact(Xp, Y).value == base


@_prop
def prop_box_heuristic_upper(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 2, 2)
    exact = box_exact(X, Y).value
    h = box_heuristic(X, Y, budget=80, seed=rng.getrandbits(32))
    assert exact <= h <= 1


@_prop
def prop_coupling_continuity_bounds(rng, t):
    # moving the coupling moves the fixed-coupling scores at most linearly
    # in the Prohorov distance between the couplings
    X = _space(rng, 3, 2)
    Y = _space(rng, 3, 2)
    pi = _rand_coupling(rng, X.measure, Y.measure)
    rho = _rand_coupling(rng, X.measure, Y.measure)
    dp = coupling_prohorov(pi, rho, X.dist, Y.dist)
    a = dconc_at_coupling(X, Y, pi)
    b = dconc_at_coupling(X, Y, rho)
    assert abs(a - b) <= 2 * dp
    box_a, _ = box_fixed_coupling(X, Y, pi)
    box_b, _ = box_fixed_coupling(X, Y, rho)
    assert abs(box_a - box_b) <= 4 * dp


@_prop
def prop_box_mm_two_point_value(rng, t):
    d = Q(rng.randint(1, 16), 16)
    pair = MmSpace.build([[0, d], [d, 0]], [Q(1, 2), Q(1, 2)])
    point = MmSpace.build([[0]], [Q(1)])
    assert box_mm_exact(pair, point) == min(d, Q(1, 2))
    assert box_mm_exact(pair, pair) == 0


@_prop
def prop_box_mm_matches_mask_enumeration(rng, t):
    MX = gds_to_mm(_space(rng, 3, 2))
    MY = gds_to_mm(_space(rng, 2, 2))
    cells = [(x, y) for x in range(MX.n) for y in range(MY.n)]
    dis = _distortions(cells, MX.dist, MY.dist)
    got = box_mm_exact(MX, MY)
    best = _least_score(MX.measure, MY.measure, len(cells), dis.__getitem__)
    assert got == best, f"box_mm_exact gives {got}, the enumeration {best}"


@_prop
def prop_box_matches_mask_enumeration(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 2, 2)
    # gaps[f][g][c]: |f(x) - g(y)| at cell c = x * m + y
    gaps = [[[abs(a - b) for a in f for b in g] for g in Y.features.rows] for f in X.features.rows]

    def spread(mask):  # twice the Hausdorff value of sup_pseudometric on mask
        sup = lambda per_g, g: max(d for c, d in enumerate(per_g[g]) if mask >> c & 1)
        return 2 * hausdorff(gaps, range(Y.k), sup)

    got = box_exact(X, Y).value
    best = _least_score(X.measure, Y.measure, X.n * Y.n, spread)
    assert got == best, f"box_exact gives {got}, the enumeration {best}"


# ---------------------------------------------------------------------------
# Products and quotients
# ---------------------------------------------------------------------------


@_prop
def prop_product_metric_and_marginals(rng, t):
    X = _space(rng, 3, 2)
    Y = _space(rng, 2, 2)
    P = product_gds(X, Y)
    assert P.n == X.n * Y.n
    for x1 in range(X.n):
        for y1 in range(Y.n):
            u = x1 * Y.n + y1
            expected = X.measure.weights[x1] * Y.measure.weights[y1]
            assert P.measure.weights[u] == expected
            for x2 in range(X.n):
                for y2 in range(Y.n):
                    v = x2 * Y.n + y2
                    assert P.dist[u][v] == max(
                        X.dist[x1][x2], Y.dist[y1][y2]
                    )


@_prop
def prop_product_projections_dominate(rng, t):
    X = _space(rng, 2, 2)
    Y = _space(rng, 2 + t % 2, 2)
    P = product_gds(X, Y)
    assert check_domination(P, X)[0]
    assert check_domination(P, Y)[0]


@_prop
def prop_quotient_map_properties(rng, t):
    X = _space(rng, 4, 3)
    picks = rng.sample(range(X.k), rng.randint(1, X.k))
    labels = [X.features.labels[i] for i in picks]
    Y, qmap = quotient_gds(X, labels)
    assert sorted(set(qmap)) == list(range(Y.n))
    for j in range(Y.n):
        merged = sum(
            X.measure.weights[x] for x in range(X.n) if qmap[x] == j
        )
        assert Y.measure.weights[j] == merged
    for lab in labels:
        up = X.features.by_label(lab)
        down = Y.features.by_label(lab)
        assert all(down[qmap[x]] == up[x] for x in range(X.n))
    for x in range(X.n):
        for y in range(X.n):
            assert Y.dist[qmap[x]][qmap[y]] <= X.dist[x][y]
    # quotient by the full family of a separated space merges nothing
    Z, _ = quotient_gds(X, list(X.features.labels))
    assert Z.n == X.n


@_prop
def prop_quotient_universal_property(rng, t):
    # any measure-preserving map whose pullbacks stay inside the collapsed
    # subfamily factors uniquely through the quotient
    X = _space(rng, 3, 3)
    g_idx = rng.sample(range(X.k), rng.randint(1, X.k))
    sub_idx = rng.sample(g_idx, rng.randint(1, len(g_idx)))
    XG, qG = quotient_gds(X, [X.features.labels[i] for i in g_idx])
    Z, qZ = quotient_gds(X, [X.features.labels[i] for i in sub_idx])
    g_rows = [X.features.rows[i] for i in g_idx]
    found = 0
    for phi in itertools.product(range(Z.n), repeat=X.n):
        if pushforward_vector(X.measure, phi, Z.n) != tuple(
            Z.measure.weights
        ):
            continue
        pulled = [
            tuple(r[phi[x]] for x in range(X.n)) for r in Z.features.rows
        ]
        if not all(p in g_rows for p in pulled):
            continue
        found += 1
        descents = [
            h
            for h in itertools.product(range(Z.n), repeat=XG.n)
            if all(h[qG[x]] == phi[x] for x in range(X.n))
        ]
        assert len(descents) == 1
    assert found >= 1  # the canonical map itself qualifies


@_prop
def prop_discrete_space_diameters(rng, t):
    N = rng.randint(2, 6)
    X = n_point_discrete(N)
    kappa = Q(rng.randint(0, 19), 20)
    expected = 1 if kappa < Q(1, N) else 0
    assert observable_diameter(X, kappa) == expected


# ---------------------------------------------------------------------------
# Domination order
# ---------------------------------------------------------------------------


@_prop
def prop_domination_reflexive_and_quotient(rng, t):
    X = _space(rng, 3, 2)
    assert check_domination(X, X)[0]
    Y, _ = quotient_gds(X, [X.features.labels[rng.randrange(X.k)]])
    assert check_domination(X, Y)[0]


@_prop
def prop_domination_transitive(rng, t):
    X = _space(rng, 3, 3)
    g_idx = rng.sample(range(X.k), rng.randint(1, X.k))
    sub_idx = rng.sample(g_idx, 1)
    Y, _ = quotient_gds(X, [X.features.labels[i] for i in g_idx])
    Z, _ = quotient_gds(X, [X.features.labels[i] for i in sub_idx])
    assert check_domination(X, Y)[0]
    assert check_domination(Y, Z)[0]
    assert check_domination(X, Z)[0]


@_prop
def prop_isomorphism_on_relabeled(rng, t):
    X = _space(rng, 3, 3)
    Y, _ = _permuted(rng, X)
    assert check_domination(X, Y)[0]
    assert check_domination(Y, X)[0]
    assert check_isomorphism(X, Y)[0]


@_prop
def prop_constant_features_separate(rng, t):
    lo = singleton_gds([Q(0)])
    hi = singleton_gds([Q(1)])
    assert not check_domination(lo, hi)[0]
    assert not check_domination(hi, lo)[0]
    assert not check_isomorphism(lo, hi)[0]
    assert check_isomorphism(lo, singleton_gds([Q(0)]))[0]
    a = Q(rng.randint(0, 8), 8)
    b = Q(rng.randint(0, 8), 8)
    verdict = check_domination(singleton_gds([a]), singleton_gds([b]))[0]
    assert verdict == (a == b)


# ---------------------------------------------------------------------------
# Observations
# ---------------------------------------------------------------------------


@_observation
def obs_lip1_transport_orientation(rng, trials):
    # On a two-cell set the transported function always lands dis/2 from
    # its source.  That is optimal when the source metric dominates; when
    # the target metric is the larger one the true optimum is 0, so the
    # gap below measures one-sided slack, not an error.
    tight = 0
    worst = Q(0)
    for _ in range(trials):
        D = Q(rng.randint(1, 16), 16)
        e = Q(rng.randint(1, 16), 16)
        X = GeometricDataSet.build([(Q(0), D)], [Q(1, 2), Q(1, 2)])
        Y = GeometricDataSet.build([(Q(0), e)], [Q(1, 2), Q(1, 2)])
        f = X.features.rows[0]
        g = lip1_witness(((0, 0), (1, 1)), f, X.dist, Y.dist)
        achieved = max(abs(f[0] - g[0]), abs(f[1] - g[1]))
        optimal = (D - e) / 2 if D > e else Q(0)
        excess = achieved - optimal
        if excess == 0:
            tight += 1
        elif excess > worst:
            worst = excess
    return (
        f"transport tight in {tight}/{trials} trials, worst excess {worst};"
        " slack appears only when the target metric is larger"
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def property_names() -> tuple:
    """All property names, asserted checks first."""
    return tuple(name for name, _ in _CHECKS) + tuple(
        name for name, _ in _OBSERVATIONS
    )


def _run_check(name, check, seed: int, trials: int) -> PropertyOutcome:
    rng = random.Random(f"{seed}/{name}")
    failures = 0
    example = None
    for t in range(trials):
        try:
            check(rng, t)
        except Exception as exc:  # a failure report, not control flow
            failures += 1
            if example is None:
                detail = str(exc) or type(exc).__name__
                example = f"trial {t}: {detail}"
    return PropertyOutcome(name, True, trials, failures, example)


def _run_observation(name, run, seed: int, trials: int) -> PropertyOutcome:
    rng = random.Random(f"{seed}/{name}")
    note = run(rng, trials) if trials else "no trials run"
    return PropertyOutcome(name, False, trials, 0, note)


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise GdsError(f"trials must be at least 0, not {trials}")


def run_property(name: str, seed: int = 0, trials: int = 25) -> PropertyOutcome:
    """Run a single named property; useful for bisecting a failure."""
    _check_trials(trials)
    for known, check in _CHECKS:
        if known == name:
            return _run_check(name, check, seed, trials)
    for known, run in _OBSERVATIONS:
        if known == name:
            return _run_observation(name, run, seed, trials)
    raise KeyError(f"unknown property {name!r}")


def verify_theorem_suite(seed: int = 0, trials: int = 25) -> SuiteReport:
    """Run every registered property on seed-deterministic inputs.

    The same (seed, trials) pair always exercises the same instances, so a
    reported failure can be replayed with run_property.  trials=0 yields
    an empty passing report; a negative count is refused.
    """
    _check_trials(trials)
    outcomes = [
        _run_check(name, check, seed, trials) for name, check in _CHECKS
    ]
    outcomes.extend(
        _run_observation(name, run, seed, trials)
        for name, run in _OBSERVATIONS
    )
    return SuiteReport(seed, trials, tuple(outcomes))
