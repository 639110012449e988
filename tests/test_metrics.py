import functools
from bisect import bisect_left
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from gds import (
    CellSet,
    DiscreteMeasure,
    distortion,
    hausdorff,
    ky_fan,
    ky_fan_coupling,
    observable_diameter,
    od_breakpoints,
    partial_diameter,
    prohorov,
    sup_pseudometric,
)
from gds.metrics import GapTable, crossing, prohorov_weights
from gds.coupling import product_coupling
from gds.errors import GdsError, ModeMismatch, SupportError
from gds.numerics import EXACT, FLOAT_TOL, Q, to_scalar, unscaled
from gds.spaces import n_point_discrete, random_gds


def ky_fan_scan(mu, a, b):
    """Independent check: scan the intervals between jump points.

    The exceedance mass is constant on each interval between consecutive
    distinct gap values; on such an interval the objective max(eps, mass)
    is minimized at the left end or at the mass value, whichever is
    feasible inside the interval.
    """
    diffs = [abs(x - y) for x, y in zip(a, b)]
    levels = sorted({Q(0)} | {Q(d) for d in diffs})
    best = None
    for idx, lo in enumerate(levels):
        mass = sum(w for w, d in zip(mu.weights, diffs) if d > lo)
        cand = max(lo, mass)
        hi = levels[idx + 1] if idx + 1 < len(levels) else None
        if hi is not None and cand >= hi:
            continue
        if best is None or cand < best:
            best = cand
    return best


def uniform_weights(n):
    return DiscreteMeasure.uniform(n)


vectors = st.lists(
    st.fractions(min_value=0, max_value=2, max_denominator=8),
    min_size=1,
    max_size=5,
)


class TestCellSet:
    def test_round_trip_mask(self):
        S = CellSet.from_pairs(2, 2, [(0, 1), (1, 0)])
        assert CellSet.from_mask(2, 2, S.to_mask()) == S

    def test_mask_bit_off_the_grid_is_refused(self):
        # Bit 6 of a 3x2 grid is cell (3, 0), off the grid, refused as from_pairs refuses it.
        assert CellSet.from_mask(3, 2, 0b100001) == CellSet.from_pairs(3, 2, [(0, 0), (2, 1)])
        with pytest.raises(GdsError, match=r"cell \(3,0\) outside 3x2 grid"):
            CellSet.from_mask(3, 2, 1 << 6)

    def test_full_and_empty(self):
        full = CellSet.full(2, 3)
        assert len(full.sorted_cells) == 6
        assert CellSet.empty(2, 3).sorted_cells == ()
        assert full.complement().sorted_cells == ()

    def test_complement(self):
        S = CellSet.from_pairs(2, 2, [(0, 0)])
        assert set(S.complement().sorted_cells) == {(0, 1), (1, 0), (1, 1)}


class TestKyFan:
    def test_equal_functions(self):
        mu = uniform_weights(3)
        assert ky_fan(mu, [0, 1, 2], [0, 1, 2]) == 0

    def test_half_mass_jump(self):
        # one point of mass 1/2 differs by a full unit
        mu = DiscreteMeasure.from_weights([Q(1, 2), Q(1, 2)])
        assert ky_fan(mu, [0, 0], [1, 0]) == Q(1, 2)

    def test_small_gap_wins_over_mass(self):
        # gap 1/8 everywhere: eps = 1/8 kills all mass
        mu = uniform_weights(4)
        a = [Q(j, 8) for j in range(4)]
        b = [v + Q(1, 8) for v in a]
        assert ky_fan(mu, a, b) == Q(1, 8)

    def test_minimum_at_mass_value_not_a_gap(self):
        # gap 1 on a 1/3-mass point: best eps is the mass itself
        mu = DiscreteMeasure.from_weights([Q(1, 3), Q(2, 3)])
        assert ky_fan(mu, [1, 0], [0, 0]) == Q(1, 3)

    @given(vectors, vectors, st.randoms(use_true_random=False))
    def test_matches_direct_scan(self, a, b, rnd):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        mu = uniform_weights(n)
        got = ky_fan(mu, [Q(v) for v in a], [Q(v) for v in b])
        assert got == ky_fan_scan(mu, [Q(v) for v in a], [Q(v) for v in b])

    @given(vectors, vectors, vectors)
    def test_metric_properties(self, a, b, c):
        n = min(len(a), len(b), len(c))
        a, b, c = a[:n], a and b[:n], c[:n]
        a = [Q(v) for v in a[:n]]
        b = [Q(v) for v in b[:n]]
        c = [Q(v) for v in c[:n]]
        mu = uniform_weights(n)
        ab, ba = ky_fan(mu, a, b), ky_fan(mu, b, a)
        assert ab == ba
        assert 0 <= ab <= 1
        assert ab <= ky_fan(mu, a, c) + ky_fan(mu, c, b)

    @given(
        st.lists(st.integers(0, 3), min_size=4, max_size=16),
        vectors,
        vectors,
    )
    def test_coupling_form_with_zero_cells_matches_scan(self, raw, f, g):
        # Witness couplings put zero mass on many cells; those cells still
        # carry gaps, which the scan oracle counts as interval starts.
        n, m = len(f), len(g)
        raw = (raw * (n * m))[: n * m]
        if not any(raw):
            raw[0] = 1
        total = sum(raw)
        matrix = [[Q(raw[i * m + j], total) for j in range(m)] for i in range(n)]
        flat = SimpleNamespace(weights=[v for row in matrix for v in row])
        a = [Q(f[i]) for i in range(n) for _ in range(m)]
        b = [Q(g[j]) for _ in range(n) for j in range(m)]
        got = ky_fan_coupling(matrix, [Q(v) for v in f], [Q(v) for v in g])
        assert got == ky_fan_scan(flat, a, b)
        fmatrix = [[float(v) for v in row] for row in matrix]
        fgot = ky_fan_coupling(fmatrix, [float(v) for v in f], [float(v) for v in g])
        assert abs(fgot - float(got)) <= FLOAT_TOL

    def test_coupling_form_on_product(self):
        mu = uniform_weights(2)
        nu = uniform_weights(2)
        pi = product_coupling(mu, nu)
        # f on rows, g on columns; diagonal cells agree, off-diagonal gap 1
        val = ky_fan_coupling(pi, [0, 1], [0, 1])
        assert val == Q(1, 2)


class TestSupPseudometricAndHausdorff:
    def test_sup_over_cells(self):
        cells = CellSet.from_pairs(2, 2, [(0, 0), (1, 1)])
        assert sup_pseudometric([0, 1], [Q(1, 4), Q(1, 2)], cells.sorted_cells) == Q(1, 2)

    def test_empty_cellset_gives_zero(self):
        assert sup_pseudometric([0, 1], [5, 9], ()) == 0

    def test_hausdorff_known_value(self):
        dist = lambda a, b: abs(a - b)
        assert hausdorff([0, 4], [1], dist) == 3
        assert hausdorff([1], [0, 4], dist) == 3

    def test_hausdorff_subset_is_directed(self):
        dist = lambda a, b: abs(a - b)
        # every a has a near b but not conversely
        assert hausdorff([0], [0, 10], dist) == 10

    def test_hausdorff_evaluates_each_pair_once(self):
        calls = []

        def dist(a, b):
            calls.append((a, b))
            return abs(a - b)

        assert hausdorff([0, 4, 7], [1, 5], dist) == 2
        assert sorted(calls) == [(a, b) for a in (0, 4, 7) for b in (1, 5)]


class TestProhorov:
    def test_identical_measures(self):
        d = [[0, 1], [1, 0]]
        mu = [Q(1, 2), Q(1, 2)]
        assert prohorov_weights(mu, mu, d) == 0

    def test_mass_moved_across_unit_gap(self):
        d = [[0, 1], [1, 0]]
        assert prohorov_weights([1, 0], [0, 1], d) == 1
        assert prohorov_weights([Q(3, 4), Q(1, 4)], [Q(1, 4), Q(3, 4)], d) == Q(1, 2)

    def test_zero_weights_allowed(self):
        d = [[0, 1], [1, 0]]
        assert prohorov_weights([1, 0], [1, 0], d) == 0

    @given(
        st.integers(2, 5),
        st.randoms(use_true_random=False),
    )
    def test_brute_agrees_with_flow(self, n, rnd):
        X = random_gds(n, 2, seed=rnd.randrange(10**6))
        raw = [rnd.randrange(4) for _ in range(n)]
        if sum(raw) == 0:
            raw[0] = 1
        tot = sum(raw)
        nu = [Q(r, tot) for r in raw]
        mu = list(X.measure.weights)
        brute = prohorov_weights(mu, nu, X.dist, method="brute")
        flow = prohorov_weights(mu, nu, X.dist, method="flow")
        assert brute == flow

    def test_measure_level_wrapper(self):
        mu = DiscreteMeasure.uniform(2)
        nu = DiscreteMeasure.from_weights([Q(1, 4), Q(3, 4)])
        d = [[0, Q(1, 2)], [Q(1, 2), 0]]
        assert prohorov(mu, nu, d) == prohorov_weights(mu.weights, nu.weights, d)

    @pytest.mark.parametrize("weights_mode", ["exact", "float"])
    def test_flow_refuses_mixed_modes(self, weights_mode):
        # Exact weights on float distances once returned 5 where the value
        # is 1/26; float weights on exact distances raised TypeError.
        dist_mode = "float" if weights_mode == "exact" else "exact"
        X, Z = (random_gds(3, 2, seed=s, mode=weights_mode) for s in (1, 3))
        dist = random_gds(3, 2, seed=1, mode=dist_mode).dist
        with pytest.raises(ModeMismatch):
            prohorov(X.measure, Z.measure, dist, "flow")
        assert prohorov(X.measure, Z.measure, X.dist, "flow") == pytest.approx(1 / 26)


class TestDiameters:
    def test_partial_diameter_trims_mass(self):
        mu = DiscreteMeasure.uniform(4)
        vals = [0, 1, 2, 10]
        # catching 3/4 of the mass lets the outlier go
        assert partial_diameter(vals, mu, Q(3, 4)) == 2
        assert partial_diameter(vals, mu, 1) == 10
        assert partial_diameter(vals, mu, 0) == 0

    def test_partial_diameter_monotone_in_alpha(self):
        mu = DiscreteMeasure.uniform(5)
        vals = [Q(j, 3) for j in range(5)]
        prev = None
        for a in [Q(1, 5), Q(2, 5), Q(3, 5), Q(4, 5), 1]:
            cur = partial_diameter(vals, mu, a)
            if prev is not None:
                assert cur >= prev
            prev = cur

    def test_float_weights_just_under_one_cover_full_mass(self):
        # Summed atom by atom, these float weights come to just under 1, so
        # at kappa = 0 coverage of alpha = 1 is judged within FLOAT_TOL.
        X = random_gds(8, 3, seed=0, mode="float")
        exact = observable_diameter(random_gds(8, 3, seed=0), 0)
        assert abs(observable_diameter(X, 0) - exact) <= FLOAT_TOL

    def test_catching_one_atom_needs_no_width(self):
        mu = DiscreteMeasure.uniform(2)
        assert partial_diameter([0, 1], mu, Q(1, 2)) == 0

    def test_observable_diameter_discrete(self):
        # N-point uniform discrete space: 1 below the 1/N threshold, then 0
        for N in (2, 3, 5):
            X = n_point_discrete(N)
            assert observable_diameter(X, 0) == 1
            assert observable_diameter(X, Q(1, N) - Q(1, 100)) == 1
            assert observable_diameter(X, Q(1, N)) == 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_observable_diameter_refuses_negative_kappa(self, mode):
        X = n_point_discrete(3, mode=mode)
        with pytest.raises(GdsError, match="kappa"):
            observable_diameter(X, to_scalar("-1/8", mode))

    def test_breakpoints_contain_zero_and_are_sorted(self):
        X = n_point_discrete(3)
        bps = od_breakpoints(X)
        assert bps[0] == 0
        assert list(bps) == sorted(set(bps))
        assert all(0 <= b < 1 for b in bps)

    def test_od_is_right_step_constant_between_breakpoints(self):
        X = random_gds(4, 2, seed=5)
        bps = od_breakpoints(X)
        for idx, b in enumerate(bps):
            hi = bps[idx + 1] if idx + 1 < len(bps) else Q(1)
            mid = (b + hi) / 2
            assert observable_diameter(X, mid) == observable_diameter(X, b)


def plain_crossing(count, rise, fall):
    """crossing by plain bisection on whether rise reaches fall: the
    oracle for the bracketing search, which must land on the same index
    and return the same value and witness."""
    at = functools.cache(fall)
    c = bisect_left(range(count - 1), True, key=lambda i: rise(i) >= at(i)[0])
    candidates = [(max(rise(i), at(i)[0]), at(i)[1]) for i in range(max(c - 1, 0), c + 1)]
    return min(candidates, key=lambda vw: vw[0])


class TestCrossing:
    @given(
        st.integers(1, 12).flatmap(
            lambda count: st.tuples(
                st.integers(-3, 3),
                st.lists(st.integers(0, 2), min_size=count, max_size=count),
                st.integers(-3, 9),
                st.lists(st.integers(0, 2), min_size=count, max_size=count),
            )
        )
    )
    def test_matches_linear_scan(self, drawn):
        # Small steps make ties common: between rise and fall at one
        # index, and between the values of neighbouring indices.
        rise_start, rise_steps, fall_start, fall_steps = drawn
        rise = [rise_start + sum(rise_steps[:i]) for i in range(len(rise_steps))]
        fall = [fall_start - sum(fall_steps[:i]) for i in range(len(fall_steps))]
        fall[-1] = min(fall[-1], rise[-1])  # rise reaches fall at the last index
        count = len(rise)
        calls = []

        def fall_at(i):
            calls.append(i)
            return fall[i], ("witness", i)

        value, witness = crossing(count, rise.__getitem__, fall_at, fall[0])
        values = [max(r, f) for r, f in zip(rise, fall)]
        # Only the crossing and its predecessor are read; an earlier index
        # can tie the minimum only through a fall equal to the predecessor's.
        cross = next(i for i in range(count) if rise[i] >= fall[i])
        first = next(
            i for i in range(max(cross - 1, 0), count) if values[i] == min(values)
        )
        assert value == min(values)
        assert witness == ("witness", first)
        assert len(calls) == len(set(calls))
        assert len(calls) <= (count - 1).bit_length() + 2

    def test_predecessor_wins_a_tie(self):
        # rise 1, 3 against fall 3, 1: both indices attain 3.
        rise, fall = [1, 3], [3, 1]
        got = crossing(2, rise.__getitem__, lambda i: (fall[i], i), 3)
        assert got == (3, 0)

    @given(
        st.integers(1, 40).flatmap(
            lambda count: st.tuples(
                st.integers(-3, 3),
                st.lists(st.integers(0, 2), min_size=count, max_size=count),
                st.integers(-3, 30),
                st.lists(st.integers(0, 2), min_size=count, max_size=count),
                st.integers(0, 4),
            )
        )
    )
    # rise is the index and fall 4, 3, 2, 1, 0, 0, ...: with top 4 no
    # index past 4 may be read, though the grid runs to 39.
    @example((0, [1] * 40, 4, [1] * 4 + [0] * 36, 0))
    def test_matches_plain_bisection(self, drawn):
        # Steps of 0 make flat runs of rise and of fall, so a probe's fall
        # value often ties rises on both sides of it.
        rise_start, rise_steps, fall_start, fall_steps, slack = drawn
        rise = [rise_start + sum(rise_steps[:i]) for i in range(len(rise_steps))]
        fall = [fall_start - sum(fall_steps[:i]) for i in range(len(fall_steps))]
        fall[-1] = min(fall[-1], rise[-1])
        count, top = len(rise), fall[0] + slack
        calls = []

        def fall_at(i):
            calls.append(i)
            return fall[i], ("witness", i)

        got = crossing(count, rise.__getitem__, fall_at, top)
        assert got == plain_crossing(
            count, rise.__getitem__, lambda i: (fall[i], ("witness", i))
        )
        assert len(calls) == len(set(calls))
        assert len(calls) <= (count - 1).bit_length() + 2
        # fall is at most top, so no index past the first rise reaching
        # top can be the crossing or its predecessor.
        first_top = next((i for i in range(count) if rise[i] >= top), count - 1)
        assert max(calls) <= first_top

    def test_read_values_bracket_the_crossing(self):
        # rise is the index; fall is 7 up to index 9 and 0 from 10, so
        # rise first reaches fall at 7.  The probe at 15 reads 0, which
        # every rise reaches; the probe at 7 reads 7, which rise first
        # reaches at 7, so the bracket closes there; its predecessor 6
        # ties at 7 and wins.  Plain bisection reads 15, 7, 3, 5 and 6.
        rise = list(range(32))
        fall = [7] * 10 + [0] * 22
        calls = []

        def fall_at(i):
            calls.append(i)
            return fall[i], i

        assert crossing(32, rise.__getitem__, fall_at, 31) == (7, 6)
        assert calls == [15, 7, 6]


class TestGapTable:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("seed", range(6))
    def test_allowed_matches_the_raw_gaps(self, mode, seed):
        # X and Y on different lattices, so the joint scale is not either's.
        X = random_gds(2 + seed % 3, 1 + seed % 2, seed=seed, scale=6, mode=mode)
        Y = random_gds(3, 2, seed=100 + seed, scale=5, mode=mode)
        table = GapTable(X.features.rows, Y.features.rows)
        assert (table.n, table.m, table.kx, table.ky) == (X.n, Y.n, X.k, Y.k)
        levels = sorted({0} | table.gaps())
        raw = {
            abs(f[x] - g[y])
            for f in X.features.rows
            for g in Y.features.rows
            for x in range(X.n)
            for y in range(Y.n)
        }
        assert {unscaled(h, table.scale) for h in levels} == {0} | raw
        for h in levels:
            level = unscaled(h, table.scale)
            for i, f in enumerate(X.features.rows):
                for j, g in enumerate(Y.features.rows):
                    want = sum(
                        1 << (x * Y.n + y)
                        for x in range(X.n)
                        for y in range(Y.n)
                        if abs(f[x] - g[y]) <= level
                    )
                    assert table.allowed(i, j, h) == want


class TestModeScalars:
    @pytest.mark.parametrize("mode, scalar", [("exact", Q), ("float", float)])
    def test_zero_values_are_the_mode_scalar(self, mode, scalar):
        # alpha <= 0 needs no interval, and a set of fewer than two cells
        # has no pair to disagree on.
        X = random_gds(3, 2, seed=1, mode=mode)
        row = X.features.rows[0]
        values = [
            partial_diameter(row, X.measure, 0),
            partial_diameter(row, X.measure, -1),
            observable_diameter(X, 1),
            distortion([], X.dist, X.dist),
            distortion([(1, 2)], X.dist, X.dist),
        ]
        for value in values:
            assert type(value) is scalar and value == 0
