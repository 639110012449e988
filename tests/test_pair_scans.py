"""The shared pair scans of gds.core: close_pairs and lip_violation."""

import random
import warnings

import pytest
from hypothesis import given, strategies as st

from gds import GeometricDataSet
from gds.core import close_pairs, lip_violation
from gds.errors import SeparationFailure
from gds.numerics import EXACT, FLOAT, FLOAT_TOL, Q
from gds.spaces import quotient_gds, random_gds

# Offsets at, inside and just outside the float tolerance.
OFFSETS = (0.0, 0.5 * FLOAT_TOL, FLOAT_TOL, 1.000001 * FLOAT_TOL, 2 * FLOAT_TOL)


def brute_close_pairs(rows, tol):
    n = len(rows[0])
    return [
        (x, y)
        for x in range(n)
        for y in range(x + 1, n)
        if all(abs(r[x] - r[y]) <= tol for r in rows)
    ]


def brute_lip_violation(row, dist, tol, ordered):
    n = len(dist)
    for x in range(n):
        for y in range(n):
            if (ordered or x < y) and abs(row[x] - row[y]) > dist[x][y] + tol:
                return x, y
    return None


exact_rows = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 3).map(lambda v: Q(v, 3)), min_size=n, max_size=n),
        min_size=1,
        max_size=3,
    )
)
float_rows = st.integers(1, 12).flatmap(
    lambda n: st.lists(
        st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from(OFFSETS)).map(
                lambda vo: vo[0] / 2 + vo[1]
            ),
            min_size=n,
            max_size=n,
        ),
        min_size=1,
        max_size=3,
    )
)


class TestClosePairs:
    @given(exact_rows)
    def test_exact_matches_brute_scan(self, rows):
        assert close_pairs(rows, 0) == brute_close_pairs(rows, 0)

    @given(float_rows)
    def test_float_matches_brute_scan(self, rows):
        assert close_pairs(rows, FLOAT_TOL) == brute_close_pairs(rows, FLOAT_TOL)

    def test_seeded_float_inputs_hit_both_sides_of_the_tolerance(self):
        rng = random.Random(7)
        merged = refused = 0
        for _ in range(300):
            n = rng.randint(2, 10)
            rows = [
                [rng.randrange(3) / 4 + rng.choice(OFFSETS) for _ in range(n)]
                for _ in range(rng.randint(1, 3))
            ]
            pairs = close_pairs(rows, FLOAT_TOL)
            assert pairs == brute_close_pairs(rows, FLOAT_TOL)
            merged += sum(any(r[x] != r[y] for r in rows) for x, y in pairs)
            refused += len(brute_close_pairs(rows, 3 * FLOAT_TOL)) - len(pairs)
        # pairs within the tolerance but unequal, and pairs just outside it
        assert merged > 0 and refused > 0


class TestSeparation:
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_first_pair_not_adjacent_in_index_order(self, mode):
        # columns A B B A: the first pair reported is (0, 3), not (1, 2)
        a, b = (0, 1) if mode == EXACT else (0.0, 1.0)
        weights = [Q(1, 4)] * 4 if mode == EXACT else [0.25] * 4
        message = "^features do not separate points 0 and 3$"
        with pytest.raises(SeparationFailure, match=message):
            GeometricDataSet.build([[a, b, b, a], [b, a, a, b]], weights, mode=mode)

    def test_first_pair_not_adjacent_in_sort_order(self):
        # sorted on the first row, point 1 sits between the equal columns 0 and 2
        with pytest.raises(SeparationFailure, match="points 0 and 2$"):
            GeometricDataSet.build([[0, 0, 0, 1, 2], [0, 1, 0, 2, 2]], [Q(1, 5)] * 5)

    def test_float_pair_within_tolerance_is_refused(self):
        with pytest.raises(SeparationFailure, match="points 0 and 1$"):
            GeometricDataSet.build([[0.0, 5e-10, 1.0]], [0.25, 0.25, 0.5], mode=FLOAT)
        X = GeometricDataSet.build([[0.0, 2e-9, 1.0]], [0.25, 0.25, 0.5], mode=FLOAT)
        assert X.n == 3

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_building_does_not_build_the_metric(self, mode):
        weights = [Q(1, 3)] * 3 if mode == EXACT else [1 / 3] * 3
        X = GeometricDataSet.build([[0, 1, 2], [2, 1, 1]], weights, mode=mode)
        assert "dist" not in vars(X)
        Y = random_gds(50, 2, seed=3, mode=mode)
        assert "dist" not in vars(Y)
        assert Y.dist[0][1] > 0
        assert "dist" in vars(Y)


class TestQuotientMerging:
    def test_float_chain_merge_keeps_mapping_and_warning(self):
        # 0~1 and 1~2 lie within the tolerance, 0 and 2 do not; the chain
        # still merges all three
        X = GeometricDataSet.build(
            [[0.0, 6e-10, 1.2e-9, 1.0], [0.0, 0.25, 0.5, 1.0]],
            [0.25] * 4,
            mode=FLOAT,
        )
        with pytest.warns(UserWarning, match="small positive pseudodistance"):
            Y, mapping = quotient_gds(X, ["f0"])
        assert mapping == (0, 0, 0, 1)
        assert Y.point_labels == ("p0+p1+p2", "p3")
        assert Y.measure.weights == (0.75, 0.25)

    def test_exact_chain_merge_has_no_warning(self):
        X = GeometricDataSet.build([[0, 0, 1, 0], [0, 1, 2, 3]], [Q(1, 4)] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Y, mapping = quotient_gds(X, ["f0"])
        assert mapping == (0, 0, 1, 0)
        assert Y.point_labels == ("p0+p1+p3", "p2")


class TestLipViolation:
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_matches_brute_scan(self, symmetric):
        # The scan covers all ordered pairs; on a symmetric dist its first
        # pair is also the first with x < y.
        rng = random.Random(11)
        found = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            row = [Q(rng.randrange(5), 4) for _ in range(n)]
            dist = [[Q(rng.randrange(5), 4) for _ in range(n)] for _ in range(n)]
            if symmetric:
                dist = [[min(a, b) for a, b in zip(r, c)] for r, c in zip(dist, zip(*dist))]
            got = lip_violation(row, dist, 0)
            assert got == brute_lip_violation(row, dist, 0, True)
            if symmetric:
                assert got == brute_lip_violation(row, dist, 0, False)
            found += got is not None
        assert found > 0

    def test_ordered_scan_differs_only_on_asymmetric_dist(self):
        # (1, 0) violates but (0, 1) does not
        assert lip_violation((0, 1), [[0, 1], [0, 0]], 0) == (1, 0)
        assert brute_lip_violation((0, 1), [[0, 1], [0, 0]], 0, False) is None
        X = random_gds(6, 2, seed=2)
        row = tuple(2 * v for v in X.features.rows[0])
        first = brute_lip_violation(row, X.dist, 0, False)
        assert first is not None
        assert lip_violation(row, X.dist, 0) == first
