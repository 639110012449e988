import random

import pytest
from hypothesis import given, strategies as st

from gds import (
    GeometricDataSet,
    levy_sequence,
    levy_table,
    n_point_discrete,
    observable_diameter,
    product_gds,
    quotient_gds,
    random_gds,
    singleton_gds,
)
from gds.core import lip_violation
from gds.errors import GdsError, NotLipschitzFamily, SeparationFailure
from gds.numerics import EXACT, FLOAT, Q, to_scalar, tolerance


class TestSingleton:
    def test_shape_and_values(self):
        X = singleton_gds([0, Q(1, 2), "3/4"])
        assert X.n == 1
        assert X.k == 3
        assert [row[0] for row in X.features.rows] == [0, Q(1, 2), Q(3, 4)]
        assert X.measure.weights == (Q(1),)

    def test_empty_rejected(self):
        with pytest.raises(GdsError):
            singleton_gds([])


class TestDiscrete:
    def test_metric_and_weights(self):
        X = n_point_discrete(4)
        assert X.n == 4 and X.k == 4
        for i in range(4):
            for j in range(4):
                assert X.dist[i][j] == (0 if i == j else 1)
        assert X.measure.weights == (Q(1, 4),) * 4

    def test_single_point_degenerates(self):
        X = n_point_discrete(1)
        assert X.n == 1
        assert observable_diameter(X, 0) == 0


class TestProduct:
    def test_row_major_layout_and_sup_metric(self):
        X = random_gds(2, 2, seed=1)
        Y = random_gds(3, 2, seed=2)
        P = product_gds(X, Y)
        assert P.n == X.n * Y.n
        assert P.k == X.k + Y.k
        for x1 in range(X.n):
            for y1 in range(Y.n):
                for x2 in range(X.n):
                    for y2 in range(Y.n):
                        i, j = x1 * Y.n + y1, x2 * Y.n + y2
                        assert P.dist[i][j] == max(X.dist[x1][x2], Y.dist[y1][y2])

    def test_weights_multiply(self):
        X = n_point_discrete(2)
        Y = random_gds(2, 1, seed=3)
        P = product_gds(X, Y)
        for x in range(2):
            for y in range(2):
                assert (
                    P.measure.weights[x * 2 + y]
                    == X.measure.weights[x] * Y.measure.weights[y]
                )

    def test_labels_carry_their_side(self):
        P = product_gds(n_point_discrete(2), n_point_discrete(2))
        assert all(l.startswith(("x:", "y:")) for l in P.features.labels)


class TestQuotient:
    def test_merges_points_the_family_cannot_tell_apart(self):
        X = n_point_discrete(4)
        Y, mapping = quotient_gds(X, ["d0", "d1"])
        # d0 and d1 agree on points 2 and 3, so those collapse
        assert Y.n == 3
        assert mapping == (0, 1, 2, 2)
        assert Y.measure.weights == (Q(1, 4), Q(1, 4), Q(1, 2))
        assert Y.features.labels == ("d0", "d1")

    def test_descended_rows_pull_back(self):
        X = random_gds(4, 3, seed=9)
        picks = [X.features.labels[0], X.features.labels[2]]
        Y, mapping = quotient_gds(X, picks)
        for label in picks:
            up = X.features.by_label(label)
            down = Y.features.by_label(label)
            assert tuple(down[mapping[x]] for x in range(X.n)) == up

    def test_map_is_measure_preserving_and_onto(self):
        X = random_gds(5, 2, seed=10)
        Y, mapping = quotient_gds(X, [X.features.labels[0]])
        assert set(mapping) == set(range(Y.n))
        for j in range(Y.n):
            pulled = sum(X.measure.weights[x] for x in range(X.n) if mapping[x] == j)
            assert pulled == Y.measure.weights[j]

    def test_map_is_one_lipschitz(self):
        X = random_gds(4, 2, seed=11)
        Y, mapping = quotient_gds(X, [X.features.labels[1]])
        for x1 in range(X.n):
            for x2 in range(X.n):
                assert Y.dist[mapping[x1]][mapping[x2]] <= X.dist[x1][x2]

    def test_explicit_rows_allowed(self):
        X = n_point_discrete(3)
        Y, mapping = quotient_gds(X, [(0, 1, 1)])
        assert Y.n == 2
        assert mapping == (0, 1, 1)

    def test_full_family_changes_nothing(self):
        X = random_gds(4, 2, seed=12)
        Y, mapping = quotient_gds(X, list(X.features.labels))
        assert Y.n == X.n
        assert mapping == tuple(range(X.n))
        assert Y.dist == X.dist

    def test_non_lipschitz_row_rejected(self):
        X = n_point_discrete(2)
        with pytest.raises(NotLipschitzFamily):
            quotient_gds(X, [(0, 7)])

    def test_non_lipschitz_row_beside_a_label_names_its_pair(self):
        X = n_point_discrete(3)
        message = "row is not 1-Lipschitz between points 0 and 2"
        with pytest.raises(NotLipschitzFamily, match=f"^{message}$"):
            quotient_gds(X, ["d1", (0, 1, 2)])

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("seed", range(8))
    def test_explicit_rows_name_the_first_pair_on_the_metric(self, mode, seed):
        # A row of X passes as it is; raised at one point it breaks the
        # Lipschitz bound somewhere.  The check on the feature columns
        # must name the first pair that the sup-metric X.dist shows, and
        # build no X.dist itself.
        X = random_gds(30, 2, seed=seed, mode=mode)
        row = list(random_gds(30, 2, seed=seed).features.rows[0])
        assert quotient_gds(X, [row])[1] == quotient_gds(X, ["f0"])[1]
        rng = random.Random(seed)
        row[rng.randrange(30)] += Q(rng.choice([1, 4, 16]), 64)
        row = [to_scalar(v, mode) for v in row]
        dist = random_gds(30, 2, seed=seed, mode=mode).dist
        x, y = lip_violation(row, dist, tolerance(mode), ordered=False)
        message = f"row is not 1-Lipschitz between points {x} and {y}"
        with pytest.raises(NotLipschitzFamily, match=f"^{message}$"):
            quotient_gds(X, ["f1", row])
        assert "dist" not in vars(X)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_labels_alone_build_no_metric(self, mode):
        # A feature row is 1-Lipschitz for the sup-metric by definition.
        X = random_gds(40, 2, seed=5, mode=mode)
        Y, mapping = quotient_gds(X, ["f0"])
        assert "dist" not in vars(X)
        assert Y.n < X.n and len(mapping) == X.n

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_labels_and_rows_mixed(self, mode):
        X = n_point_discrete(4, mode)
        Y, mapping = quotient_gds(X, ["d0", (1, 1, 0, 0)])
        assert mapping == (0, 1, 2, 2)
        assert Y.features.labels == ("d0", "g1")
        assert Y.point_labels == ("p0", "p1", "p2+p3")
        X = n_point_discrete(5, mode)
        Y, mapping = quotient_gds(X, [(1, 1, 0, 0, 0), "d4"])
        assert mapping == (0, 0, 1, 1, 2)
        assert Y.features.labels == ("g0", "d4")
        assert Y.point_labels == ("p0+p1", "p2+p3", "p4")
        assert Y.measure.weights == tuple(to_scalar(w, mode) for w in ("2/5", "2/5", "1/5"))
        assert "dist" not in vars(X)  # explicit rows are checked on the columns

    def test_empty_family_rejected(self):
        with pytest.raises(GdsError):
            quotient_gds(n_point_discrete(2), [])

    def test_float_mode_merges_with_warning(self):
        # the full family separates all points, but the chosen subfamily
        # leaves two of them within rounding distance
        X = GeometricDataSet.build(
            [[0.0, 1e-12, 1.0], [0.0, 0.5, 1.0]],
            [0.25, 0.25, 0.5],
            mode=FLOAT,
        )
        with pytest.warns(UserWarning):
            Y, mapping = quotient_gds(X, ["f0"])
        assert Y.n == 2
        assert mapping == (0, 0, 1)


class TestLevyFamilies:
    def test_discrete_members_concentrate(self):
        seq = list(levy_sequence("discrete", 5))
        assert [X.n for X in seq] == [1, 2, 3, 4, 5]
        # at fixed kappa the diameter lands at zero once 1/N <= kappa
        kappa = Q(1, 4)
        vals = [observable_diameter(X, kappa) for X in seq]
        assert vals == [0, 1, 1, 0, 0]

    def test_product_power_members(self):
        base = n_point_discrete(2)
        seq = list(levy_sequence("product_power", 3, base))
        assert [X.n for X in seq] == [2, 4, 8]

    def test_base_required_for_powers(self):
        with pytest.raises(GdsError):
            list(levy_sequence("product_power", 3))

    def test_unknown_kind_rejected(self):
        with pytest.raises(GdsError):
            list(levy_sequence("zeta", 3))

    def test_table_shape(self):
        kappas, rows = levy_table("discrete", 3)
        assert len(kappas) == 19
        assert kappas[0] == Q(1, 20)
        assert len(rows) == 3
        for label, vals in rows:
            assert isinstance(label, str)
            assert len(vals) == len(kappas)

    def test_table_custom_kappas(self):
        kappas, rows = levy_table("discrete", 2, kappas=[0, Q(1, 2)])
        assert list(kappas) == [0, Q(1, 2)]
        assert list(rows[1][1]) == [1, 0]


class TestRandom:
    def test_deterministic_and_separated(self):
        A = random_gds(4, 2, seed=17)
        B = random_gds(4, 2, seed=17)
        assert A == B
        for x in range(A.n):
            for y in range(x + 1, A.n):
                assert A.dist[x][y] > 0

    @given(
        st.integers(1, 5),
        st.integers(1, 4),
        st.integers(0, 10**6),
    )
    def test_always_valid(self, n, k, seed):
        X = random_gds(n, k, seed=seed)
        assert X.n == n
        assert X.k >= k
        assert sum(X.measure.weights) == 1

    def test_float_mode(self):
        X = random_gds(3, 2, seed=5, mode=FLOAT)
        assert X.mode == FLOAT
        assert abs(sum(X.measure.weights) - 1) < 1e-9

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_unseparable_draws_are_never_built(self, mode, monkeypatch):
        # Two lattice values cannot separate three points, so each of the
        # 64 draws repeats a feature column and only the ramp is built.
        calls = []
        build = GeometricDataSet.build.__func__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(GeometricDataSet, "build", classmethod(counting))
        X = random_gds(3, 1, seed=4, scale=1, mode=mode)
        assert len(calls) == 1
        assert X.mode == mode
        assert all(X.dist[x][y] > 0 for x in range(3) for y in range(x + 1, 3))
