import pytest
from hypothesis import given, strategies as st

from gds import (
    DiscreteMeasure,
    FeatureFamily,
    GeometricDataSet,
    MmSpace,
    gds_to_mm,
    induced_metric,
    mm_lip1_generators,
    mm_to_gds,
    pushforward,
    pushforward_vector,
    sample_lip1,
)
from gds.errors import (
    GdsError,
    MetricViolation,
    SeparationFailure,
    SupportError,
)
from gds.numerics import EXACT, FLOAT, Q
from gds.spaces import random_gds

spaces = st.builds(
    random_gds,
    n=st.integers(1, 4),
    k=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)


class TestDiscreteMeasure:
    def test_uniform(self):
        mu = DiscreteMeasure.uniform(4)
        assert mu.weights == (Q(1, 4),) * 4

    def test_rescale(self):
        mu = DiscreteMeasure.from_weights([3, 1, 2], rescale=True)
        assert mu.weights == (Q(1, 2), Q(1, 6), Q(1, 3))

    def test_zero_weight_rejected(self):
        with pytest.raises(SupportError):
            DiscreteMeasure.from_weights([Q(1, 2), Q(1, 2), 0])

    def test_wrong_total_rejected(self):
        with pytest.raises(SupportError):
            DiscreteMeasure.from_weights([Q(1, 2), Q(1, 4)])


class TestFeatureFamily:
    def test_default_labels(self):
        fam = FeatureFamily.build([[0, 1], [1, 0]])
        assert fam.labels == ("f0", "f1")
        assert fam.n_features == 2
        assert fam.n_points == 2

    def test_by_label(self):
        fam = FeatureFamily.build([[0, 1]], labels=["edge"])
        assert fam.by_label("edge") == (0, 1)
        with pytest.raises(GdsError):
            fam.by_label("missing")

    def test_induced_metric_is_sup_of_gaps(self):
        fam = FeatureFamily.build([[0, Q(1, 2), 1], [0, 1, 0]])
        dist = induced_metric(fam)
        assert dist[0][1] == 1
        assert dist[0][2] == 1
        assert dist[1][2] == 1
        assert all(dist[i][i] == 0 for i in range(3))


class TestGeometricDataSet:
    def test_separation_enforced(self):
        with pytest.raises(SeparationFailure):
            GeometricDataSet.build([[0, 0]], [Q(1, 2), Q(1, 2)])

    def test_build_and_dist(self):
        X = GeometricDataSet.build(
            [[0, 1], [Q(1, 2), 0]], [Q(1, 3), Q(2, 3)]
        )
        assert X.n == 2
        assert X.k == 2
        assert X.dist[0][1] == 1

    @given(spaces)
    def test_induced_metric_axioms(self, X):
        d = X.dist
        for x in range(X.n):
            assert d[x][x] == 0
            for y in range(X.n):
                assert d[x][y] == d[y][x]
                if x != y:
                    assert d[x][y] > 0
                for z in range(X.n):
                    assert d[x][z] <= d[x][y] + d[y][z]

    @given(spaces)
    def test_rows_are_lipschitz_for_their_own_metric(self, X):
        for row in X.features.rows:
            for x in range(X.n):
                for y in range(X.n):
                    assert abs(row[x] - row[y]) <= X.dist[x][y]


class TestMmSpace:
    def test_validation(self):
        with pytest.raises(MetricViolation):
            MmSpace.build([[0, 1], [2, 0]], [Q(1, 2), Q(1, 2)])
        with pytest.raises(MetricViolation):
            MmSpace.build(
                [[0, 5, 1], [5, 0, 1], [1, 1, 0]], [Q(1, 3)] * 3
            )

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0, 1]], "distance matrix shape disagrees with measure"),
            ([[1, 1], [1, 0]], "nonzero diagonal at point 0"),
            ([[0, 1], [2, 0]], "asymmetry between 0 and 1"),
            ([[0, 0], [0, 0]], "points 0 and 1 are at distance 0"),
            ([[0, 5, 1], [5, 0, 1], [1, 1, 0]], "triangle inequality fails on (0,2,1)"),
        ],
    )
    def test_build_keeps_the_full_check(self, matrix, message):
        weights = [Q(1, max(2, len(matrix)))] * max(2, len(matrix))
        with pytest.raises(MetricViolation) as info:
            MmSpace.build(matrix, weights)
        assert str(info.value) == message

    def test_one_label_per_point(self):
        # As GeometricDataSet refuses it, so mm_to_gds never meets it.
        with pytest.raises(SupportError, match="need exactly one label per point"):
            MmSpace.build([[0, 1], [1, 0]], [Q(1, 2), Q(1, 2)], point_labels=["a"])

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_gds_to_mm_equals_the_checked_space(self, mode, monkeypatch):
        # The induced metric is a metric by construction: the checked
        # MmSpace and gds_to_mm's are equal, and gds_to_mm runs no check.
        spaces = [random_gds(n, k, seed=s, mode=mode) for n, k, s in [(1, 1, 1), (5, 2, 2), (9, 3, 3)]]
        checked = [MmSpace(X.dist, X.measure, X.point_labels) for X in spaces]

        def refuse(self, *args, **kwargs):
            raise AssertionError("metric check ran")

        monkeypatch.setattr(MmSpace, "__init__", refuse)
        for X, want in zip(spaces, checked):
            M = gds_to_mm(X)
            assert type(M) is MmSpace and M == want and repr(M) == repr(want)
            assert M.mode == mode and M.n == X.n

    @given(spaces)
    def test_generators_recover_the_metric(self, X):
        M = gds_to_mm(X)
        assert induced_metric(mm_lip1_generators(M)) == M.dist

    def test_mm_to_gds_round_trip_metric(self):
        M = MmSpace.build(
            [[0, Q(1, 2)], [Q(1, 2), 0]], [Q(1, 4), Q(3, 4)]
        )
        X = mm_to_gds(M)
        assert X.dist == M.dist
        assert X.measure.weights == M.measure.weights

    def test_sampled_rows_are_lipschitz_and_deterministic(self):
        M = gds_to_mm(random_gds(4, 2, seed=9))
        fam1 = sample_lip1(M, count=5, seed=3)
        fam2 = sample_lip1(M, count=5, seed=3)
        assert fam1.rows == fam2.rows
        for row in fam1.rows:
            for x in range(M.n):
                for y in range(M.n):
                    assert abs(row[x] - row[y]) <= M.dist[x][y]


class TestPushforward:
    def test_vector(self):
        mu = DiscreteMeasure.from_weights([Q(1, 2), Q(1, 4), Q(1, 4)])
        out = pushforward_vector(mu, (1, 1, 0), 2)
        assert out == (Q(1, 4), Q(3, 4))

    def test_vector_keeps_empty_targets(self):
        mu = DiscreteMeasure.uniform(2)
        out = pushforward_vector(mu, (0, 0), 3)
        assert out == (1, 0, 0)

    def test_measure_pushforward(self):
        mu = DiscreteMeasure.uniform(4)
        nu, kept = pushforward(mu, (0, 0, 3, 3), 4)
        assert nu.weights == (Q(1, 2), Q(1, 2))
        assert kept == (0, 3)

    @given(spaces, st.integers(1, 3), st.randoms(use_true_random=False))
    def test_mass_is_conserved(self, X, m, rnd):
        assignment = tuple(rnd.randrange(m) for _ in range(X.n))
        out = pushforward_vector(X.measure, assignment, m)
        assert sum(out) == 1
        assert len(out) == m
