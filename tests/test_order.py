import pytest

from gds import (
    check_domination,
    check_isomorphism,
    n_point_discrete,
    product_gds,
    quotient_gds,
    singleton_gds,
)
from gds.errors import BudgetExceeded
from gds.numerics import FLOAT, Q
from gds.spaces import random_gds


def relabeled(X, perm):
    rows = [tuple(row[perm[i]] for i in range(X.n)) for row in X.features.rows]
    weights = [X.measure.weights[perm[i]] for i in range(X.n)]
    from gds import GeometricDataSet

    return GeometricDataSet.build(rows, weights, mode=X.mode)


class TestDomination:
    def test_reflexive(self):
        for seed in range(5):
            X = random_gds(3, 2, seed=seed)
            ok, witness = check_domination(X, X)
            assert ok
            assert witness == tuple(range(X.n))

    def test_quotients_are_dominated(self):
        X = random_gds(4, 3, seed=7)
        Y, mapping = quotient_gds(X, [X.features.labels[0]])
        ok, witness = check_domination(X, Y)
        assert ok
        assert witness == mapping

    def test_products_dominate_factors(self):
        X = n_point_discrete(2)
        Y = random_gds(3, 1, seed=8)
        P = product_gds(X, Y)
        for factor in (X, Y):
            ok, _ = check_domination(P, factor)
            assert ok

    def test_one_point_spaces_need_matching_values(self):
        # the single feature value must be reproduced on the nose, so the
        # order cannot compare distinct constants either way
        A = singleton_gds([0])
        B = singleton_gds([1])
        assert check_domination(A, B)[0] is False
        assert check_domination(B, A)[0] is False
        assert check_domination(A, A)[0] is True

    def test_transitive_on_quotient_chain(self):
        X = n_point_discrete(4)
        Y, _ = quotient_gds(X, ["d0", "d1"])
        Z, _ = quotient_gds(X, ["d0"])
        assert check_domination(X, Y)[0]
        assert check_domination(Y, Z)[0]
        assert check_domination(X, Z)[0]

    def test_smaller_cannot_dominate_larger_discrete(self):
        assert check_domination(n_point_discrete(2), n_point_discrete(3))[0] is False

    def test_witness_properties(self):
        X = n_point_discrete(4)
        Y, _ = quotient_gds(X, ["d0"])
        ok, w = check_domination(X, Y)
        assert ok
        for j in range(Y.n):
            mass = sum(X.measure.weights[x] for x in range(X.n) if w[x] == j)
            assert mass == Y.measure.weights[j]

    def test_map_budget(self):
        X = random_gds(4, 1, seed=3)
        Y = random_gds(4, 1, seed=4)
        with pytest.raises(BudgetExceeded):
            check_domination(X, Y, map_budget=10)


class TestIsomorphism:
    def test_relabeling_is_an_isomorphism(self):
        X = random_gds(4, 2, seed=21)
        Y = relabeled(X, (2, 0, 3, 1))
        ok, witness = check_isomorphism(X, Y)
        assert ok
        # the witness transports weights and features exactly
        for x in range(X.n):
            assert X.measure.weights[x] == Y.measure.weights[witness[x]]

    def test_distinct_sizes_never_isomorphic(self):
        assert check_isomorphism(n_point_discrete(2), n_point_discrete(3))[0] is False

    def test_scaled_weights_break_isomorphism(self):
        from gds import GeometricDataSet

        A = GeometricDataSet.build([[0, 1]], [Q(1, 2), Q(1, 2)])
        B = GeometricDataSet.build([[0, 1]], [Q(1, 4), Q(3, 4)])
        assert check_isomorphism(A, B)[0] is False

    def test_float_tolerance(self):
        A = random_gds(3, 2, seed=31, mode=FLOAT)
        rows = [tuple(v + 1e-13 for v in row) for row in A.features.rows]
        from gds import GeometricDataSet

        B = GeometricDataSet.build(rows, A.measure.weights, mode=FLOAT)
        assert check_isomorphism(A, B)[0] is True
