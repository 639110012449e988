"""The bipartite max-flow kernel and the solvers built on it.

Exact callers scale their weights to ints once and hand the kernel int
capacities.  The property below checks that this changes nothing: the
value and the plan equal those of the kernel run on the rationals
themselves, which stays here as the oracle.  The frozen values pin what
the flow-backed solvers return, witnesses included: `box_exact`
completes a max-flow plan into its coupling, so a change in the plan the
kernel finds would change the matrix below.
"""

from hypothesis import given, strategies as st

from gds import box_exact, box_mm_exact, gds_to_mm, prohorov
from gds import metrics
from gds.flows import max_flow_on_cells
from gds.metrics import GapTable
from gds.numerics import Q, scaled_ints, unscaled
from gds.spaces import random_gds

# Zero weights allowed, totals free: the kernel never assumes a
# probability measure.
weight_vectors = st.lists(
    st.fractions(min_value=0, max_value=3, max_denominator=12), min_size=1, max_size=5
)


@st.composite
def instances(draw):
    mu, nu = draw(weight_vectors), draw(weight_vectors)
    mask = draw(st.integers(0, (1 << (len(mu) * len(nu))) - 1))
    return mu, nu, mask


class TestKernel:
    @given(instances())
    def test_scaled_ints_give_the_rational_flow_and_plan(self, instance):
        mu, nu, mask = instance
        want_value, want_plan = max_flow_on_cells(mu, nu, mask)
        (mu_int, nu_int), scale = scaled_ints(mu, nu)
        assert all(type(x) is int for x in mu_int + nu_int)
        value, plan = max_flow_on_cells(mu_int, nu_int, mask)
        assert unscaled(value, scale) == want_value
        assert [[unscaled(x, scale) for x in row] for row in plan] == want_plan

    @given(instances())
    def test_float_value_matches(self, instance):
        mu, nu, mask = instance
        want, _ = max_flow_on_cells(mu, nu, mask)
        floats, scale = scaled_ints([float(w) for w in mu], [float(w) for w in nu])
        assert scale is None
        value, _ = max_flow_on_cells(*floats, mask)
        assert abs(value - float(want)) <= 1e-9

    def test_plan_respects_marginals_and_mask(self):
        mu, nu = [Q(1, 2), Q(1, 3), Q(1, 6)], [Q(1, 4), Q(3, 4)]
        mask = 0b011001  # cells (0, 0), (1, 1), (2, 0)
        value, plan = max_flow_on_cells(mu, nu, mask)
        assert value == Q(1, 4) + Q(1, 3)
        assert plan[1] == [0, Q(1, 3)]
        assert plan[0][0] + plan[2][0] == Q(1, 4)
        assert plan[0][1] == plan[2][1] == 0

    def test_gap_table_hands_the_kernel_ints(self, monkeypatch):
        seen = []

        def recording(mu, nu, allowed):
            seen.append(tuple(mu) + tuple(nu))
            return max_flow_on_cells(mu, nu, allowed)

        monkeypatch.setattr(metrics, "max_flow_on_cells", recording)
        X, Y = random_gds(4, 2, seed=11), random_gds(4, 2, seed=12)
        table = GapTable(
            X.features.rows, Y.features.rows, X.measure.weights, Y.measure.weights
        )
        value = table.flow(table.allowed(0, 0, Q(1, 4)))
        assert seen and all(type(c) is int for caps in seen for c in caps)
        assert type(value) is Q
        assert value == max_flow_on_cells(
            X.measure.weights, Y.measure.weights, table.allowed(0, 0, Q(1, 4))
        )[0]


class TestFrozenWitnesses:
    def test_box_exact_4x4_k2(self):
        X, Y = random_gds(4, 2, seed=11), random_gds(4, 2, seed=12)
        result = box_exact(X, Y)
        assert result.value == Q(89, 154)
        assert result.coupling.matrix == (
            (Q(24, 623), Q(10, 89), Q(12, 89), 0),
            (Q(138, 6853), Q(115, 1958), Q(69, 979), Q(3, 22)),
            (Q(2, 7), 0, 0, 0),
            (Q(12, 623), Q(5, 89), Q(6, 89), 0),
        )
        assert result.cells.sorted_cells == ((1, 3), (2, 0), (2, 2))

    def test_box_exact_5x5_k2(self):
        X, Y = random_gds(5, 2, seed=21), random_gds(5, 2, seed=22)
        result = box_exact(X, Y, cell_budget=25)
        assert result.value == Q(1, 2)
        assert result.coupling.matrix == (
            (0, 0, Q(1, 76), Q(3, 76), Q(9, 190)),
            (0, Q(4, 19), 0, Q(13, 570), 0),
            (0, 0, Q(7, 228), Q(7, 76), Q(21, 190)),
            (Q(3, 19), 0, Q(1, 114), 0, 0),
            (0, 0, 0, Q(4, 15), 0),
        )
        assert result.cells.sorted_cells == (
            (1, 1), (1, 3), (1, 4), (3, 0), (3, 2), (4, 3), (4, 4)
        )

    def test_box_exact_4x4_k3(self):
        X, Y = random_gds(4, 3, seed=31), random_gds(4, 3, seed=32)
        result = box_exact(X, Y)
        assert result.value == Q(1, 2)
        assert result.coupling.matrix == (
            (0, 0, Q(1, 18), 0),
            (0, Q(11, 196), Q(55, 1764), Q(5, 14)),
            (Q(1, 9), 0, 0, 0),
            (Q(2, 63), Q(45, 196), Q(25, 196), 0),
        )
        assert result.cells.sorted_cells == ((0, 2), (1, 3), (2, 0), (3, 0))

    def test_box_mm_exact(self):
        for sx, sy, want in [(41, 42, Q(1, 4)), (43, 44, Q(6, 17))]:
            MX = gds_to_mm(random_gds(4, 2, seed=sx))
            MY = gds_to_mm(random_gds(4, 2, seed=sy))
            assert box_mm_exact(MX, MY) == want

    def test_prohorov_flow(self):
        for n, sx, sy, want in [(12, 51, 52, Q(2653, 13161)), (16, 53, 54, Q(13337, 83412))]:
            X = random_gds(n, 2, seed=sx, scale=32)
            nu = random_gds(n, 2, seed=sy, scale=64).measure
            assert prohorov(X.measure, nu, X.dist, "flow") == want
