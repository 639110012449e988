"""Box distance against plain subset enumeration.

For a fixed cell set the coupling only enters through the mass it leaves
outside, so the exact routines must agree with brute force over every
subset of the cell grid.  That enumeration is small enough to run here
and serves as the reference implementation.
"""

import itertools
import random

import pytest

from gds import (
    CellSet,
    GeometricDataSet,
    MmSpace,
    box_exact,
    box_fixed_coupling,
    box_heuristic,
    box_mm_exact,
    box_objective,
    dconc_exact,
    dis_coupling,
    distortion,
    gds_to_mm,
    lip1_witness,
    mm_lip1_generators,
    n_point_discrete,
    product_coupling,
    prohorov,
    singleton_gds,
)
from gds.box import _heaviest_clique, _side_masks, _table
from gds.coupling import Coupling, enumerate_couplings, max_mass_on_set
from gds.errors import EmptyCellSet, SizeLimit, WitnessNotLipschitz
from gds.flows import Transport
from gds.numerics import FLOAT_TOL, Q
from gds.spaces import random_gds


def sup_on_cells(f, g, cells):
    return max((abs(f[x] - g[y]) for (x, y) in cells), default=0)


def hausdorff_on_cells(FX, FY, cells):
    if not cells:
        return 0
    left = max(min(sup_on_cells(f, g, cells) for g in FY) for f in FX)
    right = max(min(sup_on_cells(f, g, cells) for f in FX) for g in FY)
    return max(left, right)


def dis_on_cells(cells, dX, dY):
    return max(
        (
            abs(dX[x1][x2] - dY[y1][y2])
            for (x1, y1) in cells
            for (x2, y2) in cells
        ),
        default=0,
    )


def all_subsets(n, m):
    cells = [(i, j) for i in range(n) for j in range(m)]
    for mask in range(1 << (n * m)):
        yield [cells[b] for b in range(n * m) if mask >> b & 1]


def box_brute(X, Y):
    best = None
    for cells in all_subsets(X.n, Y.n):
        S = CellSet.from_pairs(X.n, Y.n, cells)
        mm = max_mass_on_set(X.measure, Y.measure, S)[0] if cells else Q(0)
        val = max(1 - mm, 2 * hausdorff_on_cells(X.features.rows, Y.features.rows, cells))
        if best is None or val < best:
            best = val
    return best


def box_mm_brute(MX, MY):
    best = None
    for cells in all_subsets(MX.n, MY.n):
        S = CellSet.from_pairs(MX.n, MY.n, cells)
        mm = max_mass_on_set(MX.measure, MY.measure, S)[0] if cells else Q(0)
        val = max(1 - mm, dis_on_cells(cells, MX.dist, MY.dist))
        if best is None or val < best:
            best = val
    return best


def dis_coupling_brute(pi, dX, dY):
    best = None
    for cells in all_subsets(pi.n, pi.m):
        mass = sum(pi.matrix[x][y] for (x, y) in cells)
        val = max(1 - mass, dis_on_cells(cells, dX, dY))
        if best is None or val < best:
            best = val
    return best


def two_point_mm(d):
    return MmSpace.build([[0, d], [d, 0]], [Q(1, 2), Q(1, 2)])


class TestFrozenValues:
    def test_identity_is_zero(self):
        X = random_gds(3, 2, seed=4)
        assert box_exact(X, X).value == 0
        assert box_exact(singleton_gds([3]), singleton_gds([3])).value == 0

    def test_separated_small_cases(self):
        assert box_exact(n_point_discrete(2), singleton_gds([1])).value == 1
        assert box_exact(singleton_gds([3]), singleton_gds([7])).value == 1

    def test_two_point_mm_closed_form(self):
        # min of the gap against sacrificing one of the two cells
        cases = [
            (Q(1, 2), Q(1, 4), Q(1, 4)),
            (2, 1, Q(1, 2)),
            (Q(1, 8), Q(1, 8), 0),
        ]
        for d, e, want in cases:
            assert box_mm_exact(two_point_mm(d), two_point_mm(e)) == want

    def test_two_point_vs_point(self):
        point = MmSpace.build([[0]], [Q(1)])
        for d, want in [(Q(1, 4), Q(1, 4)), (Q(3, 4), Q(1, 2)), (5, Q(1, 2))]:
            assert box_mm_exact(two_point_mm(d), point) == want


class TestBruteForceAgreement:
    def test_box_exact_matches_enumeration(self):
        for seed in range(10):
            X = random_gds(2 + seed % 2, 1 + seed % 3, seed=seed)
            Y = random_gds(2 + (seed // 2) % 2, 1 + (seed // 3) % 3, seed=500 + seed)
            assert box_brute(X, Y) == box_exact(X, Y).value, f"seed {seed}"

    def test_box_mm_matches_enumeration(self):
        for seed in range(10):
            MX = gds_to_mm(random_gds(2 + seed % 2, 2, seed=seed))
            MY = gds_to_mm(random_gds(2 + (seed // 2) % 2, 2, seed=700 + seed))
            assert box_mm_brute(MX, MY) == box_mm_exact(MX, MY), f"seed {seed}"

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_box_mm_reads_a_data_set_as_its_mm_space(self, mode):
        # box_mm_exact reads only the metric and the measure, so a data set
        # gives the value, of the same type, that its gds_to_mm space gives.
        for seed in range(12):
            X = random_gds(2 + seed % 3, 1 + seed % 3, seed=seed, mode=mode)
            Y = random_gds(2 + seed // 6, 2, seed=900 + seed, mode=mode)
            got = box_mm_exact(X, Y)
            want = box_mm_exact(gds_to_mm(X), gds_to_mm(Y))
            assert repr(got) == repr(want) and type(got) is type(want)

    def test_dis_coupling_matches_enumeration(self):
        for seed in range(8):
            X = random_gds(2 + seed % 2, 2, seed=seed)
            Y = random_gds(2, 2, seed=300 + seed)
            for pi in enumerate_couplings(X.measure, Y.measure, resolution=3):
                want = dis_coupling_brute(pi, X.dist, Y.dist)
                got, cells = dis_coupling(pi, X.dist, Y.dist)
                assert got == want
                assert got == max(
                    1 - pi.mass(cells), dis_on_cells(cells.sorted_cells, X.dist, Y.dist)
                )

    def test_witness_cellset_attains_the_value(self):
        X = random_gds(3, 2, seed=81)
        Y = random_gds(2, 2, seed=82)
        res = box_exact(X, Y)
        mm = max_mass_on_set(X.measure, Y.measure, res.cells)[0]
        attained = max(
            1 - mm,
            2 * hausdorff_on_cells(
                X.features.rows, Y.features.rows, res.cells.sorted_cells
            ),
        )
        assert attained == res.value


# Hand-built instances off the one lattice random_gds draws from: X on the
# 1/3 lattice, Y on the 1/7 lattice, metrics with denominators 5 and 9,
# and non-uniform weights with other denominators again.
MIXED_X = ([["0", "1/3", "2/3"], ["1/3", "1", "0"]], ["1/6", "1/2", "1/3"])
MIXED_Y = ([["1/7", "4/7", "6/7"], ["5/7", "0", "3/7"]], ["2/7", "1/7", "4/7"])
MIXED_DX = ([["0", "2/5", "3/5"], ["2/5", "0", "4/5"], ["3/5", "4/5", "0"]], MIXED_X[1])
MIXED_DY = ([["0", "1/9", "5/9"], ["1/9", "0", "4/9"], ["5/9", "4/9", "0"]], MIXED_Y[1])


def mixed_pair(mode):
    X, Y = (GeometricDataSet.build(*spec, mode=mode) for spec in (MIXED_X, MIXED_Y))
    MX, MY = (MmSpace.build(*spec, mode=mode) for spec in (MIXED_DX, MIXED_DY))
    return X, Y, MX, MY


class TestMixedDenominators:
    """Exact values against the oracles on inputs that share no one
    lattice; float values within FLOAT_TOL of them."""

    def values(self, mode):
        X, Y, MX, MY = mixed_pair(mode)
        pi = product_coupling(MX.measure, MY.measure)
        return {
            "box": box_exact(X, Y).value,
            "mm": box_mm_exact(MX, MY),
            "dis": dis_coupling(pi, MX.dist, MY.dist)[0],
            "prohorov X": prohorov(MX.measure, MY.measure, MX.dist, "flow"),
            "prohorov Y": prohorov(MX.measure, MY.measure, MY.dist, "flow"),
        }

    def test_exact_matches_the_oracles(self):
        X, Y, MX, MY = mixed_pair("exact")
        pi = product_coupling(MX.measure, MY.measure)
        got = self.values("exact")
        assert got["box"] == box_brute(X, Y)
        assert got["mm"] == box_mm_brute(MX, MY)
        assert got["dis"] == dis_coupling_brute(pi, MX.dist, MY.dist)
        for name, dist in (("prohorov X", MX.dist), ("prohorov Y", MY.dist)):
            assert got[name] == prohorov(MX.measure, MY.measure, dist, "brute")
        assert all(type(v) is Q for v in got.values())
        # The distortion value is a gap |dX - dY| between the two metrics'
        # lattices, so it lies on neither of them.
        assert got["mm"].denominator == 45

    def test_float_within_tolerance_of_exact(self):
        exact, approx = self.values("exact"), self.values("float")
        for name, value in approx.items():
            assert type(value) is float
            assert abs(value - exact[name]) <= FLOAT_TOL, name


class TestIntPathsAgainstOracles:
    """The flow solvers compare and certify on scaled ints; their results
    must still equal the public oracles, which read the unscaled inputs:
    box_objective for box_exact's witness, distortion for box_mm_exact and
    dis_coupling (over every cell set), the subset scan for prohorov.
    Exact mode must agree exactly, float mode within FLOAT_TOL."""

    PAIRS = 100

    @staticmethod
    def pair(index, mode):
        n, m = 2 + index % 2, 2 + index // 2 % 2
        k, lattice = 1 + index // 4 % 2, (4, 8, 12, 30)[index // 8 % 4]
        X = random_gds(n, k, seed=5000 + index, scale=lattice, mode=mode)
        Y = random_gds(m, k, seed=6000 + index, scale=lattice, mode=mode)
        return X, Y

    @staticmethod
    def agree(got, want, mode):
        if mode == "exact":
            return got == want and type(got) is Q
        return type(got) is float and abs(got - want) <= FLOAT_TOL

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_box_exact_witness_attains_its_value(self, mode):
        for index in range(self.PAIRS):
            X, Y = self.pair(index, mode)
            result = box_exact(X, Y)
            result.coupling.check_marginals(X.measure, Y.measure)
            want = box_objective(result.coupling, result.cells, X.features, Y.features)
            assert self.agree(result.value, want, mode), index

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_distortion_sweeps_match_every_cell_set(self, mode):
        for index in range(self.PAIRS):
            X, Y = self.pair(index, mode)
            MX, MY = gds_to_mm(X), gds_to_mm(Y)
            pi = product_coupling(X.measure, Y.measure)
            dis_best = mm_best = None
            for cells in all_subsets(X.n, Y.n):
                S = CellSet.from_pairs(X.n, Y.n, cells)
                spread = distortion(S, X.dist, Y.dist)
                kept = max_mass_on_set(X.measure, Y.measure, S)[0]
                mm = max(1 - kept, spread)
                dis = max(1 - pi.mass(S), spread)
                mm_best = mm if mm_best is None or mm < mm_best else mm_best
                dis_best = dis if dis_best is None or dis < dis_best else dis_best
            assert self.agree(box_mm_exact(MX, MY), mm_best, mode), index
            value, cells = dis_coupling(pi, X.dist, Y.dist)
            assert self.agree(value, dis_best, mode), index
            spread = distortion(cells, X.dist, Y.dist)
            assert self.agree(value, max(1 - pi.mass(cells), spread), mode), index

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_prohorov_flow_matches_the_subset_scan(self, mode):
        for index in range(self.PAIRS):
            n = 3 + index % 5
            X = random_gds(n, 2, seed=7000 + index, scale=(8, 12)[index % 2], mode=mode)
            nu = random_gds(n, 2, seed=8000 + index, scale=16, mode=mode).measure
            got = prohorov(X.measure, nu, X.dist, "flow")
            assert self.agree(got, prohorov(X.measure, nu, X.dist, "brute"), mode), index


class TestOrderingBounds:
    def test_observable_distance_below_box(self):
        for seed in range(8):
            X = random_gds(2 + seed % 2, 2, seed=seed)
            Y = random_gds(2 + (seed // 2) % 2, 2, seed=400 + seed)
            assert dconc_exact(X, Y).value <= box_exact(X, Y).value

    def test_fixed_coupling_dominates_exact(self):
        X = random_gds(3, 2, seed=91)
        Y = random_gds(2, 2, seed=92)
        best = box_exact(X, Y).value
        for pi in enumerate_couplings(X.measure, Y.measure, resolution=3):
            val, _ = box_fixed_coupling(X, Y, pi)
            assert val >= best

    def test_heuristic_dominates_and_can_match(self):
        matches = 0
        for seed in range(6):
            X = random_gds(2, 2, seed=seed)
            Y = random_gds(2, 2, seed=600 + seed)
            exact = box_exact(X, Y).value
            approx = box_heuristic(X, Y, budget=120, seed=seed)
            assert approx >= exact
            matches += approx == exact
        assert matches >= 3

    @pytest.mark.parametrize("mode, scalar", [("exact", Q), ("float", float)])
    def test_heuristic_on_the_empty_set_returns_the_mode_scalar(self, mode, scalar):
        # Budget 0 scores only the empty set, whose objective is 1.
        X = random_gds(3, 2, seed=1, mode=mode)
        Y = random_gds(3, 2, seed=2, mode=mode)
        value = box_heuristic(X, Y, budget=0)
        assert type(value) is scalar and value == 1

    @pytest.mark.parametrize("mode, scalar", [("exact", Q), ("float", float)])
    def test_fixed_coupling_on_the_empty_set_returns_the_mode_scalar(self, mode, scalar):
        # Every cell set keeps a gap of 7/8 or more, so the empty set wins
        # with objective 1; its mass was once the int 0, and the value 1.
        X = GeometricDataSet.build([[0, Q(1, 8)]], [Q(1, 2), Q(1, 2)], mode=mode)
        Y = GeometricDataSet.build([[1, Q(7, 8)]], [Q(1, 3), Q(2, 3)], mode=mode)
        value, cells = box_fixed_coupling(X, Y, product_coupling(X.measure, Y.measure))
        assert type(value) is scalar and value == 1
        assert len(cells) == 0


class TestEmptySupport:
    @pytest.mark.parametrize("mode, scalar", [("exact", Q), ("float", float)])
    def test_dis_coupling_of_a_zero_matrix_keeps_the_empty_set(self, mode, scalar):
        # No positive entry: the empty set is the only cell set the
        # support offers, and it scores the mode's 1.
        zero = Q(0) if mode == "exact" else 0.0
        pi = Coupling(((zero, zero), (zero, zero)), mode)
        dX = dY = n_point_discrete(2, mode=mode).dist
        value, cells = dis_coupling(pi, dX, dY)
        assert type(value) is scalar and value == 1
        assert cells == CellSet.empty(2, 2)


def maximal_cliques_brute(count, adj):
    """Every maximal clique of the graph as a bitmask, by scanning subsets."""
    def joins_all(v, mask):
        return adj[v] & mask == mask & ~(1 << v)

    cliques = [
        mask
        for mask in range(1 << count)
        if all(joins_all(v, mask) for v in range(count) if mask >> v & 1)
    ]
    return [
        mask
        for mask in cliques
        if not any(joins_all(v, mask) for v in range(count) if not mask >> v & 1)
    ]


def random_graph(rng, count):
    adj = [0] * count
    density = rng.random()
    for a in range(count):
        for b in range(a + 1, count):
            if rng.random() < density:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj


class TestHeaviestClique:
    """The bounded search against the rule it replaces: list every maximal
    clique, sort the masks, and keep the first of most kept mass."""

    def test_matches_the_sorted_maximum_over_maximal_cliques(self):
        # Weights from a few small ints, zeros among them, tie often.
        rng = random.Random(7)
        for _ in range(300):
            count = rng.randint(1, 9)
            adj = random_graph(rng, count)
            weights = [rng.choice([0, 1, 1, 2, 3]) for _ in range(count)]

            def kept(mask):
                return sum(w for c, w in enumerate(weights) if mask >> c & 1)

            want = max(sorted(maximal_cliques_brute(count, adj)), key=kept)
            assert _heaviest_clique(count, adj, kept) == want, (adj, weights)

    def test_matches_it_under_a_flow(self):
        # kept is a Transport's max-flow on a 3x3 grid, monotone but not
        # additive; coarse weights make many cell sets carry equal flow.
        rng = random.Random(8)
        for _ in range(60):
            mu = [Q(rng.randint(1, 2)) for _ in range(3)]
            nu = [Q(rng.randint(1, 2)) for _ in range(3)]
            kept = Transport([w / sum(mu) for w in mu], [w / sum(nu) for w in nu]).scaled_value
            adj = random_graph(rng, 9)
            want = max(sorted(maximal_cliques_brute(9, adj)), key=kept)
            assert _heaviest_clique(9, adj, kept) == want, adj


class TestSideMasks:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_equal_the_masks_of_every_total_assignment(self, mode):
        # The oracle lists every assignment with itertools.product and
        # intersects its allowed masks.
        rng = random.Random(23)
        for trial in range(12):
            X = random_gds(rng.randint(1, 3), rng.randint(1, 3), seed=trial, mode=mode)
            Y = random_gds(rng.randint(1, 3), rng.randint(1, 3), seed=50 + trial, mode=mode)
            table, levels = _table(X, Y)
            for h in levels:
                allowed = [
                    [table.allowed(f, g, h) for g in range(table.ky)]
                    for f in range(table.kx)
                ]
                u_want, v_want = set(), set()
                for u in itertools.product(range(table.ky), repeat=table.kx):
                    mask = table.full
                    for f, g in enumerate(u):
                        mask &= allowed[f][g]
                    u_want.add(mask)
                for v in itertools.product(range(table.kx), repeat=table.ky):
                    mask = table.full
                    for g, f in enumerate(v):
                        mask &= allowed[f][g]
                    v_want.add(mask)
                assert _side_masks(table, h) == (u_want, v_want)


class TestLip1Witness:
    def test_postconditions(self):
        X = random_gds(3, 2, seed=71)
        Y = random_gds(3, 2, seed=72)
        cells = [(0, 0), (1, 1), (2, 2)]
        dis = distortion(cells, X.dist, Y.dist)
        for f in X.features.rows:
            g = lip1_witness(cells, f, X.dist, Y.dist)
            for y1 in range(Y.n):
                for y2 in range(Y.n):
                    assert abs(g[y1] - g[y2]) <= Y.dist[y1][y2]
            for (x, y) in cells:
                assert abs(f[x] - g[y]) * 2 <= dis

    def test_two_point_transport_gap(self):
        # stretching a segment of length e to length d costs |d - e| / 2
        # through the diagonal cells, and nothing less when d >= e
        for d, e in [(1, Q(1, 2)), (Q(1, 2), 1), (Q(3, 4), Q(3, 4))]:
            dX = [[0, d], [d, 0]]
            dY = [[0, e], [e, 0]]
            cells = [(0, 0), (1, 1)]
            f = (0, d)
            g = lip1_witness(cells, f, dX, dY)
            gap = sup_on_cells(f, g, cells)
            assert gap == abs(d - e) / 2
            grid = [Q(s, 16) for s in range(-16, 33)]
            best = min(
                max(abs(f[0] - g0), abs(f[1] - g1))
                for g0 in grid
                for g1 in grid
                if abs(g0 - g1) <= e
            )
            assert best == max(d - e, 0) / 2
            assert gap >= best

    def test_empty_cellset_rejected(self):
        with pytest.raises(EmptyCellSet):
            lip1_witness([], (0, 1), [[0, 1], [1, 0]], [[0, 1], [1, 0]])

    def test_non_lipschitz_function_rejected(self):
        with pytest.raises(WitnessNotLipschitz):
            lip1_witness([(0, 0)], (0, 5), [[0, 1], [1, 0]], [[0, 1], [1, 0]])


class TestWitnessClosedFamilies:
    def test_closure_collapses_box_to_mm_value(self):
        # families closed under transported witnesses leave the metric
        # data as the only obstruction, so both notions must agree
        for seed in range(6):
            X = random_gds(2 + seed % 2, 2, seed=seed)
            Y = random_gds(2 + (seed // 2) % 2, 2, seed=900 + seed)
            MX, MY = gds_to_mm(X), gds_to_mm(Y)
            target = box_mm_exact(MX, MY)
            cells = None
            best = None
            for sub in all_subsets(MX.n, MY.n):
                S = CellSet.from_pairs(MX.n, MY.n, sub)
                mm = max_mass_on_set(MX.measure, MY.measure, S)[0] if sub else Q(0)
                val = max(1 - mm, dis_on_cells(sub, MX.dist, MY.dist))
                if best is None or val < best:
                    best, cells = val, sub
            assert best == target
            gen_x = list(mm_lip1_generators(MX).rows)
            gen_y = list(mm_lip1_generators(MY).rows)
            if cells:
                flipped = [(y, x) for (x, y) in cells]
                rows_y = gen_y + [lip1_witness(cells, f, MX.dist, MY.dist) for f in gen_x]
                rows_x = gen_x + [lip1_witness(flipped, g, MY.dist, MX.dist) for g in gen_y]
            else:
                rows_x, rows_y = gen_x, gen_y
            X2 = GeometricDataSet.build(rows_x, MX.measure.weights)
            Y2 = GeometricDataSet.build(rows_y, MY.measure.weights)
            assert box_exact(X2, Y2, assignment_budget=10**6).value == target

    def test_general_gds_value_dominates_mm_value(self):
        for seed in range(6):
            X = random_gds(2 + seed % 2, 2, seed=seed)
            Y = random_gds(2, 2, seed=800 + seed)
            assert box_exact(X, Y).value >= box_mm_exact(gds_to_mm(X), gds_to_mm(Y))


class TestGates:
    def test_cell_budget(self):
        X = random_gds(5, 1, seed=1)
        Y = random_gds(4, 1, seed=2)
        with pytest.raises(SizeLimit):
            box_exact(X, Y)
        assert box_exact(X, Y, cell_budget=20).value is not None

    def test_assignment_budget(self):
        X = random_gds(2, 3, seed=3)
        Y = random_gds(2, 3, seed=4)
        with pytest.raises(SizeLimit):
            box_exact(X, Y, assignment_budget=5)
