"""Observable distance against independently computed values.

The two-marginal case with two points on each side is solvable by hand:
the coupling polytope is a segment, the objective is piecewise linear in
the free parameter, so scanning every crossing of the participating
linear pieces finds the exact minimum.
"""

import random

import pytest

from gds import (
    GeometricDataSet,
    dconc_at_coupling,
    dconc_exact,
    dconc_heuristic,
    dconc_lower_witness,
    feature_transfer,
    n_point_discrete,
    product_coupling,
    singleton_gds,
)
from gds import coupling
from gds.coupling import Coupling, enumerate_couplings, feasibility_lp, max_mass_on_set
from gds.errors import BudgetExceeded, ModeMismatch, WitnessNotLipschitz
from gds.core import pushforward_vector
from gds.metrics import CellSet, crossing, ky_fan_coupling, prohorov_weights
from gds.numerics import Q, scaled_ints, unscaled
from gds.observable import _DconcSearch
from gds.spaces import random_gds


def pi_transposed(pi):
    n, m = pi.n, pi.m
    return Coupling(
        tuple(tuple(pi.matrix[x][y] for x in range(n)) for y in range(m)),
        pi.mode,
    )


def kf_on_cells(masses, diffs):
    """Ky Fan value of a cellwise gap profile, by interval scan."""
    levels = sorted({Q(0)} | {Q(d) for d in diffs})
    best = None
    for idx, lo in enumerate(levels):
        mass = sum(w for w, d in zip(masses, diffs) if d > lo)
        cand = max(lo, mass)
        hi = levels[idx + 1] if idx + 1 < len(levels) else None
        if hi is not None and cand >= hi:
            continue
        if best is None or cand < best:
            best = cand
    return best


def hausdorff_kf(masses, X, Y, cells):
    """Hausdorff gap between the lifted families, from scratch."""
    table = [
        [
            kf_on_cells(masses, [abs(f[x] - g[y]) for (x, y) in cells])
            for g in Y.features.rows
        ]
        for f in X.features.rows
    ]
    left = max(min(row) for row in table)
    right = max(min(table[i][j] for i in range(X.k)) for j in range(Y.k))
    return max(left, right)


def dconc_two_by_two_oracle(X, Y):
    """Exact observable distance for 2x2 marginals by segment scan.

    Couplings form a segment parametrized by the mass t on cell (0, 0).
    Every Ky Fan interval bound is either a constant level or a cell-mass
    sum linear in t, so the final objective is piecewise linear with
    kinks only where two such lines cross.  Evaluating at every crossing
    (plus the endpoints and segment midpoints, as insurance) is exact.
    """
    a, c = X.measure.weights[0], Y.measure.weights[0]
    lo, hi = max(Q(0), a + c - 1), min(a, c)
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    # cell masses as const + slope * t
    lin_cells = {
        (0, 0): (Q(0), 1),
        (0, 1): (a, -1),
        (1, 0): (c, -1),
        (1, 1): (1 - a - c, 1),
    }
    lines = [(lo, 0), (hi, 0)]
    pairs = [
        (f, g) for f in X.features.rows for g in Y.features.rows
    ]
    for f, g in pairs:
        diffs = {cell: abs(f[x] - g[y]) for cell in cells for (x, y) in [cell]}
        levels = sorted({Q(0)} | set(diffs.values()))
        for level in levels:
            lines.append((level, 0))
            const = sum(lin_cells[cell][0] for cell in cells if diffs[cell] > level)
            slope = sum(lin_cells[cell][1] for cell in cells if diffs[cell] > level)
            lines.append((const, slope))
    candidates = {lo, hi}
    for i in range(len(lines)):
        a1, b1 = lines[i]
        for j in range(i + 1, len(lines)):
            a2, b2 = lines[j]
            if b1 != b2:
                t = Q(a2 - a1, b1 - b2)
                if lo <= t <= hi:
                    candidates.add(t)
    ordered = sorted(candidates)
    for u, v in zip(ordered, ordered[1:]):
        candidates.add((u + v) / 2)

    def value_at(t):
        masses = [lin_cells[cell][0] + lin_cells[cell][1] * t for cell in cells]
        return hausdorff_kf(masses, X, Y, cells)

    return min(value_at(t) for t in candidates)


class TestAgainstHandComputation:
    def test_discrete_vs_singleton_unique_coupling(self):
        # one point on the right means a single coupling, so the value
        # is a plain Hausdorff computation
        for N in (2, 3, 4):
            X = n_point_discrete(N)
            Y = singleton_gds([1])
            cells = [(x, 0) for x in range(N)]
            masses = list(X.measure.weights)
            by_hand = hausdorff_kf(masses, X, Y, cells)
            assert by_hand == Q(1, N)
            assert dconc_exact(X, Y).value == Q(1, N)

    def test_distinct_integer_singletons_are_far(self):
        for u, v in [(0, 1), (2, 7), (3, 4)]:
            d = dconc_exact(singleton_gds([u]), singleton_gds([v])).value
            assert d == 1

    def test_matching_singletons_coincide(self):
        assert dconc_exact(singleton_gds([5]), singleton_gds([5])).value == 0

    def test_two_by_two_scan_oracle(self):
        for seed in range(25):
            X = random_gds(2, 1 + seed % 3, seed=seed)
            Y = random_gds(2, 1 + (seed // 3) % 3, seed=1000 + seed)
            want = dconc_two_by_two_oracle(X, Y)
            got = dconc_exact(X, Y).value
            assert got == want, f"seed {seed}: {got} != {want}"


class TestExactStructure:
    def test_identity_and_symmetry(self):
        X = random_gds(3, 2, seed=11)
        Y = random_gds(2, 2, seed=12)
        assert dconc_exact(X, X).value == 0
        assert dconc_exact(X, Y).value == dconc_exact(Y, X).value

    def test_witness_coupling_attains_the_value(self):
        X = random_gds(3, 2, seed=21)
        Y = random_gds(3, 2, seed=22)
        res = dconc_exact(X, Y)
        assert dconc_at_coupling(X, Y, res.coupling) == res.value
        res.coupling.check_marginals(X.measure, Y.measure)

    def test_any_coupling_bounds_from_above(self):
        X = random_gds(3, 2, seed=31)
        Y = random_gds(2, 1, seed=32)
        best = dconc_exact(X, Y).value
        for pi in enumerate_couplings(X.measure, Y.measure):
            assert dconc_at_coupling(X, Y, pi) >= best

    def test_transfer_maps_pick_argmin_features(self):
        X = random_gds(3, 3, seed=41)
        Y = random_gds(3, 2, seed=42)
        pi = product_coupling(X.measure, Y.measure)
        to_right = feature_transfer(X, Y, pi)
        to_left = feature_transfer(Y, X, pi_transposed(pi))
        cells = [(x, y) for x in range(X.n) for y in range(Y.n)]
        masses = [pi.matrix[x][y] for (x, y) in cells]
        for i, f in enumerate(X.features.rows):
            vals = [
                kf_on_cells(masses, [abs(f[x] - g[y]) for (x, y) in cells])
                for g in Y.features.rows
            ]
            assert vals[to_right[i]] == min(vals)
        for j, g in enumerate(Y.features.rows):
            vals = [
                kf_on_cells(masses, [abs(f[x] - g[y]) for (x, y) in cells])
                for f in X.features.rows
            ]
            assert vals[to_left[j]] == min(vals)

    @pytest.mark.parametrize(
        "x_rows, x_weights, y_rows, y_weights",
        [
            (
                [["1/2", "1/2", "3/8"], ["1/4", "3/8", "0"]], ["7/10", "1/10", "1/5"],
                [["1", "3/8", "1/8"], ["7/8", "0", "7/8"]], ["1/2", "2/7", "3/14"],
            ),
            (
                [["1/4", "1/2", "3/8"], ["1/8", "1/4", "1"]], ["1/3", "1/6", "1/2"],
                [["7/8", "3/4", "1"], ["3/8", "5/8", "7/8"]], ["3/10", "1/5", "1/2"],
            ),
        ],
    )
    def test_float_bound_rounding_below_a_level_keeps_it(
        self, x_rows, x_weights, y_rows, y_weights
    ):
        # In float mode the product-coupling bound of these pairs can sum to
        # 0.49999999999999994, just under the level 1/2 holding the optimum.
        X = GeometricDataSet.build(x_rows, x_weights)
        Y = GeometricDataSet.build(y_rows, y_weights)
        assert dconc_exact(X, Y).value == Q(1, 2)
        Xf = GeometricDataSet.build(x_rows, x_weights, mode="float")
        Yf = GeometricDataSet.build(y_rows, y_weights, mode="float")
        assert abs(dconc_exact(Xf, Yf).value - 0.5) <= 1e-9

    @pytest.mark.parametrize("mode, scalar", [("exact", Q), ("float", float)])
    def test_zero_value_is_the_mode_scalar(self, mode, scalar):
        # A forced coupling with every Ky Fan deviation 0, and a search
        # that ends on the grid level 0.
        X = random_gds(1, 1, seed=288, mode=mode)
        Y = random_gds(1, 1, seed=295, mode=mode)
        Z = random_gds(3, 2, seed=1, mode=mode)
        for value in (dconc_exact(X, Y).value, dconc_exact(Z, Z).value):
            assert type(value) is scalar and value == 0

    def test_budget_gate(self):
        X = random_gds(3, 3, seed=51)
        Y = random_gds(3, 3, seed=52)
        with pytest.raises(BudgetExceeded):
            dconc_exact(X, Y, assignment_budget=10)


MODES = [("exact", Q), ("float", float)]


class TestProductBound:
    """The search's upper bound runs on scaled ints; dconc_at_coupling at
    the product coupling, on the rationals, is its oracle."""

    @pytest.mark.parametrize("mode, scalar", MODES)
    def test_equals_dconc_at_the_product_coupling(self, mode, scalar):
        rng = random.Random(14)
        for trial in range(120):
            n, m = rng.randint(2, 5), rng.randint(2, 5)
            scale = rng.choice([4, 8, 12, 30])
            X = random_gds(n, rng.randint(1, 3), seed=2 * trial, scale=scale, mode=mode)
            Y = random_gds(m, rng.randint(1, 3), seed=2 * trial + 1, scale=scale, mode=mode)
            want = dconc_at_coupling(X, Y, product_coupling(X.measure, Y.measure))
            got = _DconcSearch(X, Y).product_bound()
            assert type(got) is scalar and repr(got) == repr(want)

    @pytest.mark.parametrize("mode, scalar", MODES)
    def test_zero_bound_is_the_mode_scalar(self, mode, scalar):
        # One point on each side, the same feature values: every gap is 0.
        for rows in (["0"], ["3/8"], ["1", "1/4"]):
            X = GeometricDataSet.build([[v] for v in rows], ["1"], mode=mode)
            Y = GeometricDataSet.build([[v] for v in reversed(rows)], ["1"], mode=mode)
            want = dconc_at_coupling(X, Y, product_coupling(X.measure, Y.measure))
            got = _DconcSearch(X, Y).product_bound()
            assert type(got) is scalar and got == want == 0


class TestKyFanTable:
    """The search's Ky Fan evaluator against ky_fan_coupling on the
    coupling's own entries (rationals in exact mode)."""

    @staticmethod
    def couplings(X, Y):
        """The lattice couplings and flow witnesses, many with zero entries."""
        pis = list(enumerate_couplings(X.measure, Y.measure, 2))
        full = (1 << X.n * Y.n) - 1
        for mask in (1, 5 & full, full - 1):
            keep = CellSet.from_mask(X.n, Y.n, mask)
            pis.append(max_mass_on_set(X.measure, Y.measure, keep)[1])
        return pis

    @pytest.mark.parametrize("mode, scalar", MODES)
    def test_entries_equal_ky_fan_coupling(self, mode, scalar):
        rng = random.Random(41)
        zeros = 0
        for trial in range(40):
            n, m = rng.randint(2, 4), rng.randint(1, 4)
            kx, ky = rng.randint(1, 3), rng.randint(1, 3)
            X = random_gds(n, kx, seed=3 * trial, scale=rng.choice([4, 12]), mode=mode)
            Y = random_gds(m, ky, seed=3 * trial + 1, scale=12, mode=mode)
            for A, B in ((X, Y), (Y, X)):
                search = _DconcSearch(A, B)
                for pi in self.couplings(A, B):
                    zeros += any(x == 0 for row in pi.matrix for x in row)
                    rows, unit = scaled_ints(*pi.matrix)
                    table = search.ky_fan_table(rows, unit)
                    scale = None if unit is None else search.table.scale * unit
                    for f, row in zip(A.features.rows, table):
                        for g, value in zip(B.features.rows, row):
                            want = ky_fan_coupling(pi, f, g)
                            got = unscaled(value, scale)
                            assert type(got) is scalar and repr(got) == repr(want)
                    value = search.table_value(table, unit)
                    assert repr(value) == repr(dconc_at_coupling(A, B, pi))
                    want = (
                        dconc_at_coupling(A, B, pi),
                        feature_transfer(A, B, pi),
                        feature_transfer(B, A, pi_transposed(pi)),
                    )
                    assert repr(search.read(rows, unit)) == repr(want)
        assert zeros > 100


def heuristic_reference(X, Y, budget=12, seed=0):
    """dconc_heuristic with every coupling read on its own entries, through
    dconc_at_coupling and feature_transfer: the reference for the reads
    off the int Ky Fan table."""
    if X.n == 1 or Y.n == 1:
        pi = product_coupling(X.measure, Y.measure)
        return dconc_at_coupling(X, Y, pi), pi
    search = _DconcSearch(X, Y)
    rng = random.Random(seed)
    anchors = list(enumerate_couplings(X.measure, Y.measure, 2))
    rng.shuffle(anchors)
    anchors = [product_coupling(X.measure, Y.measure)] + anchors[: max(1, budget // 2)]

    def pair_value(u, v):
        cap = lambda i: search.joint_min_cap(search.pair_sets(u, v, i))
        return crossing(len(search.grid), search.level, cap, 1)

    best_val, best_pi = None, None
    for current in anchors:
        seen = set()
        for _ in range(max(1, budget)):
            val = dconc_at_coupling(X, Y, current)
            if best_val is None or val < best_val:
                best_val, best_pi = val, current
            u = feature_transfer(X, Y, current)
            v = feature_transfer(Y, X, pi_transposed(current))
            if (u, v) in seen:
                break
            seen.add((u, v))
            cand_val, witness = pair_value(u, v)
            if cand_val >= val:
                break
            current = Coupling.certified(*witness, X.mode)
    return best_val, best_pi


class TestSingleSetCap:
    @pytest.mark.parametrize("mode, scalar", MODES)
    def test_witness_is_max_mass_on_set(self, mode, scalar):
        # One capped set: the least cap is 1 minus the most mass a coupling
        # keeps off it, and the witness is max_mass_on_set's coupling.
        rng = random.Random(31)
        for trial in range(20):
            X = random_gds(rng.randint(2, 4), rng.randint(1, 2), seed=trial, mode=mode)
            Y = random_gds(rng.randint(2, 4), rng.randint(1, 2), seed=70 + trial, mode=mode)
            search = _DconcSearch(X, Y)
            full = search.table.full
            for idx in range(len(search.grid)):
                for row in search.exceed(idx):
                    for cells in row:
                        if not cells:
                            continue
                        cap, witness = search.joint_min_cap(frozenset([cells]))
                        pi = Coupling.certified(*witness, mode)
                        keep = CellSet.from_mask(X.n, Y.n, full ^ cells)
                        value, want = max_mass_on_set(X.measure, Y.measure, keep)
                        assert type(cap) is scalar
                        assert repr((cap, pi)) == repr((1 - value, want))


class TestSearchWitnesses:
    @pytest.mark.parametrize("mode, scalar", MODES)
    def test_lp_witness_is_feasibility_lp(self, mode, scalar):
        # Families of 2-4 exceed masks: the LP core fed the search's masks
        # and the Transport's scaled weights, converted once, equals the
        # public feasibility_lp on the same sets in the same order.
        rng = random.Random(53)
        families = 0
        for trial in range(25):
            X = random_gds(rng.randint(2, 4), rng.randint(2, 3), seed=trial, mode=mode)
            Y = random_gds(rng.randint(2, 4), rng.randint(2, 3), seed=90 + trial, mode=mode)
            search = _DconcSearch(X, Y)
            for idx in range(len(search.grid)):
                masks = sorted({s for row in search.exceed(idx) for s in row if s})
                if len(masks) < 2:
                    continue
                family = rng.sample(masks, rng.randint(2, min(4, len(masks))))
                cap, witness = search.joint_min_cap(frozenset(family))
                live = sorted(family, key=lambda s: [c for c in range(X.n * Y.n) if s >> c & 1])
                cells = [CellSet.from_mask(X.n, Y.n, s) for s in live]
                pi, t = feasibility_lp(X.measure, Y.measure, cells)
                assert type(cap) is scalar
                assert repr((cap, Coupling.certified(*witness, mode))) == repr((t, pi))
                families += 1
        assert families > 100

    @pytest.mark.parametrize("mode, scalar", MODES)
    def test_no_live_set_is_the_product(self, mode, scalar):
        for seed in range(6):
            X = random_gds(3, 2, seed=seed, mode=mode)
            Y = random_gds(4, 2, seed=40 + seed, mode=mode)
            search = _DconcSearch(X, Y)
            want = product_coupling(X.measure, Y.measure)
            for sets in (frozenset(), frozenset([0])):
                cap, witness = search.joint_min_cap(sets)
                assert repr((cap, Coupling.certified(*witness, mode))) == repr((0, want))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_a_witness_off_by_one_unit_is_refused(self, mode, monkeypatch):
        # The search's LP witnesses are certified on the simplex's own
        # numbers: one unit moved onto the first cell breaks a marginal.
        solve = coupling._simplex

        def shifted(rows, rhs, objective, start, mode):
            solution, d = solve(rows, rhs, objective, start, mode)
            solution[0] += 1 if mode == "exact" else 1 / 7
            return solution, d

        X = random_gds(3, 2, seed=1, mode=mode)
        Y = random_gds(3, 2, seed=2, mode=mode)
        search = _DconcSearch(X, Y)
        family = frozenset(s for row in search.exceed(0) for s in row if s)
        assert len(family) >= 2
        search.joint_min_cap(family)
        search = _DconcSearch(X, Y)
        monkeypatch.setattr(coupling, "_simplex", shifted)
        with pytest.raises(AssertionError, match="breaks its marginals"):
            search.joint_min_cap(family)


# Common-cap LP solves per (run, mode), counted as calls of
# coupling._simplex, the one LP entry that feasibility_lp and the dconc
# search both reach: dconc_exact summed over eight seeded pairs of each
# (n, k) class of the dconc-lp benchmark, one dconc_heuristic, and one
# feasibility_lp.
LP_CALLS = {
    ("dconc_exact n=3 k=2", "exact"): 13,
    ("dconc_exact n=3 k=2", "float"): 14,
    ("dconc_exact n=4 k=2", "exact"): 17,
    ("dconc_exact n=4 k=2", "float"): 17,
    ("dconc_exact n=2 k=3", "exact"): 7,
    ("dconc_exact n=2 k=3", "float"): 7,
    ("dconc_heuristic n=4 k=3", "exact"): 12,
    ("dconc_heuristic n=4 k=3", "float"): 9,
    ("feasibility_lp 3x4", "exact"): 1,
    ("feasibility_lp 3x4", "float"): 1,
}


def lp_call_run(name, mode):
    if name.startswith("dconc_exact"):
        n, k = (int(part[2:]) for part in name.split()[1:])
        pairs = [
            (random_gds(n, k, seed=73 + 2 * s, mode=mode),
             random_gds(n, k, seed=74 + 2 * s, mode=mode))
            for s in range(8)
        ]
        return lambda: [dconc_exact(X, Y) for X, Y in pairs]
    if name.startswith("dconc_heuristic"):
        X, Y = random_gds(4, 3, seed=73, mode=mode), random_gds(4, 3, seed=74, mode=mode)
        return lambda: dconc_heuristic(X, Y)
    mu = random_gds(3, 2, seed=73, mode=mode).measure
    nu = random_gds(4, 2, seed=74, mode=mode).measure
    sets = [
        CellSet.from_pairs(3, 4, [(0, 0), (1, 1), (2, 2)]),
        CellSet.from_pairs(3, 4, [(0, 3), (1, 2), (2, 1), (2, 3)]),
    ]
    return lambda: feasibility_lp(mu, nu, sets)


class TestLpCalls:
    @pytest.mark.parametrize("name, mode", sorted(LP_CALLS))
    def test_solvers_make_the_pinned_number_of_lp_solves(self, name, mode, monkeypatch):
        run = lp_call_run(name, mode)
        solve = coupling._simplex
        calls = []

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(coupling, "_simplex", counted)
        run()
        assert len(calls) == LP_CALLS[name, mode]


class TestHeuristic:
    def test_never_below_exact(self):
        for seed in range(8):
            X = random_gds(3, 2, seed=seed)
            Y = random_gds(2, 2, seed=100 + seed)
            exact = dconc_exact(X, Y).value
            approx, pi = dconc_heuristic(X, Y, seed=seed)
            assert approx >= exact
            assert dconc_at_coupling(X, Y, pi) == approx

    def test_deterministic_for_a_seed(self):
        X = random_gds(3, 2, seed=61)
        Y = random_gds(3, 2, seed=62)
        assert dconc_heuristic(X, Y, seed=7)[0] == dconc_heuristic(X, Y, seed=7)[0]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_equals_the_reference_on_the_couplings_entries(self, mode):
        # Exact mode reads value and transfers off one int Ky Fan table;
        # the reference reads them on the coupling's rationals.
        rng = random.Random(43)
        for trial in range(40):
            X = random_gds(rng.randint(2, 4), rng.randint(1, 3), seed=5 * trial, mode=mode)
            Y = random_gds(rng.randint(1, 4), rng.randint(1, 3), seed=5 * trial + 2, mode=mode)
            budget, seed = rng.randint(1, 8), rng.getrandbits(16)
            got = dconc_heuristic(X, Y, budget=budget, seed=seed)
            assert repr(got) == repr(heuristic_reference(X, Y, budget, seed))


class TestLowerWitness:
    def test_step_function_separates_discrete_from_constants(self):
        # the two-level step on the four-point discrete space keeps mass
        # 1/2 at distance >= 1/2 from any constant
        X = n_point_discrete(4)
        grid = singleton_gds([Q(j, 8) for j in range(9)])
        step = (0, 0, 1, 1)
        assert dconc_lower_witness(X, grid, step) == Q(1, 2)

    def test_family_member_bounds_from_below(self):
        for seed in range(6):
            X = random_gds(3, 2, seed=seed)
            Y = random_gds(2, 2, seed=200 + seed)
            exact = dconc_exact(X, Y).value
            for row in X.features.rows:
                assert dconc_lower_witness(X, Y, row) <= exact

    def test_non_lipschitz_witness_rejected(self):
        X = n_point_discrete(2)
        Y = singleton_gds([1])
        with pytest.raises(WitnessNotLipschitz):
            dconc_lower_witness(X, Y, (0, 5))

    def test_float_witness_in_exact_mode_rejected(self):
        # A float cannot be scaled with the exact gaps and weights.
        X, Y = random_gds(3, 2, seed=1), random_gds(3, 2, seed=2)
        row = [float(v) for v in X.features.rows[0]]
        with pytest.raises(ModeMismatch):
            dconc_lower_witness(X, Y, row)

    @pytest.mark.parametrize("mode, scalar", MODES)
    def test_bound_is_the_mode_scalar(self, mode, scalar):
        for seed in range(4):
            X = random_gds(3, 2, seed=seed, mode=mode)
            Y = random_gds(2, 2, seed=300 + seed, mode=mode)
            for row in X.features.rows:
                assert type(dconc_lower_witness(X, Y, row)) is scalar

    @pytest.mark.parametrize("n, m, k", [(3, 3, 2), (4, 2, 2), (2, 4, 3), (5, 5, 2), (3, 1, 2)])
    def test_strassen_identity(self, n, m, k):
        # The least Ky Fan value of |w(x) - g(y)| over couplings is the
        # Prohorov distance of the two value distributions on the line,
        # here by the subset scan, which shares no code with the sweep.
        for seed in range(40):
            X = random_gds(n, k, seed=seed)
            Y = random_gds(m, k, seed=500 + seed)
            for w in X.features.rows:
                values = []
                for g in Y.features.rows:
                    line = sorted(set(w) | set(g))
                    pos = {v: i for i, v in enumerate(line)}
                    wf = pushforward_vector(X.measure, [pos[v] for v in w], len(line))
                    wg = pushforward_vector(Y.measure, [pos[v] for v in g], len(line))
                    dist = [[abs(a - b) for b in line] for a in line]
                    values.append(prohorov_weights(wf, wg, dist, "brute"))
                assert dconc_lower_witness(X, Y, w) == min(values)
