import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gds import (
    CellSet,
    DiscreteMeasure,
    GeometricDataSet,
    box_fixed_coupling,
    coupling,
    product_coupling,
)
from gds.coupling import (
    Coupling,
    _northwest_corner,
    coupling_prohorov,
    enumerate_couplings,
    feasibility_lp,
    glue,
    max_mass_on_set,
    transportation_vertices,
)
from gds.errors import GdsError, MarginalMismatch, SizeLimit
from gds.flows import bits
from gds.numerics import EXACT, FLOAT, Q, scaled_ints
from gds.spaces import random_gds


def rand_measure(rnd, n):
    raw = [rnd.randrange(1, 5) for _ in range(n)]
    tot = sum(raw)
    return DiscreteMeasure.from_weights([Q(r, tot) for r in raw])


def rational_lattice(mu, nu, resolution):
    """enumerate_couplings as it was built before the int lattice.

    Every anchor and blend is a matrix of the mode's scalars (rationals
    in exact mode), blended as lam * a + (1 - lam) * b; the oracle of
    the int lattice, which must return the same tuple by repr.
    """
    mode = mu.mode
    n, m = mu.n, nu.n
    anchors = [product_coupling(mu, nu)]
    orders = [
        (range(n), range(m)),
        (range(n), reversed(range(m))),
        (reversed(range(n)), range(m)),
        (reversed(range(n)), reversed(range(m))),
    ]
    for ro, co in orders:
        corner, _ = _northwest_corner(mu.weights, nu.weights, list(ro), list(co))
        anchors.append(Coupling(corner, mode))
    out = {pi.matrix: pi for pi in anchors}
    for a, b in itertools.combinations(anchors, 2):
        for k in range(1, resolution):
            lam = k / resolution if mode == "float" else Q(k, resolution)
            matrix = tuple(
                tuple(
                    lam * a.matrix[i][j] + (1 - lam) * b.matrix[i][j]
                    for j in range(m)
                )
                for i in range(n)
            )
            if matrix not in out:
                out[matrix] = Coupling(matrix, mode)
    return tuple(out[k] for k in sorted(out))


def peel_oracle(n, m, edges, mu, nu):
    """_forest_flows as it was before the int peel: on the weights
    themselves, rescanning every node's edge set for each leaf."""
    need = list(mu) + list(nu)
    adj = {u: set() for u in range(n + m)}
    for (i, j) in edges:
        adj[i].add((i, j))
        adj[n + j].add((i, j))
    flow = {}
    pending = set(edges)
    while pending:
        leaf = None
        for u in range(n + m):
            live = [e for e in adj[u] if e in pending]
            if len(live) == 1:
                leaf = (u, live[0])
                break
        if leaf is None:
            return None
        u, (i, j) = leaf
        amount = need[u]
        if amount < 0:
            return None
        flow[(i, j)] = amount
        need[i] -= amount
        need[n + j] -= amount
        pending.discard((i, j))
    if any(v != 0 for v in need):
        return None
    if any(v < 0 for v in flow.values()):
        return None
    zero = mu[0] - mu[0]
    matrix = [[zero] * m for _ in range(n)]
    for (i, j), v in flow.items():
        matrix[i][j] = v
    return tuple(tuple(r) for r in matrix)


def vertices_oracle(mu, nu):
    """transportation_vertices on peel_oracle, deduplicated on the
    weights' own scalars: the oracle of the int peel."""
    n, m = mu.n, nu.n
    cells = [(i, j) for i in range(n) for j in range(m)]
    seen = {}
    for edges in itertools.combinations(cells, min(n + m - 1, len(cells))):
        matrix = peel_oracle(n, m, edges, mu.weights, nu.weights)
        if matrix is not None and matrix not in seen:
            seen[matrix] = Coupling(matrix, mu.mode)
    return tuple(seen[k] for k in sorted(seen))


measure_pairs = st.builds(
    lambda rnd, n, m: (rand_measure(rnd, n), rand_measure(rnd, m)),
    st.randoms(use_true_random=False),
    st.integers(1, 3),
    st.integers(1, 3),
)


class TestCoupling:
    def test_product_has_the_right_marginals(self):
        mu = DiscreteMeasure.from_weights([Q(1, 4), Q(3, 4)])
        nu = DiscreteMeasure.uniform(3)
        pi = product_coupling(mu, nu)
        assert pi.row_sums() == mu.weights
        assert pi.col_sums() == nu.weights
        pi.check_marginals(mu, nu)

    def test_marginal_mismatch_detected(self):
        mu = DiscreteMeasure.uniform(2)
        nu = DiscreteMeasure.from_weights([Q(1, 4), Q(3, 4)])
        pi = product_coupling(mu, mu)
        with pytest.raises(MarginalMismatch):
            pi.check_marginals(mu, nu)

    @pytest.mark.parametrize(
        "matrix",
        [((Q(1, 2), 0), (0, Q(1, 4))), ((Q(1, 12),) * 3,) * 4],
        ids=["2x2", "4x3"],
    )
    def test_wrong_shape_is_a_marginal_mismatch(self, matrix):
        # Neither shape is 3x3: the 2x2 one's sums match the first two
        # weights, and the 4x3 one has a row with no weight.
        mu = DiscreteMeasure.from_weights([Q(1, 2), Q(1, 4), Q(1, 4)])
        pi = Coupling(matrix)
        message = f"coupling is {pi.n}x{pi.m}, its marginals need 3x3"
        with pytest.raises(MarginalMismatch, match=message):
            pi.check_marginals(mu, mu)
        X = GeometricDataSet.build([[0, 1, 2]], mu.weights)
        with pytest.raises(MarginalMismatch, match=message):
            box_fixed_coupling(X, X, pi)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "to, message",
        [
            ((1, 0), "row 0 sums to 1/6, expected 1/4"),
            ((0, 1), "col 0 sums to 1/4, expected 1/3"),
        ],
    )
    def test_marginal_off_by_one_unit_is_detected(self, mode, to, message):
        # Over the common denominator D = 12, move one unit 1/D of mass
        # from cell (0, 0) to cell `to`: one row (or one column) sum is
        # then off by 1/D while the other marginal still holds.
        mu = DiscreteMeasure.from_weights(["1/4", "3/4"], mode)
        nu = DiscreteMeasure.from_weights(["1/3", "2/3"], mode)
        rows = [list(row) for row in product_coupling(mu, nu).matrix]
        unit = Q(1, 12) if mode == "exact" else 1 / 12
        rows[0][0] -= unit
        rows[to[0]][to[1]] += unit
        pi = Coupling(tuple(map(tuple, rows)), mode)
        # Float mode renders the sums as floats.
        match = message if mode == "exact" else message[:len("row 0 sums to")]
        with pytest.raises(MarginalMismatch, match=match):
            pi.check_marginals(mu, nu)

    def test_mass_and_support(self):
        pi = product_coupling(DiscreteMeasure.uniform(2), DiscreteMeasure.uniform(2))
        full = CellSet.full(2, 2)
        assert pi.mass(full) == 1
        diag = CellSet.from_pairs(2, 2, [(0, 0), (1, 1)])
        assert pi.mass(diag) == Q(1, 2)
        assert set(pi.support()) == {(0, 0), (0, 1), (1, 0), (1, 1)}


class TestCertifiedCoupling:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_certified_witness_equals_the_checked_coupling(self, mode):
        # max_mass_on_set and feasibility_lp return their certified
        # entries unchecked: the same object, by repr and by equality.
        rnd = random.Random(17)
        for _ in range(30):
            n, m = rnd.randint(1, 4), rnd.randint(1, 4)
            mu, nu = rand_measure(rnd, n), rand_measure(rnd, m)
            if mode == "float":
                mu = DiscreteMeasure.from_weights(map(float, mu.weights), mode)
                nu = DiscreteMeasure.from_weights(map(float, nu.weights), mode)
            sets = [
                CellSet.from_mask(n, m, rnd.getrandbits(n * m))
                for _ in range(rnd.randint(1, 3))
            ]
            witnesses = [max_mass_on_set(mu, nu, sets[0])[1], feasibility_lp(mu, nu, sets)[0]]
            for pi in witnesses:
                checked = Coupling(pi.matrix, mode)
                assert repr(pi) == repr(checked) and pi == checked
                assert hash(pi) == hash(checked)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ((), "a coupling needs a nonempty matrix"),
            (((),), "a coupling needs a nonempty matrix"),
            (((Q(1, 2),), (Q(1, 4), Q(1, 4))), "coupling rows have inconsistent lengths"),
            (((Q(1, 2), Q(-1, 8)),), r"negative coupling entry Fraction\(-1, 8\)"),
        ],
    )
    def test_checked_constructor_keeps_its_errors(self, matrix, message):
        with pytest.raises(GdsError, match=message):
            Coupling(matrix)

    def test_checked_constructor_allows_float_rounding_only(self):
        Coupling(((0.5, -1e-12),), "float")
        with pytest.raises(GdsError, match="negative coupling entry -1e-06"):
            Coupling(((0.5, -1e-6),), "float")


class TestMaxMass:
    def test_diagonal_identity(self):
        mu = DiscreteMeasure.uniform(2)
        diag = CellSet.from_pairs(2, 2, [(0, 0), (1, 1)])
        val, wit = max_mass_on_set(mu, mu, diag)
        assert val == 1
        assert wit.mass(diag) == 1
        wit.check_marginals(mu, mu)

    def test_single_cell_cap(self):
        mu = DiscreteMeasure.from_weights([Q(1, 3), Q(2, 3)])
        nu = DiscreteMeasure.from_weights([Q(3, 4), Q(1, 4)])
        one = CellSet.from_pairs(2, 2, [(0, 0)])
        val, wit = max_mass_on_set(mu, nu, one)
        # capped by the smaller marginal of the cell
        assert val == Q(1, 3)
        assert wit.mass(one) == Q(1, 3)

    @given(measure_pairs, st.randoms(use_true_random=False))
    def test_witness_attains_and_no_vertex_beats_it(self, pair, rnd):
        mu, nu = pair
        n, m = mu.n, nu.n
        cells = CellSet.from_pairs(
            n, m,
            [(i, j) for i in range(n) for j in range(m) if rnd.random() < 0.5],
        )
        val, wit = max_mass_on_set(mu, nu, cells)
        assert wit.mass(cells) == val
        wit.check_marginals(mu, nu)
        for v in transportation_vertices(mu, nu):
            assert v.mass(cells) <= val


class TestVertices:
    def test_two_by_two_vertices(self):
        mu = DiscreteMeasure.uniform(2)
        verts = transportation_vertices(mu, mu)
        mats = {v.matrix for v in verts}
        identity = ((Q(1, 2), Q(0)), (Q(0), Q(1, 2)))
        swap = ((Q(0), Q(1, 2)), (Q(1, 2), Q(0)))
        assert identity in mats
        assert swap in mats

    @given(measure_pairs)
    def test_vertex_support_is_a_forest(self, pair):
        mu, nu = pair
        for v in transportation_vertices(mu, nu):
            v.check_marginals(mu, nu)
            assert len(v.support()) <= mu.n + nu.n - 1

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_int_peel_matches_the_oracle(self, mode):
        # Same vertices in the same order, by repr, on seeded marginals of
        # up to 9 cells; uniform weights give many degenerate forests.
        rnd = random.Random(11)
        shapes = [(n, m) for n in range(1, 10) for m in range(1, 10) if n * m <= 9]
        for trial in range(60):
            n, m = shapes[trial % len(shapes)]
            if trial % 3:
                mu, nu = rand_measure(rnd, n), rand_measure(rnd, m)
            else:
                mu, nu = DiscreteMeasure.uniform(n), DiscreteMeasure.uniform(m)
            if mode == "float":
                mu = DiscreteMeasure.from_weights(map(float, mu.weights), mode)
                nu = DiscreteMeasure.from_weights(map(float, nu.weights), mode)
            got = transportation_vertices(mu, nu)
            assert repr(got) == repr(vertices_oracle(mu, nu))

    def test_more_than_nine_cells_is_refused(self):
        mu, nu = DiscreteMeasure.uniform(2), DiscreteMeasure.uniform(5)
        with pytest.raises(SizeLimit, match="caps at 9 cells, got 10"):
            transportation_vertices(mu, nu)

    @given(measure_pairs, st.integers(1, 4))
    def test_grid_holds_every_blend_of_two_anchors(self, pair, resolution):
        # Resolution 1 lists the anchors alone.  Blending each unordered
        # pair once loses no blend of an ordered pair: lam * a + (1 - lam) * b
        # is the blend of (b, a) at 1 - lam.
        mu, nu = pair
        anchors = [pi.matrix for pi in enumerate_couplings(mu, nu, 1)]
        want = set()
        for a in anchors:
            for b in anchors:
                for k in range(resolution + 1):
                    lam = Q(k, resolution)
                    want.add(tuple(
                        tuple(lam * x + (1 - lam) * y for x, y in zip(ra, rb))
                        for ra, rb in zip(a, b)
                    ))
        got = [pi.matrix for pi in enumerate_couplings(mu, nu, resolution)]
        assert got == sorted(want)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_lattice_matches_the_rational_oracle(self, mode):
        rnd = random.Random(7)
        for _ in range(40):
            n, m = rnd.randint(1, 5), rnd.randint(1, 5)
            mu = rand_measure(rnd, n)
            nu = rand_measure(rnd, m)
            if mode == "float":
                mu = DiscreteMeasure.from_weights(map(float, mu.weights), mode)
                nu = DiscreteMeasure.from_weights(map(float, nu.weights), mode)
            for resolution in range(1, 5):
                # repr tells Fraction, int and float entries apart.
                got = enumerate_couplings(mu, nu, resolution)
                assert repr(got) == repr(rational_lattice(mu, nu, resolution))

    def test_enumerate_grid_mode_gives_valid_couplings(self):
        mu = DiscreteMeasure.uniform(2)
        nu = DiscreteMeasure.from_weights([Q(1, 4), Q(3, 4)])
        for pi in enumerate_couplings(mu, nu, resolution=3):
            pi.check_marginals(mu, nu)


class TestGlue:
    def test_identity_middle_recovers_left(self):
        mu = DiscreteMeasure.from_weights([Q(1, 3), Q(2, 3)])
        # identity coupling of mu with itself
        ident = Coupling(((Q(1, 3), Q(0)), (Q(0), Q(2, 3))))
        nu = DiscreteMeasure.uniform(2)
        pi = product_coupling(mu, nu)
        tensor, xz = glue(ident, pi)
        assert xz.matrix == pi.matrix
        total = sum(sum(sum(plane) for plane in row) for row in tensor)
        assert total == 1

    def test_middle_marginal_mismatch_rejected(self):
        a = product_coupling(DiscreteMeasure.uniform(2), DiscreteMeasure.uniform(2))
        b = product_coupling(
            DiscreteMeasure.from_weights([Q(1, 4), Q(3, 4)]), DiscreteMeasure.uniform(2)
        )
        with pytest.raises(MarginalMismatch):
            glue(a, b)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_massless_middle_point_gives_the_modes_zeros(self, mode):
        # The plane of a middle point with no mass reads 0/0 as the mode's
        # zero, a Fraction or a float like every other entry, not an int.
        half, zero = (Q(1, 2), Q(0)) if mode == EXACT else (0.5, 0.0)
        pi_xy = Coupling(((half, zero), (half, zero)), mode)
        pi_yz = Coupling(((half, half), (zero, zero)), mode)
        tensor, xz = glue(pi_xy, pi_yz)
        quarter = half * half
        assert tensor == (((quarter, quarter), (zero, zero)),) * 2
        entries = [v for row in tensor for plane in row for v in plane]
        entries += [v for row in xz.matrix for v in row]
        assert {type(v) for v in entries} == {type(zero)}
        assert xz == Coupling(((quarter, quarter),) * 2, mode)

    @given(measure_pairs, st.randoms(use_true_random=False))
    def test_glued_coupling_has_outer_marginals(self, pair, rnd):
        mu, nu = pair
        mid = rand_measure(rnd, 2)
        pi_xy = product_coupling(mu, mid)
        pi_yz = product_coupling(mid, nu)
        _, xz = glue(pi_xy, pi_yz)
        xz.check_marginals(mu, nu)


class TestCouplingProhorov:
    def test_same_coupling_is_zero(self):
        pi = product_coupling(DiscreteMeasure.uniform(2), DiscreteMeasure.uniform(2))
        d = [[0, 1], [1, 0]]
        assert coupling_prohorov(pi, pi, d, d) == 0

    def test_product_vs_identity_on_discrete_points(self):
        # moving mass 1/2 across a unit gap in the product metric
        mu = DiscreteMeasure.uniform(2)
        prod = product_coupling(mu, mu)
        ident = Coupling(((Q(1, 2), Q(0)), (Q(0), Q(1, 2))))
        d = [[0, 1], [1, 0]]
        assert coupling_prohorov(prod, ident, d, d) == Q(1, 2)

    def test_symmetry(self):
        mu = DiscreteMeasure.from_weights([Q(1, 3), Q(2, 3)])
        nu = DiscreteMeasure.uniform(2)
        X = random_gds(2, 2, seed=1)
        Y = random_gds(2, 2, seed=2)
        a = product_coupling(mu, nu)
        b = Coupling(((Q(1, 3), Q(0)), (Q(1, 6), Q(1, 2))))
        assert coupling_prohorov(a, b, X.dist, Y.dist) == coupling_prohorov(
            b, a, X.dist, Y.dist
        )


class TestSetMassProgram:
    def test_common_cap_on_diagonal_and_antidiagonal(self):
        mu = DiscreteMeasure.uniform(2)
        diag = CellSet.from_pairs(2, 2, [(0, 0), (1, 1)])
        anti = CellSet.from_pairs(2, 2, [(0, 1), (1, 0)])
        pi, t = feasibility_lp(mu, mu, (diag, anti))
        assert t == Q(1, 2)
        assert pi.mass(diag) <= t
        assert pi.mass(anti) <= t
        pi.check_marginals(mu, mu)

    def test_frozen_witness_3x3(self):
        # Pins the pivot path: the LP has many optimal vertices, and the
        # simplex must keep landing on this one.
        mu = DiscreteMeasure.from_weights([Q(1, 6), Q(1, 3), Q(1, 2)])
        nu = DiscreteMeasure.from_weights([Q(1, 4), Q(1, 4), Q(1, 2)])
        sets = (
            CellSet.from_pairs(3, 3, [(0, 0), (1, 1), (2, 2)]),
            CellSet.from_pairs(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1)]),
            CellSet.from_pairs(3, 3, [(1, 1), (1, 2), (2, 1), (2, 2)]),
        )
        pi, t = feasibility_lp(mu, nu, sets)
        assert t == Q(7, 12)
        assert pi.matrix == (
            (0, Q(1, 6), 0),
            (Q(1, 4), Q(1, 12), 0),
            (0, 0, Q(1, 2)),
        )

    def test_frozen_witness_4x4(self):
        mu = DiscreteMeasure.from_weights([Q(1, 10), Q(1, 5), Q(3, 10), Q(2, 5)])
        nu = DiscreteMeasure.from_weights([Q(1, 4), Q(1, 8), Q(3, 8), Q(1, 4)])
        sets = (
            CellSet.from_pairs(4, 4, [(0, 0), (1, 1), (2, 2), (3, 3)]),
            CellSet.from_pairs(4, 4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
            CellSet.from_pairs(4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]),
            CellSet.from_pairs(4, 4, [(2, 0), (3, 1), (2, 3), (1, 3), (3, 3)]),
        )
        pi, t = feasibility_lp(mu, nu, sets)
        assert t == Q(11, 60)
        assert pi.matrix == (
            (0, 0, 0, Q(1, 10)),
            (Q(1, 24), 0, Q(1, 120), Q(3, 20)),
            (Q(1, 30), Q(1, 8), Q(17, 120), 0),
            (Q(7, 40), 0, Q(9, 40), 0),
        )

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("shift", [Q(1, 7), -Q(1, 7)])
    def test_cap_certificate_refuses_a_cap_off_the_heaviest_set(
        self, mode, shift, monkeypatch
    ):
        # A cap above every set mass, or below the heaviest, must fail the
        # check; the marginals are untouched, so only the cap check can.
        # Float mode moves t by the shift, exact mode by one unit of the
        # simplex's ints (which are over d * D) in the shift's direction.
        solve = coupling._simplex

        def shifted(rows, rhs, objective, start, mode):
            solution, d = solve(rows, rhs, objective, start, mode)
            step = (1 if shift > 0 else -1) if mode == "exact" else float(shift)
            solution[objective] += step
            return solution, d

        monkeypatch.setattr(coupling, "_simplex", shifted)
        mu = DiscreteMeasure.from_weights(["1/6", "1/3", "1/2"], mode)
        nu = DiscreteMeasure.from_weights(["1/4", "1/4", "1/2"], mode)
        sets = (
            CellSet.from_pairs(3, 3, [(0, 0), (1, 1), (2, 2)]),
            CellSet.from_pairs(3, 3, [(1, 1), (1, 2), (2, 1), (2, 2)]),
        )
        with pytest.raises(AssertionError, match="common cap"):
            feasibility_lp(mu, nu, sets)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize(
        "mu,nu,pairs",
        [
            # FROZEN_CAPS seed 1: one point each and no set, so the optimum
            # t = 0 is non-basic.
            (["1"], ["1"], ()),
            # Non-basic witness cells: (0, 0) holds no mass.
            (["1/3", "2/3"], ["1/4", "3/4"], ([(0, 0), (1, 1)], [(0, 1)])),
        ],
    )
    def test_witness_and_cap_carry_the_mode_scalar(self, mode, mu, nu, pairs):
        # Zeros included, every witness cell and t are Fractions in exact
        # mode and floats in float mode, never the int 0.
        mu = DiscreteMeasure.from_weights(mu, mode)
        nu = DiscreteMeasure.from_weights(nu, mode)
        sets = tuple(CellSet.from_pairs(mu.n, nu.n, cells) for cells in pairs)
        pi, t = feasibility_lp(mu, nu, sets)
        values = (t, *itertools.chain(*pi.matrix))
        assert 0 in values
        assert {type(x) for x in values} == {Fraction if mode == "exact" else float}

    def test_duplicate_sets(self):
        mu = DiscreteMeasure.from_weights([Q(1, 3), Q(2, 3)])
        nu = DiscreteMeasure.uniform(2)
        diag = CellSet.from_pairs(2, 2, [(0, 0), (1, 1)])
        anti = CellSet.from_pairs(2, 2, [(0, 1), (1, 0)])
        once = feasibility_lp(mu, nu, (diag, anti))
        twice = feasibility_lp(mu, nu, (diag, anti, diag, anti))
        assert once[1] == twice[1] == Q(1, 2)
        twice[0].check_marginals(mu, nu)

    def test_set_holding_every_cell_forces_one(self):
        mu = DiscreteMeasure.from_weights([Q(1, 3), Q(2, 3)])
        nu = DiscreteMeasure.from_weights([Q(1, 4), Q(1, 4), Q(1, 2)])
        sets = (
            CellSet.full(2, 3),
            CellSet.from_pairs(2, 3, [(0, 0), (1, 1)]),
        )
        pi, t = feasibility_lp(mu, nu, sets)
        assert t == 1
        pi.check_marginals(mu, nu)

    def test_set_on_another_grid_is_refused(self):
        mu = DiscreteMeasure.uniform(2)
        with pytest.raises(GdsError, match="disagrees with the marginals"):
            feasibility_lp(mu, mu, (CellSet.full(2, 3),))


def weights_with_zeros(rnd, n):
    raw = [rnd.choice([0, 0, 1, 2, 3, 5, 7, 11]) for _ in range(n)]
    if not any(raw):
        raw[rnd.randrange(n)] = 1
    return [Q(r, sum(raw)) for r in raw]


class TestNorthwestCorner:
    def test_scaled_ints_keep_the_staircase_and_the_heaviest_set(self):
        # feasibility_lp starts from the corner of the scaled weights and
        # caps the first heaviest set at it; the rational corner is the
        # oracle.  Each family gets a set that ties with its heaviest one
        # (a copy, plus a cell the corner leaves empty where there is one),
        # inserted anywhere, so the first of two tied sets must win.
        rnd = random.Random(12)
        for _ in range(200):
            n, m = rnd.randint(1, 5), rnd.randint(1, 5)
            mu, nu = weights_with_zeros(rnd, n), weights_with_zeros(rnd, m)
            (mu_s, nu_s), D = scaled_ints(mu, nu)
            rows, cols = list(range(n)), list(range(m))
            rnd.shuffle(rows)
            rnd.shuffle(cols)
            matrix, stairs = _northwest_corner(mu, nu, rows, cols)
            scaled, scaled_stairs = _northwest_corner(mu_s, nu_s, rows, cols)
            assert scaled_stairs == stairs
            assert scaled == tuple(tuple(x * D for x in row) for row in matrix)
            corner = Coupling(matrix)
            cells = [(i, j) for i in range(n) for j in range(m)]
            sets = [
                CellSet.from_pairs(n, m, [c for c in cells if rnd.random() < 0.5])
                for _ in range(rnd.randint(1, 4))
            ]
            masses = [corner.mass(s) for s in sets]
            heaviest = sets[masses.index(max(masses))]
            empty = [
                c for c in cells if c not in heaviest and corner.matrix[c[0]][c[1]] == 0
            ]
            tie = heaviest.cells | ({rnd.choice(empty)} if empty else set())
            sets.insert(rnd.randint(0, len(sets)), CellSet(n, m, frozenset(tie)))
            want = [corner.mass(s) for s in sets]
            flat = [x for row in scaled for x in row]
            got = [sum(flat[c] for c in bits(s.to_mask())) for s in sets]
            assert got == [w * D for w in want]
            assert got.index(max(got)) == want.index(max(want))


def rational_weights(rnd, n):
    raw = [rnd.randrange(1, 12) for _ in range(n)]
    tot = sum(raw)
    return [Q(r, tot) for r in raw]


@given(
    st.randoms(use_true_random=False),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 4),
)
def test_common_cap_lp_against_float_mode_and_flow_oracle(rnd, n, m, k):
    ws_mu, ws_nu = rational_weights(rnd, n), rational_weights(rnd, m)
    sets = tuple(
        CellSet.from_pairs(
            n, m,
            [(i, j) for i in range(n) for j in range(m) if rnd.random() < 0.5],
        )
        for _ in range(k)
    )
    mu = DiscreteMeasure.from_weights(ws_mu)
    nu = DiscreteMeasure.from_weights(ws_nu)
    pi, t = feasibility_lp(mu, nu, sets)
    pi.check_marginals(mu, nu)
    masses = [pi.mass(cells) for cells in sets]
    assert max(masses, default=0) == t
    full = CellSet.full(n, m).to_mask()
    for cells in sets:
        floor, _ = max_mass_on_set(mu, nu, CellSet.from_mask(n, m, full ^ cells.to_mask()))
        assert t >= 1 - floor

    fmu = DiscreteMeasure.from_weights([float(w) for w in ws_mu], mode="float")
    fnu = DiscreteMeasure.from_weights([float(w) for w in ws_nu], mode="float")
    _, ft = feasibility_lp(fmu, fnu, sets)
    assert abs(ft - float(t)) <= 1e-9


# Frozen optimal caps of seeded programs, as (seed, n, m, random sets,
# extra sets, t).  Extra sets follow the random ones: "e" is the empty
# set, "f" the full grid and "d" a duplicate of the first set.  The
# witness may be any optimal vertex; t is unique.
FROZEN_CAPS = [
    (1, 1, 1, 0, "", "0"),
    (2, 1, 3, 1, "", "0"),
    (3, 3, 1, 2, "", "14/23"),
    (4, 1, 4, 2, "e", "7/11"),
    (5, 4, 1, 3, "f", "1"),
    (6, 2, 2, 0, "", "0"),
    (7, 2, 3, 1, "", "8/19"),
    (8, 3, 2, 1, "e", "23/119"),
    (9, 3, 3, 0, "f", "1"),
    (10, 3, 3, 0, "e", "0"),
    (11, 2, 4, 2, "d", "17/35"),
    (12, 4, 2, 3, "", "13/33"),
    (13, 3, 4, 4, "", "25/58"),
    (14, 4, 3, 5, "", "487/672"),
    (15, 4, 4, 3, "ef", "1"),
    (16, 4, 4, 4, "d", "11/20"),
    (17, 3, 3, 2, "df", "1"),
    (18, 2, 2, 2, "ed", "1"),
    (19, 4, 4, 5, "", "214/299"),
    (20, 3, 4, 3, "e", "3/5"),
    (21, 4, 3, 2, "fd", "1"),
    (22, 1, 1, 2, "ef", "1"),
    (23, 1, 2, 3, "d", "1"),
    (24, 2, 1, 4, "", "1"),
    (25, 4, 4, 2, "", "76/1275"),
    (26, 3, 3, 4, "d", "3/13"),
    (27, 2, 3, 0, "ee", "0"),
    (28, 4, 2, 1, "ff", "1"),
    (29, 3, 4, 5, "", "263/459"),
    (30, 4, 4, 1, "d", "9/25"),
]


@pytest.mark.parametrize("seed,n,m,k,extras,want", FROZEN_CAPS)
def test_frozen_common_caps(seed, n, m, k, extras, want):
    rnd = random.Random(seed)
    ws_mu, ws_nu = rational_weights(rnd, n), rational_weights(rnd, m)
    sets = [
        CellSet.from_pairs(
            n, m,
            [(i, j) for i in range(n) for j in range(m) if rnd.random() < 0.5],
        )
        for _ in range(k)
    ]
    for e in extras:
        sets.append(
            CellSet.empty(n, m) if e == "e" else CellSet.full(n, m) if e == "f" else sets[0]
        )
    sets = tuple(sets)
    mu = DiscreteMeasure.from_weights(ws_mu)
    nu = DiscreteMeasure.from_weights(ws_nu)
    pi, t = feasibility_lp(mu, nu, sets)
    assert t == Q(want)
    assert max((pi.mass(cells) for cells in sets), default=0) == t

    fmu = DiscreteMeasure.from_weights([float(w) for w in ws_mu], mode="float")
    fnu = DiscreteMeasure.from_weights([float(w) for w in ws_nu], mode="float")
    _, ft = feasibility_lp(fmu, fnu, sets)
    assert abs(ft - float(Q(want))) <= 1e-9
