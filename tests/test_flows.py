"""The bipartite max-flow kernel and the solvers built on it.

The bitset kernel must return what the capacity-dict Edmonds-Karp it
replaced returns, value and plan equal by repr with types, in rational,
scaled-int and float arithmetic, both from the empty flow and from the
greedy start that greedy_by_cell_scan builds as a plan; that kernel
stays here as the oracle dict_edmonds_karp.  The kernel ships the greedy
start itself, and the two oracle runs agreeing with it is the evidence
that the start is the first phase of the run from the empty flow.

Every solver reaches the kernel through flows.Transport, which scales
the weights to ints once and hands the kernel int capacities.  The
properties below check that this changes nothing: the value and the
witness coupling, which Transport completes on the same ints, equal
those of the kernel run on the rationals themselves and completed in
rational arithmetic, which stays here as the oracle.  The greedy-start
property checks that the start is feasible and keeps the value.  The
frozen values pin what the flow-backed solvers return, witnesses
included: `box_exact` completes a max-flow plan into its coupling, so a
change in the plan the kernel finds would change the matrix below.  The
threshold sweeps of `dis_coupling`, `box_fixed_coupling` and
`box_heuristic` are frozen the same way, in both modes, cells included:
on ties the sweep keeps the first best set it meets, so a reordered
sweep would show there.  The number of kernel calls that four seeded
sweeps make is pinned as well, so a search that solves more levels or
more clique candidates than it needs fails here.
"""

import random
from collections import deque

import pytest
from hypothesis import example, given, strategies as st

from gds import (
    CellSet,
    box_exact,
    box_fixed_coupling,
    box_heuristic,
    box_mm_exact,
    dconc_exact,
    dconc_lower_witness,
    dis_coupling,
    distortion,
    gds_to_mm,
    prohorov,
)
from gds import flows
from gds.coupling import product_coupling
from gds.flows import Transport, certify_coupling, max_flow_on_cells
from gds.numerics import Q, close, scaled_ints, unscaled
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


def completed_on_rationals(mu, nu, mask):
    """The kernel's plan on the raw rationals, product-completed.

    Residual row masses a_i and column masses b_j add a_i * b_j / L to
    each cell, L being the total of the a_i; rational arithmetic
    throughout, as an oracle for Transport.coupling.
    """
    value, plan = max_flow_on_cells(mu, nu, mask)
    a = [mu[i] - sum(plan[i]) for i in range(len(mu))]
    b = [nu[j] - sum(row[j] for row in plan) for j in range(len(nu))]
    leftover = sum(a)
    rows = [list(row) for row in plan]
    if leftover > 0:
        for i in range(len(mu)):
            for j in range(len(nu)):
                if a[i] and b[j]:
                    rows[i][j] += a[i] * b[j] / leftover
    return value, tuple(tuple(row) for row in rows)


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
    # In float, row 1 keeps a rounding leftover of 4.4e-16, which must not
    # be spread as a full unit of mass onto cell (1, 3).
    @example(instance=([Q(0), Q(7, 3)], [Q(0), Q(1), Q(4, 3), Q(1)], 96))
    def test_transport_gives_the_rational_flow_and_plan(self, instance):
        mu, nu, mask = instance
        want_value, want_matrix = completed_on_rationals(mu, nu, mask)
        transport = Transport(mu, nu)
        value, matrix = transport.coupling(mask)
        assert (value, matrix) == (want_value, want_matrix)
        assert type(value) is Q
        assert all(type(x) is Q for row in matrix for x in row)
        assert unscaled(transport.scaled_value(mask), transport.scale) == want_value
        if sum(mu) == sum(nu):
            assert [sum(row) for row in matrix] == mu
            assert [sum(col) for col in zip(*matrix)] == nu
            assert sum(
                x for c, x in enumerate(y for row in matrix for y in row)
                if mask >> c & 1
            ) == value
        float_transport = Transport([float(w) for w in mu], [float(w) for w in nu])
        assert abs(
            unscaled(float_transport.scaled_value(mask), float_transport.scale)
            - float(want_value)
        ) <= 1e-9
        value, matrix = float_transport.coupling(mask)
        assert abs(value - float(want_value)) <= 1e-9
        assert all(
            abs(x - float(y)) <= 1e-9
            for row, want_row in zip(matrix, want_matrix)
            for x, y in zip(row, want_row)
        )

    def test_transport_solves_each_value_mask_once(self, monkeypatch):
        masks = []

        def recording(mu, nu, allowed):
            masks.append(allowed)
            return max_flow_on_cells(mu, nu, allowed)

        monkeypatch.setattr(flows, "max_flow_on_cells", recording)
        transport = Transport([Q(1, 3), Q(2, 3)], [Q(1, 2), Q(1, 2)])
        first, again = (
            unscaled(transport.scaled_value(0b1001), transport.scale) for _ in range(2)
        )
        assert first == again == Q(5, 6)
        value, matrix = transport.coupling(0b1001)
        assert value == Q(5, 6)
        assert matrix == ((Q(1, 3), 0), (Q(1, 6), Q(1, 2)))
        # The value once, memoised; the witness plan once more.
        assert masks == [0b1001, 0b1001]

    def test_scaled_value_is_the_value_times_the_scale(self):
        rng = random.Random(17)
        for _ in range(60):
            mu = [Q(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
            nu = [Q(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
            exact = Transport(mu, nu)
            rough = Transport([float(w) for w in mu], [float(w) for w in nu])
            for _ in range(8):
                mask = rng.getrandbits(len(mu) * len(nu))
                scaled = exact.scaled_value(mask)
                assert type(scaled) is int
                # The rational flow times the scale.
                assert scaled == max_flow_on_cells(mu, nu, mask)[0] * exact.scale
                # Float mode passes its floats through unscaled.
                assert rough.scale is None
                assert unscaled(rough.scaled_value(mask), rough.scale) == (
                    max_flow_on_cells(*rough.weights, mask)[0]
                )

    def test_completion_is_an_int_coupling_over_its_unit(self):
        rng = random.Random(19)
        for _ in range(60):
            mu = [Q(rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
            nu = [Q(rng.randint(1, 9)) for _ in range(rng.randint(1, 5))]
            mu = [w / sum(mu) for w in mu]
            nu = [w / sum(nu) for w in nu]
            transport = Transport(mu, nu)
            mask = rng.getrandbits(len(mu) * len(nu))
            flow, rows, unit = transport.completion(mask)
            assert all(type(x) is int and x >= 0 for row in rows for x in row)
            assert unit % transport.scale == 0
            assert [Q(sum(row), unit) for row in rows] == mu
            assert [Q(sum(col), unit) for col in zip(*rows)] == nu
            kept = sum(x for c, x in enumerate(y for row in rows for y in row) if mask >> c & 1)
            value = unscaled(transport.scaled_value(mask), transport.scale)
            assert Q(kept, unit) == Q(flow, transport.scale) == value

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

    def test_solvers_hand_the_kernel_ints(self, monkeypatch):
        # Every exact solver built on Transport scales its weights once,
        # so each capacity the kernel receives is an int.
        seen = {}
        solver = None

        def recording(mu, nu, allowed):
            seen.setdefault(solver, []).extend([*mu, *nu])
            return max_flow_on_cells(mu, nu, allowed)

        monkeypatch.setattr(flows, "max_flow_on_cells", recording)
        X, Y = random_gds(3, 2, seed=11), random_gds(3, 2, seed=12)
        Z = random_gds(3, 2, seed=13)
        runs = {
            "box_exact": lambda: box_exact(X, Y),
            "box_heuristic": lambda: box_heuristic(X, Y, budget=40),
            "box_mm_exact": lambda: box_mm_exact(gds_to_mm(X), gds_to_mm(Y)),
            "dconc_exact": lambda: dconc_exact(X, Y),
            "dconc_lower_witness": lambda: dconc_lower_witness(
                X, Y, X.features.rows[0]
            ),
            "prohorov": lambda: prohorov(X.measure, Z.measure, X.dist, "flow"),
        }
        for solver, run in runs.items():
            run()
        assert set(seen) == set(runs)
        for solver, caps in seen.items():
            assert all(type(c) is int for c in caps), solver

    def test_prohorov_flow_solves_each_mask_once(self, monkeypatch):
        masks = []

        def recording(mu, nu, allowed):
            masks.append(allowed)
            return max_flow_on_cells(mu, nu, allowed)

        monkeypatch.setattr(flows, "max_flow_on_cells", recording)
        X = random_gds(30, 2, seed=55, scale=32)
        nu = random_gds(30, 2, seed=56, scale=32).measure
        prohorov(X.measure, nu, X.dist, "flow")
        assert masks and len(masks) == len(set(masks))


class TestCertifyCoupling:
    ROWS = [[3, 1], [0, 4]]  # mu = (1/2, 1/2), nu = (3/8, 5/8) over 8

    def test_accepts_an_int_coupling_and_its_multiples(self):
        certify_coupling(self.ROWS, [4, 4], [3, 5])
        rows = [[5 * x for x in row] for row in self.ROWS]
        certify_coupling(rows, [4, 4], [3, 5], 5)

    @pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (1, 1)])
    @pytest.mark.parametrize("shift", [1, -1])
    def test_refuses_one_cell_off_by_one_unit(self, cell, shift):
        rows = [list(row) for row in self.ROWS]
        rows[cell[0]][cell[1]] += shift
        with pytest.raises(AssertionError):
            certify_coupling(rows, [4, 4], [3, 5])

    def test_refuses_a_negative_entry_and_a_wrong_factor(self):
        with pytest.raises(AssertionError):
            certify_coupling([[4, 0], [-1, 5]], [4, 4], [3, 5])
        rows = [[5 * x for x in row] for row in self.ROWS]
        with pytest.raises(AssertionError):
            certify_coupling(rows, [4, 4], [3, 5])

    def test_float_sums_within_the_tolerance(self):
        rows = [[0.375, 0.125], [0.0, 0.5 + 1e-12]]
        certify_coupling(rows, [0.5, 0.5], [0.375, 0.625], 1, 1e-9)
        with pytest.raises(AssertionError):
            certify_coupling(rows, [0.5, 0.5], [0.375, 0.625], 1, 0)


@st.composite
def warm_instances(draw):
    """Like instances(), with the empty and the full mask drawn often."""
    mu, nu = draw(weight_vectors), draw(weight_vectors)
    full = (1 << (len(mu) * len(nu))) - 1
    mask = draw(st.one_of(st.just(0), st.just(full), st.integers(0, full)))
    return mu, nu, mask


def remainders(mu, nu, start):
    """What start leaves of each weight, subtracted in the kernel's order."""
    rows, cols = list(mu), list(nu)
    for i, row in enumerate(start):
        for j, x in enumerate(row):
            if x:
                rows[i] -= x
                cols[j] -= x
    return rows, cols


def dict_edmonds_karp(mu, nu, allowed, start=None):
    """The capacity-dict Edmonds-Karp, as max_flow_on_cells was before bitsets.

    Kept as the oracle of the bitset kernel, which must return the same
    value and plan, equal by repr with types.  Each vertex holds a dict
    of residual capacities: a row lists the source, then its allowed
    columns by increasing j with capacity sum(mu) + sum(nu); a column
    lists the sink, then its rows by increasing i.  The search scans
    the dicts in that order and stops when it takes the sink off the
    queue.
    """
    n, m = len(mu), len(nu)
    size = n + m + 2
    source, sink = n + m, n + m + 1
    zero = mu[0] - mu[0]

    cap = [dict() for _ in range(size)]
    for i in range(n):
        cap[source][i] = mu[i]
        cap[i][source] = zero
    for j in range(m):
        cap[n + j][sink] = nu[j]
        cap[sink][n + j] = zero
    total = sum(mu) + sum(nu)
    for i in range(n):
        for j in range(m):
            if allowed >> (i * m + j) & 1:
                cap[i][n + j] = total
                cap[n + j][i] = zero

    flow_value = zero
    if start is not None:
        for i, row in enumerate(start):
            for j, x in enumerate(row):
                if x:
                    cap[source][i] -= x
                    cap[i][source] += x
                    cap[i][n + j] -= x
                    cap[n + j][i] += x
                    cap[n + j][sink] -= x
                    cap[sink][n + j] += x
                    flow_value += x

    while True:
        parent = [-1] * size
        parent[source] = source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == sink:
                break
            for v, c in cap[u].items():
                if parent[v] == -1 and c > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] == -1:
            break
        bottleneck = None
        v = sink
        while v != source:
            u = parent[v]
            c = cap[u][v]
            if bottleneck is None or c < bottleneck:
                bottleneck = c
            v = u
        v = sink
        while v != source:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow_value = flow_value + bottleneck

    plan = [[zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            if allowed >> (i * m + j) & 1:
                plan[i][j] = cap[n + j][i]
    return flow_value, plan


def typed(result):
    """(value, plan) as a repr that also spells out every type."""
    value, plan = result
    return repr(result), type(value), [[type(x) for x in row] for row in plan]


def arithmetics(mu, nu):
    """The weights as rationals, as scaled ints and as floats."""
    return [
        (list(mu), list(nu)),
        scaled_ints(mu, nu)[0],
        ([float(w) for w in mu], [float(w) for w in nu]),
    ]


def assert_kernel_matches_oracle(mu, nu, mask):
    for weights in arithmetics(mu, nu):
        got = typed(max_flow_on_cells(*weights, mask))
        assert got == typed(dict_edmonds_karp(*weights, mask))
        start = greedy_by_cell_scan(*weights, mask)
        assert got == typed(dict_edmonds_karp(*weights, mask, start))


class TestBitsetKernel:
    @given(warm_instances())
    def test_same_value_and_plan_as_the_dict_kernel(self, instance):
        assert_kernel_matches_oracle(*instance)

    @pytest.mark.parametrize("n, m", [(10, 10), (10, 40), (40, 10), (23, 17), (40, 40)])
    @pytest.mark.parametrize("density", [0.05, 0.2, 0.5, 0.9])
    def test_same_value_and_plan_on_large_grids(self, n, m, density):
        rng = random.Random(f"{n}x{m}@{density}")

        def weight():
            return Q(rng.randint(0, 12), rng.randint(1, 12))

        mu, nu = [weight() for _ in range(n)], [weight() for _ in range(m)]
        mask = sum(1 << c for c in range(n * m) if rng.random() < density)
        assert_kernel_matches_oracle(mu, nu, mask)


def greedy_by_cell_scan(mu, nu, allowed):
    """The kernel's greedy start as a plan, testing every cell of a row."""
    m = len(nu)
    rest = list(nu)
    zero = mu[0] - mu[0]
    plan = []
    for i, left in enumerate(mu):
        row = [zero] * m
        cells = allowed >> (i * m)
        for j in range(m):
            if not left:
                break
            if cells >> j & 1 and rest[j]:
                x = left if left < rest[j] else rest[j]
                row[j] = x
                left -= x
                rest[j] -= x
        plan.append(row)
    return plan


class TestWarmStart:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @given(instance=warm_instances())
    def test_greedy_start_is_feasible_and_keeps_the_value(self, mode, instance):
        mu, nu, mask = instance
        if mode == "float":
            mu, nu = [float(w) for w in mu], [float(w) for w in nu]
        n, m = len(mu), len(nu)
        (mu_s, nu_s), scale = scaled_ints(mu, nu)
        # The kernel ships this start (TestBitsetKernel checks it).
        start = greedy_by_cell_scan(mu_s, nu_s, mask)
        assert len(start) == n and all(len(row) == m for row in start)
        for i, row in enumerate(start):
            for j, x in enumerate(row):
                assert x >= 0
                assert not x or mask >> (i * m + j) & 1
        # Row sums <= mu and column sums <= nu; in float mode, no
        # residual capacity the kernel sets from the start is negative.
        rows, cols = remainders(mu_s, nu_s, start)
        assert min(rows) >= 0 and min(cols) >= 0
        # The kernel, which ships the start, ends at the value that
        # Edmonds-Karp from the empty flow reaches.
        empty, _ = dict_edmonds_karp(mu, nu, mask)
        started, plan = max_flow_on_cells(mu_s, nu_s, mask)
        rows, cols = remainders(mu_s, nu_s, plan)
        assert min(rows) >= -1e-12 and min(cols) >= -1e-12
        transport = Transport(mu, nu)
        value = unscaled(transport.scaled_value(mask), transport.scale)
        if mode == "exact":
            assert value == unscaled(started, scale) == empty
        else:
            assert abs(value - empty) <= 1e-9 and value == started


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



# One row per pair (n, m, k, seed of X, seed of Y) and mode: dis_coupling
# of the box_exact coupling and of the product coupling, box_fixed_coupling
# of the same two, each as (value, cells), and box_heuristic at budgets
# 1, 7, 80 and 400.
SWEEP_PAIRS = [(4, 3, 2, 61, 62), (3, 4, 3, 63, 64), (4, 4, 2, 65, 66)]
FROZEN_SWEEPS = {
    "exact": [
        (
            (Q(3, 8), ((0, 0), (2, 2), (3, 1))),
            (Q(3, 8), ((0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (3, 0), (3, 2))),
            (Q(1, 2), ((0, 0), (0, 2), (3, 1))),
            (Q(121, 189), ((0, 0), (0, 2), (3, 1))),
            [1, Q(13, 21), Q(1, 2), Q(1, 2)],
        ),
        (
            (Q(17, 63), ((0, 1), (1, 2), (2, 0))),
            (Q(5, 8), ((0, 0), (0, 1), (0, 3), (1, 0), (1, 1), (1, 3), (2, 2))),
            (Q(1, 2), ((0, 1), (1, 2), (2, 0), (2, 3))),
            (Q(29, 42), ((0, 1), (1, 2), (2, 0), (2, 3))),
            [1, Q(13, 21), Q(1, 2), Q(1, 2)],
        ),
        (
            (Q(479, 1134), ((0, 3), (1, 1), (3, 2))),
            (Q(1, 2), ((0, 1), (0, 3), (1, 0), (1, 2), (2, 0), (2, 2), (3, 0), (3, 2))),
            (Q(1, 2), ((0, 3), (1, 1), (3, 1))),
            (Q(130, 189), ((0, 3), (1, 1), (2, 1), (2, 3), (3, 1))),
            [1, Q(3, 4), Q(3, 4), Q(1, 2)],
        ),
    ],
    "float": [
        (
            (0.375, ((0, 0), (2, 2), (3, 1))),
            (0.375, ((0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (3, 0), (3, 2))),
            (0.5, ((0, 0), (0, 2), (3, 1))),
            (0.6402116402116402, ((0, 0), (0, 2), (3, 1))),
            [1, 0.6190476190476191, 0.5, 0.5],
        ),
        (
            (0.2698412698412699, ((0, 1), (1, 2), (2, 0))),
            (0.625, ((0, 0), (0, 1), (0, 3), (1, 0), (1, 1), (1, 3), (2, 2))),
            (0.5, ((0, 1), (1, 2), (2, 0), (2, 3))),
            (0.6904761904761905, ((0, 1), (1, 2), (2, 0), (2, 3))),
            [1, 0.6190476190476191, 0.5, 0.5],
        ),
        (
            (0.42239858906525574, ((0, 3), (1, 1), (3, 2))),
            (0.5, ((0, 1), (0, 3), (1, 0), (1, 2), (2, 0), (2, 2), (3, 0), (3, 2))),
            (0.5, ((0, 3), (1, 1), (3, 1))),
            (0.6878306878306879, ((0, 3), (1, 1), (2, 1), (2, 3), (3, 1))),
            [1, 0.75, 0.75, 0.5],
        ),
    ],
}
# dis_coupling witnesses pinned above in place of equally good ones,
# as (mode, pair index, coupling position, value, cells): the earlier
# clique search kept these on ties.
TIED_WITNESSES = [
    ("float", 1, 0, 0.26984126984126977, ((0, 1), (1, 2), (2, 0))),
    ("exact", 2, 1, Q(1, 2),
     ((0, 0), (0, 2), (1, 0), (1, 2), (2, 0), (2, 2), (3, 1), (3, 3))),
]


class TestFrozenSweeps:
    @pytest.mark.parametrize("mode", sorted(FROZEN_SWEEPS))
    @pytest.mark.parametrize("index", range(len(SWEEP_PAIRS)))
    def test_distortion_fixed_coupling_and_heuristic(self, mode, index):
        n, m, k, sx, sy = SWEEP_PAIRS[index]
        X = random_gds(n, k, seed=sx, mode=mode)
        Y = random_gds(m, k, seed=sy, mode=mode)
        couplings = [box_exact(X, Y).coupling, product_coupling(X.measure, Y.measure)]
        got = [dis_coupling(pi, X.dist, Y.dist) for pi in couplings]
        got += [box_fixed_coupling(X, Y, pi) for pi in couplings]
        records = [(value, cells.sorted_cells) for value, cells in got]
        heuristic = [box_heuristic(X, Y, budget=b) for b in (1, 7, 80, 400)]
        dis_box, dis_product, fixed_box, fixed_product, want_heuristic = (
            FROZEN_SWEEPS[mode][index]
        )
        assert records == [dis_box, dis_product, fixed_box, fixed_product]
        assert heuristic == want_heuristic
        assert all(type(v) is float for v, _ in records) == (mode == "float")

    @pytest.mark.parametrize("mode, index, position, value, cells", TIED_WITNESSES)
    def test_tied_witness_attains_the_frozen_value(self, mode, index, position, value, cells):
        n, m, k, sx, sy = SWEEP_PAIRS[index]
        X = random_gds(n, k, seed=sx, mode=mode)
        Y = random_gds(m, k, seed=sy, mode=mode)
        pi = [box_exact(X, Y).coupling, product_coupling(X.measure, Y.measure)][position]
        S = CellSet.from_pairs(n, m, cells)
        got = max(1 - pi.mass(S), distortion(S, X.dist, Y.dist))
        frozen = FROZEN_SWEEPS[mode][index][position][0]
        assert close(got, frozen, mode) and close(value, frozen, mode)


# Kernel calls of one solve per (name, mode), on seeds 73 and 74: the
# counts that the value-bracketed crossing search and the clique search
# cut by the kept mass reach.  Plain bisection with a full scan of the
# maximal cliques made 31, 197, 9084 and 5 calls in both modes.
KERNEL_CALLS = {
    ("box_exact 16x16 k=2", "exact"): 19,
    ("box_exact 16x16 k=2", "float"): 19,
    ("box_exact 10x10 k=3", "exact"): 135,
    ("box_exact 10x10 k=3", "float"): 135,
    ("box_mm_exact 8x8", "exact"): 2357,
    ("box_mm_exact 8x8", "float"): 2254,
    ("prohorov 40 points", "exact"): 4,
    ("prohorov 40 points", "float"): 4,
}


def kernel_call_run(name, mode):
    if name == "box_exact 16x16 k=2":
        X = random_gds(16, 2, seed=73, scale=32, mode=mode)
        Y = random_gds(16, 2, seed=74, scale=32, mode=mode)
        return lambda: box_exact(X, Y, cell_budget=256)
    if name == "box_exact 10x10 k=3":
        X, Y = random_gds(10, 3, seed=73, mode=mode), random_gds(10, 3, seed=74, mode=mode)
        return lambda: box_exact(X, Y, cell_budget=100)
    if name == "box_mm_exact 8x8":
        X, Y = random_gds(8, 2, seed=73, mode=mode), random_gds(8, 2, seed=74, mode=mode)
        return lambda: box_mm_exact(X, Y, cell_budget=64)
    X = random_gds(40, 2, seed=73, scale=32, mode=mode)
    nu = random_gds(40, 2, seed=74, scale=64, mode=mode).measure
    return lambda: prohorov(X.measure, nu, X.dist, "flow")


class TestKernelCalls:
    @pytest.mark.parametrize("name, mode", sorted(KERNEL_CALLS))
    def test_sweeps_make_the_pinned_number_of_flow_solves(self, name, mode, monkeypatch):
        run = kernel_call_run(name, mode)
        calls = []

        def counted(mu, nu, allowed):
            calls.append(allowed)
            return max_flow_on_cells(mu, nu, allowed)

        monkeypatch.setattr(flows, "max_flow_on_cells", counted)
        run()
        assert len(calls) == KERNEL_CALLS[name, mode]
