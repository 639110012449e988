"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with its runtime so the whole
gate can be read off the terminal summary at a glance.  Values asserted
exactly were derived by hand or frozen from the brute-force oracles in
the sibling test modules.
"""

import itertools
import random
import time

from gds import (
    CellSet,
    box_exact,
    box_fixed_coupling,
    box_heuristic,
    check_domination,
    dconc_at_coupling,
    dconc_exact,
    dconc_heuristic,
    dconc_lower_witness,
    dis_coupling,
    distortion,
    gds_to_mm,
    ky_fan,
    lip1_witness,
    n_point_discrete,
    observable_diameter,
    od_breakpoints,
    quotient_gds,
    random_gds,
    sample_lip1,
    singleton_gds,
)
from gds.coupling import coupling_prohorov, enumerate_couplings, glue
from gds.core import pushforward_vector
from gds.metrics import prohorov_weights
from gds.numerics import Q

RESULTS = []


def _report(num, title, ok, detail, elapsed, limit):
    verdict = ok and elapsed < limit
    line = (
        f"{'PASS' if verdict else 'FAIL'} criterion {num:2d}: {title} "
        f"[{detail}] ({elapsed:.2f}s, limit {limit:g}s)"
    )
    RESULTS.append(line)
    print(line)
    assert ok, line
    assert elapsed < limit, line


def _subset(rng):
    members = [v for v in range(10) if rng.random() < 0.5]
    return members or [rng.randrange(10)]


def test_criterion_01_singleton_separation():
    start = time.perf_counter()
    rng = random.Random(1)
    pairs = 0
    ok = True
    while pairs < 20:
        A, B = _subset(rng), _subset(rng)
        if A == B:
            continue
        pairs += 1
        value = dconc_exact(singleton_gds(A), singleton_gds(B)).value
        ok = ok and value == 1
    _report(
        1,
        "distinct constant families sit at distance one",
        ok,
        f"{pairs} pairs",
        time.perf_counter() - start,
        1,
    )


def test_criterion_02_discrete_vs_singleton():
    start = time.perf_counter()
    frozen = {2: Q(1, 2), 3: Q(1, 3), 4: Q(1, 4)}
    ok = True
    for N, value in frozen.items():
        got = dconc_exact(n_point_discrete(N), singleton_gds([1])).value
        ok = ok and got <= Q(1, N) and got == value
    _report(
        2,
        "discrete spaces approach the point at rate 1/N",
        ok,
        "N=2,3,4 exact",
        time.perf_counter() - start,
        10,
    )


def test_criterion_03_witness_lower_bound():
    start = time.perf_counter()
    X = n_point_discrete(4)
    grid = singleton_gds([Q(j, 8) for j in range(9)])
    step = (0, 0, 1, 1)
    value = dconc_lower_witness(X, grid, step)
    ok = value >= Q(1, 2) and value == Q(1, 2)
    _report(
        3,
        "two-level witness separates from all constants",
        ok,
        f"bound {value}",
        time.perf_counter() - start,
        5,
    )


def test_criterion_04_observable_below_box():
    start = time.perf_counter()
    rng = random.Random(4)
    violations = 0
    for _ in range(50):
        X = random_gds(rng.randint(1, 4), rng.randint(1, 3), seed=rng.getrandbits(30))
        Y = random_gds(rng.randint(1, 4), rng.randint(1, 3), seed=rng.getrandbits(30))
        if dconc_exact(X, Y).value > box_exact(X, Y).value:
            violations += 1
    _report(
        4,
        "observable distance never exceeds box distance",
        violations == 0,
        f"50 pairs, {violations} violations",
        time.perf_counter() - start,
        300,
    )


def test_criterion_05_box_metric_axioms():
    start = time.perf_counter()
    rng = random.Random(5)
    violations = 0
    for _ in range(30):
        X = random_gds(rng.randint(1, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        Y = random_gds(rng.randint(1, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        Z = random_gds(rng.randint(1, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        rxy, ryz, rxz = box_exact(X, Y), box_exact(Y, Z), box_exact(X, Z)
        if box_exact(Y, X).value != rxy.value:
            violations += 1
        # the glued coupling realizes the triangle inequality
        _, glued = glue(rxy.coupling, ryz.coupling)
        via = box_fixed_coupling(X, Z, glued)[0]
        if not rxz.value <= via <= rxy.value + ryz.value:
            violations += 1
    _report(
        5,
        "box distance is symmetric and triangular via glued couplings",
        violations == 0,
        f"30 triples, {violations} violations",
        time.perf_counter() - start,
        600,
    )


def test_criterion_06_distortion_and_witness_transport():
    start = time.perf_counter()
    rng = random.Random(6)
    violations = 0
    for trial in range(30):
        X = random_gds(rng.randint(2, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        Y = random_gds(rng.randint(2, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        pis = enumerate_couplings(X.measure, Y.measure, resolution=3)
        pi = pis[rng.randrange(len(pis))]
        if dis_coupling(pi, X.dist, Y.dist)[0] > box_fixed_coupling(X, Y, pi)[0]:
            violations += 1
        cells = [
            (x, y) for x in range(X.n) for y in range(Y.n) if rng.random() < 0.5
        ] or [(0, 0)]
        dis = distortion(cells, X.dist, Y.dist)
        for f in sample_lip1(gds_to_mm(X), count=10, seed=trial).rows:
            g = lip1_witness(cells, f, X.dist, Y.dist)
            gap = max(abs(f[x] - g[y]) for (x, y) in cells)
            if 2 * gap > dis:
                violations += 1
    # equality certificates: stretching a longer segment onto a shorter
    # one admits no transport cheaper than the witness construction
    certificates = 0
    for d, e in [(1, Q(1, 2)), (Q(3, 4), Q(1, 4)), (Q(7, 8), Q(7, 8))]:
        dX, dY = [[0, d], [d, 0]], [[0, e], [e, 0]]
        cells = [(0, 0), (1, 1)]
        f = (0, d)
        g = lip1_witness(cells, f, dX, dY)
        gap = max(abs(f[x] - g[y]) for (x, y) in cells)
        grid = [Q(s, 16) for s in range(-16, 33)]
        best = min(
            max(abs(f[0] - g0), abs(f[1] - g1))
            for g0 in grid
            for g1 in grid
            if abs(g0 - g1) <= e
        )
        if gap == best == (d - e) / 2 == distortion(cells, dX, dY) / 2:
            certificates += 1
    _report(
        6,
        "distortion bounds the fixed-coupling objective; witness transport is tight",
        violations == 0 and certificates == 3,
        f"30 instances x 10 witnesses, {certificates}/3 certificates",
        time.perf_counter() - start,
        120,
    )


def test_criterion_07_coupling_continuity():
    start = time.perf_counter()
    rng = random.Random(7)
    violations = 0
    for _ in range(30):
        X = random_gds(rng.randint(2, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        Y = random_gds(rng.randint(2, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        pis = list(
            enumerate_couplings(X.measure, Y.measure, resolution=3)
        )
        pi, rho = (rng.sample(pis, 2) if len(pis) >= 2 else (pis[0], pis[0]))
        gap = coupling_prohorov(pi, rho, X.dist, Y.dist)
        box_jump = abs(
            box_fixed_coupling(X, Y, pi)[0] - box_fixed_coupling(X, Y, rho)[0]
        )
        conc_jump = abs(
            dconc_at_coupling(X, Y, pi) - dconc_at_coupling(X, Y, rho)
        )
        if box_jump > 4 * gap or conc_jump > 2 * gap:
            violations += 1
    _report(
        7,
        "objectives move at most 4x and 2x the coupling Prohorov gap",
        violations == 0,
        f"30 coupling pairs, {violations} violations",
        time.perf_counter() - start,
        120,
    )


def test_criterion_08_diameter_semicontinuity():
    start = time.perf_counter()
    rng = random.Random(8)
    violations = checks = 0
    for _ in range(30):
        X = random_gds(rng.randint(2, 4), rng.randint(1, 3), seed=rng.getrandbits(30))
        Y = random_gds(rng.randint(2, 4), rng.randint(1, 3), seed=rng.getrandbits(30))
        delta = dconc_exact(X, Y).value + Q(1, 64)
        for kappa in sorted(set(od_breakpoints(X)) | set(od_breakpoints(Y))):
            checks += 1
            lhs = observable_diameter(X, kappa + delta)
            rhs = observable_diameter(Y, kappa) + 2 * delta
            if lhs > rhs:
                violations += 1
    _report(
        8,
        "observable diameter transfers across nearby spaces",
        violations == 0,
        f"30 pairs, {checks} grid points, {violations} violations",
        time.perf_counter() - start,
        60,
    )


def test_criterion_09_heuristics_match_exact():
    start = time.perf_counter()
    rng = random.Random(9)
    worst = Q(0)
    tol = Q(1, 10**9)
    misses = 0
    for trial in range(30):
        X = random_gds(rng.randint(2, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        Y = random_gds(rng.randint(2, 3), rng.randint(1, 2), seed=rng.getrandbits(30))
        conc_gap = abs(
            dconc_heuristic(X, Y, budget=24, seed=trial)[0]
            - dconc_exact(X, Y).value
        )
        box_gap = abs(
            box_heuristic(X, Y, budget=400, seed=trial) - box_exact(X, Y).value
        )
        worst = max(worst, conc_gap, box_gap)
        misses += (conc_gap > tol) + (box_gap > tol)
    _report(
        9,
        "search heuristics land on the exact optima",
        misses == 0,
        f"30 instances each, worst gap {worst}",
        time.perf_counter() - start,
        600,
    )


def test_criterion_10_prohorov_routes_and_ky_fan():
    start = time.perf_counter()
    rng = random.Random(10)
    violations = 0
    for _ in range(100):
        n = rng.randint(2, 8)
        X = random_gds(n, 2, seed=rng.getrandbits(30))
        raw = [rng.randint(0, 4) for _ in range(n)]
        if not sum(raw):
            raw[0] = 1
        nu = [Q(r, sum(raw)) for r in raw]
        brute = prohorov_weights(X.measure.weights, nu, X.dist, method="brute")
        flow = prohorov_weights(X.measure.weights, nu, X.dist, method="flow")
        if brute != flow:
            violations += 1
    for _ in range(100):
        n = rng.randint(2, 5)
        X = random_gds(n, 3, seed=rng.getrandbits(30))
        f, g = X.features.rows[0], X.features.rows[1 % X.k]
        values = sorted(set(f) | set(g))
        index = {v: j for j, v in enumerate(values)}
        dist = [[abs(a - b) for b in values] for a in values]
        push_f = [Q(0)] * len(values)
        push_g = [Q(0)] * len(values)
        for x in range(n):
            push_f[index[f[x]]] += X.measure.weights[x]
            push_g[index[g[x]]] += X.measure.weights[x]
        if prohorov_weights(push_f, push_g, dist) > ky_fan(X.measure, f, g):
            violations += 1
    _report(
        10,
        "Prohorov routes agree; Ky Fan dominates pushforward Prohorov",
        violations == 0,
        f"100 measure pairs + 100 triples, {violations} violations",
        time.perf_counter() - start,
        60,
    )


def test_criterion_11_order_and_quotient_structure():
    start = time.perf_counter()
    rng = random.Random(11)
    ok = True
    # the order is reflexive and follows quotient chains transitively
    for _ in range(5):
        X = random_gds(rng.randint(2, 3), 2, seed=rng.getrandbits(30))
        ok = ok and check_domination(X, X)[0]
    X4 = n_point_discrete(4)
    mid, _ = quotient_gds(X4, ["d0", "d1"])
    bottom, _ = quotient_gds(X4, ["d0"])
    ok = ok and check_domination(X4, mid)[0]
    ok = ok and check_domination(mid, bottom)[0]
    ok = ok and check_domination(X4, bottom)[0]
    # distinct constants are comparable in no direction
    ok = ok and not check_domination(singleton_gds([0]), singleton_gds([1]))[0]
    ok = ok and not check_domination(singleton_gds([1]), singleton_gds([0]))[0]
    # quotient universal property: measure-preserving maps whose
    # pullbacks stay inside the collapsed family factor uniquely
    spot_checks = 0
    for trial in range(20):
        X = random_gds(rng.randint(2, 3), rng.randint(1, 3), seed=rng.getrandbits(30))
        g_idx = rng.sample(range(X.k), rng.randint(1, X.k))
        sub_idx = rng.sample(g_idx, rng.randint(1, len(g_idx)))
        XG, qG = quotient_gds(X, [X.features.labels[i] for i in g_idx])
        Z, _ = quotient_gds(X, [X.features.labels[i] for i in sub_idx])
        g_rows = [X.features.rows[i] for i in g_idx]
        found = 0
        for phi in itertools.product(range(Z.n), repeat=X.n):
            if pushforward_vector(X.measure, phi, Z.n) != tuple(Z.measure.weights):
                continue
            pulled = [tuple(r[phi[x]] for x in range(X.n)) for r in Z.features.rows]
            if not all(p in g_rows for p in pulled):
                continue
            found += 1
            descents = [
                h
                for h in itertools.product(range(Z.n), repeat=XG.n)
                if all(h[qG[x]] == phi[x] for x in range(X.n))
            ]
            ok = ok and len(descents) == 1
        ok = ok and found >= 1
        spot_checks += 1
    _report(
        11,
        "domination order behaves; quotients satisfy the universal property",
        ok,
        f"{spot_checks} quotient spot checks",
        time.perf_counter() - start,
        120,
    )


def test_criterion_12_levy_diagnostic():
    start = time.perf_counter()
    ok = True
    grid = [Q(j, 40) for j in range(40)] + [Q(1, N) for N in range(1, 11)]
    for N in range(1, 11):
        X = n_point_discrete(N)
        for kappa in grid:
            want = 1 if (kappa < Q(1, N) and N > 1) else 0
            ok = ok and observable_diameter(X, kappa) == want
    _report(
        12,
        "discrete family diameters follow the 1/N closed form",
        ok,
        "N<=10 over 50 grid values",
        time.perf_counter() - start,
        1,
    )
