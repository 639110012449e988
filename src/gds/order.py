"""Domination and isomorphism checks by exhaustive map enumeration.

Both relations quantify over measurable maps; on finite point sets every
map is a total assignment, so enumeration is complete and the verdicts
are decisions, not heuristics.  Maps are tried in lexicographic order and
the first witness wins, which keeps reruns reproducible.
"""

from __future__ import annotations

import itertools

from .core import GeometricDataSet, pushforward_vector
from .errors import BudgetExceeded
from .numerics import same_mode, tolerance

MAP_BUDGET = 50000


def _covers(rows, family, eps) -> bool:
    """Is every row within sup-distance eps of some member of family?"""
    return all(
        any(max(abs(a - b) for a, b in zip(r, f)) <= eps for f in family) for r in rows
    )


def _measure_matches(X, Y, assignment, tol) -> bool:
    pushed = pushforward_vector(X.measure, assignment, Y.n)
    return all(abs(p - w) <= tol for p, w in zip(pushed, Y.measure.weights))


def _search(X, Y, map_budget: int, both_ways: bool) -> tuple:
    """First measure-preserving map X -> Y, in lexicographic order, that
    pulls every feature of Y back to within the mode's tolerance of one
    of X, and, when `both_ways`, has every feature of X within it of a
    pulled-back one."""
    eps = tolerance(same_mode(X.mode, Y.mode))
    count = Y.n ** X.n
    if count > map_budget:
        raise BudgetExceeded(f"{count} candidate maps exceed the budget {map_budget}")
    for assignment in itertools.product(range(Y.n), repeat=X.n):
        if not _measure_matches(X, Y, assignment, eps):
            continue
        pulled = [
            tuple(g[assignment[x]] for x in range(X.n)) for g in Y.features.rows
        ]
        if _covers(pulled, X.features.rows, eps) and (
            not both_ways or _covers(X.features.rows, pulled, eps)
        ):
            return True, assignment
    return False, None


def check_domination(
    X: GeometricDataSet,
    Y: GeometricDataSet,
    map_budget: int = MAP_BUDGET,
) -> tuple:
    """Does X dominate Y?  (verdict, witness map X -> Y or None).

    A witness pushes the measure of X onto that of Y and pulls every
    feature of Y back to (within the mode's tolerance of) some feature of
    X.  Any such map is automatically 1-Lipschitz for the induced
    metrics, so no separate continuity check is needed.
    """
    return _search(X, Y, map_budget, both_ways=False)


def check_isomorphism(
    X: GeometricDataSet,
    Y: GeometricDataSet,
    map_budget: int = MAP_BUDGET,
) -> tuple:
    """Are the two spaces the same up to relabeling?

    A witness is measure preserving and pulls the feature family of Y back
    to exactly the family of X as a set of rows (mutually within the
    mode's tolerance).  With full-support measures and separating
    families this forces the map to be a bijection, so no inverse needs
    to be searched separately.
    """
    return _search(X, Y, map_budget, both_ways=True)
