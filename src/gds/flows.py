"""Bipartite transportation max-flow with exact capacities.

Specialised to the one shape the package needs: source -> left vertices with
the mu weights, left -> right across an allowed cell set with unbounded
capacity, right -> sink with the nu weights.  The maximum flow is then the
largest mass a coupling of (mu, nu) can place on the allowed cells.

Edmonds-Karp on this graph is exact for integer (and correct for float)
capacities and its augmentation count is bounded by the edge structure, not
the capacity values, so termination never depends on the arithmetic.  For
the same reason, scaling every capacity by one positive D leaves each
search, bottleneck and augmenting path as it was.  Every solver reaches
the kernel through Transport, which scales the weights once with
numerics.scaled_ints, memoises the value of each cell mask, completes
a witness plan into a coupling on the same ints and converts back only
what it returns; float weights pass through unscaled.  Transport's is
the only memo of flow values in the package.

A value call starts the kernel from a greedy feasible plan instead of
the empty flow: the maximum value is unique and Edmonds-Karp from any
feasible flow ends at a maximum, so the value is the same and most
augmentations are skipped (reoptimization, as in Gallo, Grigoriadis &
Tarjan, SIAM J. Comput. 1989).  A witness plan starts cold, so the plan
a witness is built from never depends on the start.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .numerics import Q, scaled_ints, unscaled


def max_flow_on_cells(
    mu: Sequence,
    nu: Sequence,
    allowed: int,
    start=None,
) -> tuple:
    """Max coupling mass on a cell bitmask, plus a realising partial plan.

    `allowed` is a bitmask over cells (i, j) -> bit i*m + j.  Returns
    (value, plan) where plan[i][j] is the transported mass, supported on
    allowed cells, with row sums <= mu and column sums <= nu.  `start`,
    a partial plan of that kind, is the flow the augmentations begin
    from; None begins from the empty flow.
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
        base = i * m
        for j in range(m):
            if allowed >> (base + j) & 1:
                # Effectively infinite: no s-t path can carry more than this.
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
        base = i * m
        for j in range(m):
            if allowed >> (base + j) & 1:
                # Residual on the reverse edge equals the shipped amount.
                plan[i][j] = cap[n + j][i]
    return flow_value, plan


def greedy_plan(mu: Sequence, nu: Sequence, allowed: int) -> list:
    """A feasible partial plan on a cell bitmask, in one pass.

    Row by row, each allowed cell (i, j) takes the smaller of what is
    left of mu[i] and of nu[j].  Each step subtracts an amount from two
    remainders that are each at least as large, so no remainder goes
    below zero, in float arithmetic too.
    """
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


class Transport:
    """The largest mass a coupling of (mu, nu) puts on a cell mask.

    The weights are scaled to ints once, here, and this is the one memo
    of flow values: value(mask) is memoised, since the threshold sweeps
    revisit masks across levels, and its max-flow starts from
    greedy_plan.  coupling(mask) solves again from the empty flow and
    completes the plan into a full coupling, which only witnesses need.
    Both hand back rationals (floats in float mode).
    """

    def __init__(self, mu: Sequence, nu: Sequence):
        self._weights, self._scale = scaled_ints(mu, nu)
        self._values: dict = {}

    def value(self, mask: int):
        hit = self._values.get(mask)
        if hit is None:
            start = greedy_plan(*self._weights, mask)
            hit, _ = max_flow_on_cells(*self._weights, mask, start)
            hit = self._values[mask] = unscaled(hit, self._scale)
        return hit

    def coupling(self, mask: int) -> tuple:
        """(value, matrix): the max-flow value and a coupling attaining it.

        When mu and nu carry one total, the row and column masses a_i and
        b_j the cold plan leaves both sum to one leftover L, so adding
        a_i * b_j / L to each cell completes the plan to a coupling (that
        mass cannot land on the mask: it would beat the maximum).  Exact
        mode completes the scaled plan p on ints and unscales each entry
        once, as (p * L + a_i * b_j) / (D * L).
        """
        mu, nu = self._weights
        scale = self._scale
        value, plan = max_flow_on_cells(mu, nu, mask)
        a = [w - sum(row) for w, row in zip(mu, plan)]
        b = [w - sum(col) for w, col in zip(nu, zip(*plan))]
        leftover = sum(a)
        matrix = []
        for a_i, row in zip(a, plan):
            out = []
            for b_j, p in zip(b, row):
                if leftover > 0 and a_i != 0 and b_j != 0:
                    if scale is None:
                        p = p + a_i * b_j / leftover
                    else:
                        p = Q(p * leftover + a_i * b_j, scale * leftover)
                else:
                    p = unscaled(p, scale)
                out.append(p)
            matrix.append(tuple(out))
        return unscaled(value, scale), tuple(matrix)
