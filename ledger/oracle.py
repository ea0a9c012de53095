"""Correctness oracles, run outside every timed region.

* Distributed workloads: each ordered pair's cheapest ``shortestPath``
  cost must equal Dijkstra on the final link costs (the consistency rule
  of the Figure 13/14 experiment).
* The central engine workload: the PSN fixpoint must equal the naive
  engine's on the final base facts, relation by relation.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Optional, Tuple

from repro.engine import Database, naive

Costs = Dict[Tuple[str, str], float]


def dijkstra(costs: Costs, source: str) -> Dict[str, float]:
    """Shortest distances from ``source`` over undirected ``costs``."""
    adjacency: Dict[str, list] = {}
    for (a, b), cost in costs.items():
        adjacency.setdefault(a, []).append((b, cost))
        adjacency.setdefault(b, []).append((a, cost))
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        for nxt, weight in adjacency.get(node, ()):
            candidate = d + weight
            if candidate < dist.get(nxt, float("inf")):
                dist[nxt] = candidate
                heapq.heappush(heap, (candidate, nxt))
    return dist


def shortest_cost_mismatch(rows: Iterable[Tuple], costs: Costs,
                           nodes: Iterable[str]) -> Optional[str]:
    """Compare ``shortestPath(S, D, P, C)`` rows with Dijkstra on
    ``costs``; ``None`` when every pair matches, else the first
    mismatch."""
    got: Dict[Tuple[str, str], float] = {}
    for row in rows:
        src, dst, cost = row[0], row[1], row[-1]
        if src != dst:
            got[(src, dst)] = min(cost, got.get((src, dst), float("inf")))
    expected = 0
    for source in sorted(nodes):
        for target, want in dijkstra(costs, source).items():
            if target == source:
                continue
            expected += 1
            have = got.get((source, target))
            if have is None or abs(have - want) > 1e-6 * max(1.0, want):
                return f"{source}->{target}: got {have}, Dijkstra {want}"
    if len(got) != expected:
        return f"{len(got)} pairs derived, {expected} reachable"
    return None


def fixpoint_mismatch(program, base: Dict[str, Iterable[Tuple]],
                      snapshot: Dict[str, frozenset]) -> Optional[str]:
    """Compare ``snapshot`` (relation -> rows) with the naive engine's
    fixpoint on the ``base`` facts; ``None`` when equal."""
    db = Database.for_program(program)
    for pred, rows in base.items():
        db.load_facts(pred, rows)
    want = naive.evaluate(program, db).db.snapshot()
    for pred in sorted(set(want) | set(snapshot)):
        a, b = want.get(pred, frozenset()), snapshot.get(pred, frozenset())
        if a != b:
            return (f"{pred}: {len(b - a)} rows not in the naive fixpoint, "
                    f"{len(a - b)} missing")
    return None
