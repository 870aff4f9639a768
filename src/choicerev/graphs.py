"""Small graph helpers over dense index-based digraphs (numpy bool matrices)."""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Optional

import numpy as np


def strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Tarjan's SCC over a dense digraph; adj[i, j] truthy means i -> j.

    Output order is a contract that strong-reciprocity witnesses rely on.
    The depth-first search starts from the lowest unvisited node and
    scans successors in increasing id, so components come out in reverse
    topological order and nodes inside a component keep discovery order.

    Cost: interpreted work is per node, not per edge.  Rows are packed
    into int bitsets, so finding the next tree child is O(n/64) word
    operations (O(n^2/64) in all); each node's low-link is finalised once,
    when it finishes, by one vectorised min over its row (O(n^2) in all).
    """
    a = np.asarray(adj, dtype=bool)
    n = a.shape[0]
    width = (n + 7) // 8
    packed = np.packbits(a, axis=1, bitorder="little").tobytes()
    rows = [int.from_bytes(packed[i * width:(i + 1) * width], "little") for i in range(n)]
    # discovery index of each node while it is on the stack, n + 1 otherwise
    stack_index = np.full(n, n + 1, dtype=np.intp)
    index = [0] * n
    low = [0] * n
    stack_pos = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    unvisited = (1 << n) - 1
    counter = 0

    while unvisited:
        node = (unvisited & -unvisited).bit_length() - 1
        path: list[int] = []
        while True:
            index[node] = low[node] = stack_index[node] = counter
            counter += 1
            stack_pos[node] = len(stack)
            stack.append(node)
            path.append(node)
            unvisited ^= 1 << node
            # finish path nodes until one has an unvisited successor
            while path:
                top = path[-1]
                todo = rows[top] & unvisited
                if todo:
                    break
                path.pop()
                # on-stack successors stay on the stack until top finishes, and
                # successors discovered after top have larger indices, so one
                # min now gives the low-link an edge-by-edge scan would
                lo = low[top]
                if rows[top]:
                    lo = min(lo, int(stack_index[a[top]].min()))
                if lo == index[top]:
                    comp = stack[stack_pos[top]:]
                    del stack[stack_pos[top]:]
                    stack_index[comp] = n + 1
                    comps.append(comp)
                elif lo < low[path[-1]]:
                    low[path[-1]] = lo
            if not path:
                break
            # the next tree child is the lowest unvisited successor
            node = (todo & -todo).bit_length() - 1
    return comps


def reachability(adj: np.ndarray) -> np.ndarray:
    """Paths of length >= 1: closure of adj under composition."""
    reach = adj.astype(bool).copy()
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            return reach
        reach = nxt


def shortest_path(adj: np.ndarray, start: int, goal: int) -> Optional[list[int]]:
    """BFS path start -> goal using >= 1 edge; None if unreachable.

    start == goal asks for a cycle through start.
    """
    prev: dict[int, int] = {}
    q = deque()
    for nxt in np.flatnonzero(adj[start]):
        nxt = int(nxt)
        if nxt not in prev:
            prev[nxt] = start
            q.append(nxt)
    while q and goal not in prev:
        node = q.popleft()
        for nxt in np.flatnonzero(adj[node]):
            nxt = int(nxt)
            if nxt not in prev:
                prev[nxt] = node
                q.append(nxt)
    if goal not in prev:
        return None
    path = [goal]
    cur = prev[goal]
    path.append(cur)
    while cur != start:
        cur = prev[cur]
        path.append(cur)
    path.reverse()
    return path


def stable_topological_order(
    n: int, must_precede: np.ndarray, tie_key: Callable[[int], object]
) -> Optional[list[int]]:
    """Kahn's algorithm; among ready nodes always pick the smallest tie_key.

    must_precede[i, j] truthy means i has to come before j.  Returns None
    when the constraints are cyclic.
    """
    indeg = [0] * n
    for j in range(n):
        indeg[j] = int(must_precede[:, j].sum()) - (1 if must_precede[j, j] else 0)
    # self-constraints are vacuous
    ready = [(tie_key(i), i) for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, node = heapq.heappop(ready)
        order.append(node)
        for j in np.flatnonzero(must_precede[node]):
            j = int(j)
            if j == node:
                continue
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, (tie_key(j), j))
    if len(order) != n:
        return None
    return order
