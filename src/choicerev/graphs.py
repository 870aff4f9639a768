"""Small graph helpers over dense index-based digraphs: numpy bool matrices,
or their rows as int bitsets."""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Optional

import numpy as np


def bitset_rows(adj: np.ndarray) -> list[int]:
    """Row i of a dense digraph as an int whose bit j says adj[i, j] is truthy.

    Rows are packed from a C-contiguous copy, so a Fortran-order or
    column-gathered adjacency costs what a row-major one does.
    """
    a = np.ascontiguousarray(adj, dtype=bool)
    width = (a.shape[1] + 7) // 8
    packed = np.packbits(a, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i * width:(i + 1) * width], "little") for i in range(a.shape[0])]


def _depth_first(rows: list[int]) -> Iterator[tuple[int, bool]]:
    """Depth-first search over bitset rows that starts from the lowest
    unvisited node and always moves on to the lowest unvisited successor.

    Yields (node, False) when a node is discovered and (node, True) when it
    finishes.  Tarjan's SCC and `first_component` share this order.
    """
    unvisited = (1 << len(rows)) - 1
    path: list[int] = []
    while unvisited or path:
        todo = (rows[path[-1]] if path else -1) & unvisited
        if todo:
            node = (todo & -todo).bit_length() - 1
            unvisited ^= 1 << node
            path.append(node)
            yield node, False
        else:
            yield path.pop(), True


def strongly_connected_components(adj: np.ndarray) -> list[list[int]]:
    """Tarjan's SCC over a dense digraph; adj[i, j] truthy means i -> j.

    Output order is a contract that strong-reciprocity witnesses rely on.
    The depth-first search starts from the lowest unvisited node and
    scans successors in increasing id, so components come out in reverse
    topological order and nodes inside a component keep discovery order.
    A component comes out when its first-discovered member finishes.

    Cost: interpreted work is per node, not per edge.  Rows are packed
    into int bitsets, so finding the next tree child is O(n/64) word
    operations (O(n^2/64) in all); each node's low-link is finalised once,
    when it finishes, by one vectorised min over its row (O(n^2) in all).
    """
    a = np.ascontiguousarray(adj, dtype=bool)
    n = a.shape[0]
    rows = bitset_rows(a)
    # discovery index of each node while it is on the stack, n + 1 otherwise
    stack_index = np.full(n, n + 1, dtype=np.intp)
    index = [0] * n
    low = [0] * n
    stack_pos = [0] * n
    stack: list[int] = []
    path: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for node, finished in _depth_first(rows):
        if not finished:
            index[node] = low[node] = stack_index[node] = counter
            counter += 1
            stack_pos[node] = len(stack)
            stack.append(node)
            path.append(node)
            continue
        path.pop()
        # on-stack successors stay on the stack until node finishes, and
        # successors discovered after node have larger indices, so one min
        # now gives the low-link an edge-by-edge scan would
        lo = low[node]
        if rows[node]:
            lo = min(lo, int(stack_index[a[node]].min()))
        if lo == index[node]:
            comp = stack[stack_pos[node]:]
            del stack[stack_pos[node]:]
            stack_index[comp] = n + 1
            comps.append(comp)
        elif lo < low[path[-1]]:
            low[path[-1]] = lo
    return comps


def first_component(rows: list[int], comp_of: list[int]) -> Optional[list[int]]:
    """The first component that `strongly_connected_components` outputs
    among those comp_of names, with its nodes in the same order; None when
    comp_of names none.

    rows are the digraph's bitset rows.  comp_of[v] >= 0 must be the same
    id for exactly the nodes of v's strongly connected component, and -1
    marks nodes whose component is not wanted.  With the components
    known, no low-links are needed: a component comes out when its
    first-discovered member finishes, and its nodes are its members in
    discovery order.  So one depth-first search, stopped there, gives it.
    """
    members: dict[int, list[int]] = {}
    for node, finished in _depth_first(rows):
        c = comp_of[node]
        if c >= 0 and not finished:
            members.setdefault(c, []).append(node)
        elif c >= 0 and members[c][0] == node:
            return members[c]
    return None


def reachability(adj: np.ndarray) -> np.ndarray:
    """Paths of length >= 1: closure of adj under composition."""
    reach = adj.astype(bool).copy()
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            return reach
        reach = nxt


def shortest_path(rows: list[int], start: int, goal: int) -> Optional[list[int]]:
    """BFS path start -> goal using >= 1 edge over bitset rows (see
    `bitset_rows`); None if unreachable.  start == goal asks for a cycle
    through start.

    The queue is in discovery order and each node's new successors are
    taken in increasing id, so every node keeps the first predecessor that
    reaches it.  When start and goal share a strongly connected component,
    this is the path over that component's subgraph alone: a node that
    start reaches and that has an edge into the component is in it, so no
    other node is ever a predecessor there.
    """
    prev: dict[int, int] = {}
    seen = 0
    queue = [start]
    for node in queue:
        new = rows[node] & ~seen
        seen |= new
        while new:
            nxt = (new & -new).bit_length() - 1
            prev[nxt] = node
            queue.append(nxt)
            new &= new - 1
        if seen >> goal & 1:
            path = [goal, prev[goal]]
            while path[-1] != start:
                path.append(prev[path[-1]])
            return path[::-1]
    return None


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
