"""Small graph helpers over dense index-based digraphs: numpy bool matrices,
or their rows as int bitsets, and the one boolean matrix product."""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

# bitset rows: a list, or a mapping that builds each row when first read
Rows = Union[Sequence[int], Mapping[int, int]]


def bitset_rows(adj: np.ndarray) -> list[int]:
    """Row i of a dense digraph as an int whose bit j says adj[i, j] is truthy.

    Rows are packed from a C-contiguous copy, so a Fortran-order or
    column-gathered adjacency costs what a row-major one does.
    """
    a = np.ascontiguousarray(adj, dtype=bool)
    width = (a.shape[1] + 7) // 8
    packed = np.packbits(a, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i * width:(i + 1) * width], "little") for i in range(a.shape[0])]


def _depth_first(rows: Rows, n: int) -> Iterator[tuple[int, bool]]:
    """Depth-first search over the bitset rows of nodes 0..n-1 that starts
    from the lowest unvisited node and always moves on to the lowest
    unvisited successor.

    Yields (node, False) when a node is discovered and (node, True) when it
    finishes.  This is the search Tarjan's algorithm makes, so its order
    fixes `first_component`'s.  A row is read only while its node is on
    top of the path.
    """
    unvisited = (1 << n) - 1
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


def first_component(rows: Rows, comp_of: list[int]) -> Iterator[int]:
    """The nodes of the first strongly connected component among those
    comp_of names in Tarjan's output order, in discovery order; none when
    comp_of names none.

    Tarjan's search is `_depth_first`'s, so components come out in reverse
    topological order; strong-reciprocity witnesses rely on that order.
    rows are the digraph's bitset rows.  comp_of[v] >= 0 must be the same
    id for exactly the nodes of v's strongly connected component, and -1
    marks nodes whose component is not wanted.  With the components known,
    no low-links are needed: a component comes out when its
    first-discovered member finishes.  So one depth-first search, stopped
    there, gives it.  When comp_of names one component, that one is first,
    and each of its nodes is yielded as soon as it is discovered: a caller
    that stops reading stops the search.
    """
    walk = _depth_first(rows, len(comp_of))
    if len(set(comp_of) - {-1}) == 1:
        yield from (node for node, finished in walk if not finished and comp_of[node] >= 0)
        return
    members: dict[int, list[int]] = {}
    for node, finished in walk:
        c = comp_of[node]
        if c >= 0 and not finished:
            members.setdefault(c, []).append(node)
        elif c >= 0 and members[c][0] == node:
            yield from members[c]
            return


def bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product: out[i, j] says a[i, k] and b[k, j] for some k.

    One float32 product, exact: each sum counts at most a.shape[1] ones,
    far below 2^24 under UNIVERSE_CAP.  numpy's bool @ is a
    short-circuiting loop whose cost depends on the data: 0.6-0.7 ms
    against 0.055 ms on derived and lifted relation tables at n=137, on
    one virtual CPU with OpenBLAS.

    Callers: relation transitivity at both levels (the table with
    itself), `reachability`'s squaring loop, and the operator kernel's
    outcome quotient (the g*n group indicator with the n*g meets table),
    also at both levels: over a universe's inputs, or over a language's
    classes for the single-sentence battery.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def reachability(adj: np.ndarray) -> np.ndarray:
    """Paths of length >= 1: closure of adj under composition, by
    repeated squaring with `bool_product`."""
    reach = adj.astype(bool)
    while True:
        nxt = reach | bool_product(reach, reach)
        if (nxt == reach).all():
            return reach
        reach = nxt


def shortest_path(rows: Rows, start: int, goal: int) -> Optional[list[int]]:
    """BFS path start -> goal using >= 1 edge over bitset rows (see
    `bitset_rows`); None if unreachable.  start == goal asks for a cycle
    through start.

    The queue is in discovery order and each node's new successors are
    taken in increasing id, so every node keeps the first predecessor that
    reaches it.  When start and goal share a strongly connected component,
    this is the path over that component's subgraph alone: a node that
    start reaches and that has an edge into the component is in it, so no
    other node is ever a predecessor there.

    The queue holds each expanded node's new successors as one bitset, and
    a node is taken out of it only when its turn to expand comes.  The goal
    bit is tested before that, so the layer the goal is found in is never
    listed node by node.
    """
    prev: dict[int, int] = {}
    seen = 0
    queue = [(start, 1 << start)]
    for parent, batch in queue:
        while batch:
            node = (batch & -batch).bit_length() - 1
            batch &= batch - 1
            prev[node] = parent
            new = rows[node] & ~seen
            if new >> goal & 1:
                path = [goal, node]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                return path[::-1]
            seen |= new
            if new:
                queue.append((node, new))
    return None


def stable_topological_order(
    n: int, must_precede: np.ndarray, tie_key: Callable[[int], object]
) -> Optional[list[int]]:
    """Kahn's algorithm; among ready nodes always pick the smallest tie_key.

    must_precede[i, j] truthy means i has to come before j.  Returns None
    when the constraints are cyclic.
    """
    must_precede = np.asarray(must_precede, dtype=bool)
    # self-constraints are vacuous
    indeg = (must_precede.sum(axis=0) - must_precede.diagonal()).tolist()
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
