"""Dense digraph helpers: closure, components, paths, stable toposort."""

import itertools
from collections import deque

import numpy as np
from hypothesis import given, settings, strategies as st

from choicerev.graphs import (
    bitset_rows,
    first_component,
    reachability,
    shortest_path,
    stable_topological_order,
)


def adj_from_edges(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        a[i, j] = True
    return a


def _reference_scc(adj):
    """Edge-by-edge iterative Tarjan: the reference for SCC output and order."""
    n = adj.shape[0]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comps = []
    counter = 0
    succ = [np.flatnonzero(adj[i]).tolist() for i in range(n)]

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, child_i = work.pop()
            if child_i == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for k in range(child_i, len(succ[node])):
                nxt = succ[node][k]
                if index[nxt] == -1:
                    work.append((node, k + 1))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                comp.reverse()
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return comps


@st.composite
def digraphs(draw):
    """Random dense digraphs; n crosses the 64- and 128-bit row boundaries."""
    n = draw(st.integers(0, 130))
    density = draw(
        st.sampled_from([0.0, 1.0])
        | st.floats(0.0, 1.0)
        # sparse: about c edges per node, so many small components
        | st.floats(0.0, 3.0).map(lambda c: c / max(n, 1))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.random((n, n)) < density
    loops = draw(st.sampled_from(["none", "all", "random"]))
    if loops != "random":
        np.fill_diagonal(a, loops == "all")
    # callers pass any truthy matrix, not only bool
    if draw(st.booleans()):
        a = a.astype(np.int64) * draw(st.integers(1, 5))
    return a


@settings(max_examples=200, deadline=None)
@given(digraphs(), st.data())
def test_first_component_matches_reference_order(a, data):
    """The first wanted component in the reference's output order, with
    the reference's node order, whichever components are wanted."""
    comps = _reference_scc(a)
    wanted = data.draw(st.lists(st.booleans(), min_size=len(comps), max_size=len(comps)))
    comp_of = [-1] * a.shape[0]
    for i, (comp, keep) in enumerate(zip(comps, wanted)):
        for v in comp:
            comp_of[v] = i if keep else -1
    want = next((comp for comp, keep in zip(comps, wanted) if keep), [])
    assert list(first_component(bitset_rows(a), comp_of)) == want


class _CountingRows:
    """Bitset rows that record which rows a walk reads."""

    def __init__(self, rows):
        self.rows = rows
        self.read = set()

    def __getitem__(self, i):
        self.read.add(i)
        return self.rows[i]


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_first_component_of_one_stops_where_the_caller_does(a):
    """With one component wanted, its nodes come out as the search
    discovers them: after two nodes, no row past the second's discovery
    has been read."""
    comps = [c for c in _reference_scc(a) if len(c) > 1]
    if not comps:
        return
    comp_of = [-1] * a.shape[0]
    for v in comps[-1]:
        comp_of[v] = 0
    rows = _CountingRows(bitset_rows(a))
    members = first_component(rows, comp_of)
    assert [next(members), next(members)] == comps[-1][:2]
    assert comps[-1][1] not in rows.read
    assert list(members) == comps[-1][2:]


@st.composite
def quotient_sized_digraphs(draw):
    """Dense digraphs of 100-200 nodes, the size of the outcome quotients
    of random operators at n=257."""
    n = draw(st.integers(100, 200))
    density = draw(st.floats(0.005, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return rng.random((n, n)) < density


def _closure_components(a):
    """The components of two or more nodes as the package reads them off
    the closure: v is in one iff its row of reach & reach.T has a second
    entry, and argmax labels it by the component's smallest node."""
    if not len(a):
        return []
    reach = reachability(a)
    mutual = reach & reach.T
    label = np.where(mutual.sum(axis=1) > 1, mutual.argmax(axis=1), -1)
    comps = {}
    for v, c in enumerate(label.tolist()):
        if c >= 0:
            comps.setdefault(c, []).append(v)
    assert all(c == nodes[0] for c, nodes in comps.items())
    return sorted(comps.values())


def _multi_node_components(a):
    return sorted(sorted(c) for c in _reference_scc(a) if len(c) > 1)


@settings(max_examples=300, deadline=None)
@given(digraphs())
def test_closure_components_match_reference(a):
    assert _closure_components(a) == _multi_node_components(a)


@settings(max_examples=60, deadline=None)
@given(quotient_sized_digraphs())
def test_closure_components_match_reference_on_quotient_sized_digraphs(a):
    assert _closure_components(a) == _multi_node_components(a)


def test_closure_components_at_word_boundaries_and_extremes():
    for n in (0, 1, 2, 63, 64, 65, 127, 128, 129):
        empty = np.zeros((n, n), dtype=bool)
        assert _closure_components(empty) == []
        full = np.ones((n, n), dtype=np.int8)
        assert _closure_components(full) == ([list(range(n))] if n > 1 else [])
        # one cycle closed across every word boundary: n-1 -> 0
        ring = np.roll(np.eye(n, dtype=bool), 1, axis=1)
        assert _closure_components(ring) == _multi_node_components(ring)
        # self-loops alone join no two nodes
        assert _closure_components(np.eye(n, dtype=bool)) == []


@given(st.integers(0, 2 ** 16 - 1))
def test_reachability_matches_floyd_warshall(bits):
    n = 4
    a = np.array(
        [[bits >> (i * n + j) & 1 == 1 for j in range(n)] for i in range(n)]
    )
    r = reachability(a)
    expected = a.copy()
    for k, i, j in itertools.product(range(n), repeat=3):
        if expected[i, k] and expected[k, j]:
            expected[i, j] = True
    # one extra sweep: length >= 1 closure is a fixpoint
    for k, i, j in itertools.product(range(n), repeat=3):
        if expected[i, k] and expected[k, j]:
            expected[i, j] = True
    assert (r == expected).all()


def _reference_closure(a):
    """Paths of length >= 1: a breadth-first search from each node's
    successors."""
    n = a.shape[0]
    succ = [np.flatnonzero(a[i]).tolist() for i in range(n)]
    out = np.zeros((n, n), dtype=bool)
    for s in range(n):
        seen = set(succ[s])
        queue = deque(seen)
        while queue:
            for w in succ[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        out[s, sorted(seen)] = True
    return out


@st.composite
def closure_digraphs(draw):
    """Digraphs of 1-200 nodes, sparse enough for long paths, with an
    optional cycle through every node and any self-loops."""
    n = draw(st.integers(1, 200))
    density = draw(st.floats(0.0, 1.0) | st.floats(0.0, 3.0).map(lambda c: c / n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.random((n, n)) < density
    if draw(st.booleans()):
        a |= np.roll(np.eye(n, dtype=bool), 1, axis=1)
    loops = draw(st.sampled_from(["none", "all", "random"]))
    if loops != "random":
        np.fill_diagonal(a, loops == "all")
    return a


@settings(max_examples=150, deadline=None)
@given(closure_digraphs())
def test_reachability_matches_breadth_first_closure(a):
    r = reachability(a)
    assert r.dtype == bool
    assert np.array_equal(r, _reference_closure(a))


def test_reachability_at_160_nodes():
    """A quotient-sized digraph: a path through all 160 nodes, so the
    squaring runs to paths of length 159, plus sparse random edges."""
    n = 160
    a = np.random.default_rng(160).random((n, n)) < 0.004
    a |= np.eye(n, k=1, dtype=bool)
    r = reachability(a)
    assert np.array_equal(r, _reference_closure(a))
    assert r[0, n - 1]


def test_shortest_path_and_cycle():
    rows = bitset_rows(adj_from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)]))
    assert shortest_path(rows, 0, 4) == [0, 3, 4]
    assert shortest_path(rows, 4, 0) is None
    # start == goal asks for a genuine cycle
    assert shortest_path(rows, 0, 0) == [0, 1, 2, 0]
    assert shortest_path(rows, 3, 3) is None


def test_shortest_path_self_loop():
    rows = bitset_rows(adj_from_edges(2, [(0, 0)]))
    assert shortest_path(rows, 0, 0) == [0, 0]


def _reference_shortest_path(adj, start, goal):
    """The seed's BFS over a dense adjacency: a queue of nodes, successors
    in increasing id, each node keeping the first predecessor seen."""
    prev = {}
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


@settings(max_examples=200, deadline=None)
@given(digraphs(), st.data())
def test_paths_match_reference_bfs(a, data):
    """shortest_path gives the seed's BFS path on the dense adjacency, and,
    between two nodes of one component, the seed's path over that
    component's subgraph alone, the loop a strong-reciprocity witness is
    built from."""
    n = a.shape[0]
    if n == 0:
        return
    rows = bitset_rows(a)
    start = data.draw(st.integers(0, n - 1))
    goal = data.draw(st.integers(0, n - 1))
    assert shortest_path(rows, start, goal) == _reference_shortest_path(a, start, goal)
    for comp in _reference_scc(a):
        inside = np.zeros(n, dtype=bool)
        inside[comp] = True
        sub = a.astype(bool) & inside[:, None] & inside[None, :]
        x, y = comp[0], data.draw(st.sampled_from(comp))
        for u, v in ((x, y), (y, x)):
            assert shortest_path(rows, u, v) == _reference_shortest_path(sub, u, v)


def _simple_cycles_bounded(adj, max_len):
    """All simple cycles of length <= min(max_len, 3), canonical rotation,
    sorted: a slow loop scan that cross-checks the SCC criterion."""
    n = adj.shape[0]
    out = set()
    a = adj.astype(bool)
    for i in range(n):
        if a[i, i]:
            out.add((i,))
    if max_len >= 2:
        for i in range(n):
            for j in range(i + 1, n):
                if a[i, j] and a[j, i]:
                    out.add((i, j))
    if max_len >= 3:
        for i in range(n):
            for j in range(n):
                if i == j or not a[i, j]:
                    continue
                for k in np.flatnonzero(a[j]):
                    k = int(k)
                    if k in (i, j):
                        continue
                    if a[k, i] and i < j and i < k:
                        out.add((i, j, k))
    return sorted(list(c) for c in out)


def test_simple_cycles_bounded():
    a = adj_from_edges(4, [(0, 0), (1, 2), (2, 1), (1, 3), (3, 2), (2, 3)])
    cycles = _simple_cycles_bounded(a, 3)
    assert [0] in cycles
    assert [1, 2] in cycles
    assert [2, 3] in cycles
    assert [1, 3, 2] in cycles
    assert all(len(c) <= 3 for c in cycles)
    assert _simple_cycles_bounded(a, 1) == [[0]]


def test_stable_topological_order_deterministic():
    # 0 before 1 and 2; tie among 1, 2 broken by key
    a = adj_from_edges(3, [(0, 1), (0, 2)])
    assert stable_topological_order(3, a, lambda i: i) == [0, 1, 2]
    assert stable_topological_order(3, a, lambda i: -i) == [0, 2, 1]


def test_stable_topological_order_cycle_none():
    a = adj_from_edges(2, [(0, 1), (1, 0)])
    assert stable_topological_order(2, a, lambda i: i) is None
    # self-loops are vacuous, not cycles
    b = adj_from_edges(2, [(0, 0), (0, 1), (1, 1)])
    assert stable_topological_order(2, b, lambda i: i) == [0, 1]


def _reference_in_degrees(n, must_precede):
    """The per-column loop stable_topological_order used to count with."""
    return [
        int(must_precede[:, j].sum()) - (1 if must_precede[j, j] else 0) for j in range(n)
    ]


def _reference_topological_order(n, must_precede, tie_key):
    """Kahn's algorithm over the loop's in-degrees and Python successor lists."""
    indeg = _reference_in_degrees(n, must_precede)
    ready = sorted((tie_key(i), i) for i in range(n) if indeg[i] == 0)
    order = []
    while ready:
        _, node = ready.pop(0)
        order.append(node)
        for j in range(n):
            if j != node and must_precede[node, j]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready = sorted(ready + [(tie_key(j), j)])
    return order if len(order) == n else None


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 0.5), st.sampled_from(["none", "all", "random"]),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_toposort_matches_loop_in_degrees(n, density, loops, acyclic, seed):
    """Random constraint matrices, with and without self-constraints and
    cycles: the same order, or None, as the per-column in-degree loop."""
    rng = np.random.default_rng(seed)
    a = rng.random((n, n)) < density
    if acyclic:
        perm = rng.permutation(n)
        a = np.triu(a, 1)[np.ix_(perm, perm)]
    if loops != "random":
        np.fill_diagonal(a, loops == "all")
    keys = rng.permutation(n).tolist()
    want = _reference_topological_order(n, a, keys.__getitem__)
    assert stable_topological_order(n, a, keys.__getitem__) == want
    if acyclic:
        assert want is not None


@given(st.integers(0, 2 ** 9 - 1), st.permutations(range(3)))
def test_toposort_respects_constraints(bits, keys):
    n = 3
    a = np.array(
        [[bits >> (i * n + j) & 1 == 1 for j in range(n)] for i in range(n)]
    )
    order = stable_topological_order(n, a, lambda i: keys[i])
    r = reachability(a & ~np.eye(n, dtype=bool))
    has_cycle = any(r[i, i] for i in range(n))
    if has_cycle:
        assert order is None
    else:
        assert order is not None
        pos = {v: k for k, v in enumerate(order)}
        for i in range(n):
            for j in range(n):
                if a[i, j] and i != j:
                    assert pos[i] < pos[j]
