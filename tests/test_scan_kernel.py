"""Differential tests of the subset-search kernel on generic small graphs.

The scan and the removal check take plain (neighbour, removal key) rows, so
they are compared here against networkx on graphs far from star graphs:
trees, cycles, complete graphs and random graphs, glued into graphs with
bridges, cut vertices or several components.  The path families that let a
base skip its scan are held to the scan on 2-connected random graphs and on
star graphs, where they are built by symmetry, and whole searches with and
without them must agree.
"""

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations, islice
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcut import (
    InvariantViolationError,
    SearchBudget,
    StarGraph,
    classical_connectivity,
)
from starcut import oracle
from starcut.oracle import (
    SearchStats,
    _WorkerState,
    _certified,
    _check_removal,
    _chunks,
    _flow_network,
    _keyed_rows,
    _lanes,
    _orbit_paths,
    _path_family,
    _scan,
    _subset_search,
)
from starcut.symmetry import star_maps

from helpers import brute_min_k_cut, certified_by_path_lists

nx = pytest.importorskip("networkx")


@st.composite
def block_graphs(draw):
    """Adjacency lists of up to 12 vertices, built from up to 3 blocks.

    Each block is a tree, a cycle, a complete graph or a random graph on up
    to 4 vertices.  Every block after the first is left apart (another
    component), joined to an earlier vertex by one edge (a bridge) or glued
    onto an earlier vertex (a cut vertex).
    """
    adj: list[set] = []

    def new_vertex():
        adj.append(set())
        return len(adj) - 1

    def add_edge(u, v):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        join = draw(st.sampled_from(["apart", "bridge", "glue"])) if adj else "apart"
        anchor = draw(st.integers(0, len(adj) - 1)) if adj else None
        if join == "glue":
            vs = [anchor] + [new_vertex() for _ in range(size - 1)]
        else:
            vs = [new_vertex() for _ in range(size)]
            if join == "bridge":
                add_edge(anchor, vs[0])
        shape = draw(st.sampled_from(["tree", "cycle", "complete", "random"]))
        pairs = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
        if shape == "tree":
            for i in range(1, size):
                add_edge(vs[draw(st.integers(0, i - 1))], vs[i])
        elif shape == "cycle":
            for i in range(size):
                add_edge(vs[i], vs[(i + 1) % size])
        elif shape == "complete":
            for a, b in pairs:
                add_edge(a, b)
        else:
            for a, b in pairs:
                if draw(st.booleans()):
                    add_edge(a, b)
    return [sorted(row) for row in adj]


@st.composite
def removal_cases(draw):
    adj = draw(block_graphs())
    mode = draw(st.sampled_from(["vertex", "edge"]))
    rows, ground, edges = _keyed_rows(adj, mode)
    removal = draw(st.lists(st.integers(0, ground - 1), unique=True)) if ground else []
    k = draw(st.integers(0, 3))
    return adj, mode, rows, ground, edges, removal, k


def _state(mode, rows, ground, families=None):
    ws = _WorkerState(rows, ground, mode)
    ws.families = families
    return ws


def _verdict(ws, removal, k):
    """(disconnected, valid) from the removal check's surviving degree."""
    disconnected, mind = _check_removal(ws, removal)
    return disconnected, disconnected and mind >= k


def _reduced(adj, mode, edges, removal):
    h = nx.Graph()
    h.add_nodes_from(range(len(adj)))
    h.add_edges_from((u, w) for u, row in enumerate(adj) for w in row)
    if mode == "vertex":
        h.remove_nodes_from(removal)
    else:
        h.remove_edges_from(edges[e] for e in removal)
    return h


@settings(max_examples=400, deadline=None)
@given(removal_cases())
def test_scan_matches_networkx(case):
    adj, mode, rows, ground, edges, removal, k = case
    h = _reduced(adj, mode, edges, removal)
    if mode == "vertex":
        critical = sorted(nx.articulation_points(h))
    else:
        eid = {e: i for i, e in enumerate(edges)}
        critical = sorted(eid[tuple(sorted(e))] for e in nx.bridges(h))
    ws = _state(mode, rows, ground)
    ncomp, got = _scan(ws, removal)
    assert (ncomp, sorted(got)) == (nx.number_connected_components(h), critical)


@settings(max_examples=400, deadline=None)
@given(removal_cases())
def test_removal_check_matches_components_and_min_degree(case):
    adj, mode, rows, ground, edges, removal, k = case
    h = _reduced(adj, mode, edges, removal)
    survivors = h.number_of_nodes()
    if survivors == 0:
        expected = (False, False)  # removing every vertex is no cut
    else:
        # in vertex mode fewer than two survivors count as disconnected
        disconnected = (nx.number_connected_components(h) >= 2
                        or (mode == "vertex" and survivors < 2))
        min_degree = min(d for _, d in h.degree())
        expected = (disconnected, disconnected and min_degree >= k)
        assert _check_removal(_state(mode, rows, ground), removal)[1] == min_degree
    ws = _state(mode, rows, ground)
    assert _verdict(ws, removal, k) == expected


def test_scan_and_check_reuse_one_state():
    # stamps from earlier calls must not leak into later ones
    adj = [[1, 2], [0, 2], [0, 1, 3], [2]]  # a triangle with a pendant edge
    rows, ground, edges = _keyed_rows(adj, "edge")
    ws = _state("edge", rows, ground)
    bridge = edges.index((2, 3))
    assert _scan(ws, []) == (1, [bridge])
    assert _scan(ws, [bridge]) == (2, [])
    assert _verdict(ws, [bridge], 0) == (True, True)
    assert _verdict(ws, [bridge], 1) == (True, False)
    assert _scan(ws, []) == (1, [bridge])


# ---------------------------------------------------------------------------
# the path family: a skipped scan is one that finds nothing
# ---------------------------------------------------------------------------


@st.composite
def two_path_graphs(draw):
    """Graphs in which every vertex has two disjoint paths to vertex 0.

    A block is a cycle through 3 to 8 vertices in random order plus random
    chords: 2-connected, since the cycle is Hamiltonian.  Half the graphs
    glue a second block onto the first at vertex 0, which makes vertex 0 a
    cut vertex, yet every other vertex keeps two internally disjoint paths
    (and two edge-disjoint walks) to it.
    """
    adj: list[set] = []
    for glued in range(draw(st.integers(1, 2))):
        size = draw(st.integers(3, 8))
        vs = [0] * glued + list(range(len(adj), len(adj) + size - glued))
        adj.extend(set() for _ in range(size - glued))
        order = draw(st.permutations(vs))
        pairs = [(order[i], order[(i + 1) % size]) for i in range(size)]
        pairs += draw(st.lists(st.tuples(st.sampled_from(vs), st.sampled_from(vs)),
                               max_size=2 * size))
        for u, w in pairs:
            if u != w:
                adj[u].add(w)
                adj[w].add(u)
    return [sorted(row) for row in adj]


def _extension_span(draw, ground, held=()):
    """A base as _run_task meets it: sorted, L its largest key (-1 when
    empty), deciding the extensions x with L < x < x_end.  The base holds
    the keys `held`."""
    base = tuple(sorted(set(held).union(draw(st.lists(st.integers(0, ground - 1),
                                                      unique=True, max_size=6)))))
    L = base[-1] if base else -1
    return base, L, draw(st.integers(L + 1, ground))


def _assert_skip_is_sound(ws, base, L, x_end):
    """When the family says skip, the scan finds one component and no
    critical key among the extensions, and no extension leaves fewer than
    two survivors in vertex mode (_run_task checks every one of those)."""
    if _certified(ws, base, L, x_end):
        assert not (ws.vertex and ws.N - len(base) - 1 < 2), (base, L, x_end)
        ncomp, critical = _scan(ws, base)
        assert ncomp == 1, (base, L, x_end)
        assert not [c for c in critical if L < c < x_end], (base, L, x_end, critical)
        return True
    return False


def _family_state(adj, mode, maps=None):
    # the path families as the subset walk builds them
    rows, ground, edges = _keyed_rows(adj, mode)
    flows = _orbit_paths(rows, mode, maps[0] if maps else [])
    return _state(mode, rows, ground, _path_family(rows, ground, edges, flows, maps))


@settings(max_examples=600, deadline=None)
@given(two_path_graphs(), st.sampled_from(["vertex", "edge"]), st.data())
def test_skip_is_sound_on_graphs_with_two_paths_to_vertex_0(adj, mode, data):
    ws = _family_state(adj, mode)
    assert len(ws.families) == 1
    for _ in range(8):
        _assert_skip_is_sound(ws, *_extension_span(data.draw, ws.ground))


@pytest.mark.parametrize("mode, adj, base, v", [
    # the 4-cycle 0-1-2-3 with the chord 0-2 (edge id 1), which the base
    # removes: vertex 3 keeps its path 3-0, an edge the extensions may
    # remove, and loses 3-2-0; its links to 0 and to 2 clear it, since 2
    # keeps 2-1-0 and 2-3-0
    ("edge", [[1, 2, 3], [0, 2], [0, 1, 3], [0, 2]], (1,), 3),
    # the 5-cycle 0-2-4-3-5 with the chord 2-5, and vertex 1 on 0 and 3:
    # removing 1 leaves vertex 4 its path 4-2-0 only, while 2 keeps 2-0 and
    # 2-5-0 and 3 keeps 3-5-0 and 3-4-2-0
    ("vertex", [[1, 2, 5], [0, 3], [0, 4, 5], [1, 4, 5], [2, 3], [0, 2, 3]], (1,), 4),
])
def test_two_robust_neighbours_clear_a_vertex_its_own_paths_do_not(mode, adj, base, v):
    ws = _family_state(adj, mode)
    L, x_end = base[-1], ws.ground
    sink, hits, risk, high, width, first, keys, through = ws.families[0]
    free = [keys[p] for p in range(first[v], first[v + 1]) if set(base).isdisjoint(keys[p])]
    assert len(free) == 1 and any(L < x < x_end for x in free[0])
    assert _assert_skip_is_sound(ws, base, L, x_end)


@pytest.mark.parametrize("mode, adj, base, cut", [
    # a neighbour reached over a key in the base: the 5-cycle 0-1-2-3-4
    # with the chord 0-3 loses the edge 0-4 (id 2), so vertex 4 hangs on
    # the bridge 3-4 (id 5), though both its neighbours are robust: vertex
    # 0, and 3 with 3-0 and 3-2-1-0
    ("edge", [[1, 3, 4], [0, 2], [1, 3], [0, 2, 4], [0, 3]], (2,), 5),
    # only one robust neighbour: removing vertex 4 leaves the triangle
    # 2-3-5 hanging on vertex 5.  Vertex 2 keeps its links to 3 and 5, and
    # 5 keeps 5-0 and 5-1-0, but 3 keeps only 3-5-0
    ("vertex", [[1, 4, 5], [0, 5], [3, 4, 5], [2, 5], [0, 2], [0, 1, 2, 3]], (4,), 5),
])
def test_a_vertex_with_fewer_than_two_robust_links_is_scanned(mode, adj, base, cut):
    ws = _family_state(adj, mode)
    L, x_end = base[-1], ws.ground
    assert not _certified(ws, base, L, x_end)
    assert _scan(ws, base) == (1, [cut])


@lru_cache(maxsize=None)
def _star_state(n, mode):
    # the families the subset walk builds: by orbits, and in vertex mode
    # with a second sink
    adj = StarGraph(n).adjacency_lists()
    return _family_state(adj, mode, star_maps(adj))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.sampled_from(["vertex", "edge", "second sink"]),
       st.booleans(), st.data())
def test_skip_is_sound_on_star_graphs(n, mode, hold_0, data):
    # "second sink" is vertex mode with the second family alone; a base that
    # holds key 0 sends vertex mode to the second family
    ws = _star_state(n, "vertex" if mode == "second sink" else mode)
    assert len(ws.families) == (1 if mode == "edge" else 2)
    if mode == "second sink":
        ws = _state("vertex", ws.rows, ws.ground, ws.families[1:])
    held = (0,) if hold_0 else ()
    for _ in range(8):
        _assert_skip_is_sound(ws, *_extension_span(data.draw, ws.ground, held))


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_most_level_four_bases_of_s5_skip_their_scan(mode):
    # the family earns its keep: the S5 k=1 walk starts at size 4, from
    # bases of size 3 over every extension above their largest key
    ws = _star_state(5, mode)
    rng = random.Random(0)
    bases = [tuple(sorted(rng.sample(range(ws.ground), 3))) for _ in range(2000)]
    skipped = sum(_assert_skip_is_sound(ws, b, b[-1], ws.ground) for b in bases)
    assert skipped >= 0.95 * len(bases)


def test_level_four_bases_that_remove_vertex_0_skip_by_the_second_sink():
    # vertex 0, the first family's sink, is in every one of these bases
    ws = _star_state(5, "vertex")
    rng = random.Random(0)
    bases = [(0, *sorted(rng.sample(range(2, ws.ground), 2))) for _ in range(2000)]
    skipped = sum(_assert_skip_is_sound(ws, b, b[-1], ws.ground) for b in bases)
    assert skipped >= 0.95 * len(bases)
    # a base that holds both sinks, or whose extensions may remove the
    # second, is scanned
    for base in [(0, 1, x) for x in range(2, ws.ground)]:
        assert not _certified(ws, base, base[-1], ws.ground)
    assert not _certified(ws, (0,), 0, ws.ground)


# ---------------------------------------------------------------------------
# the path bits: the certificate reads the same free paths as the path
# lists it replaced (helpers.certified_by_path_lists)
# ---------------------------------------------------------------------------


def _assert_certificates_agree(ws, base, L, x_end):
    got = _certified(ws, base, L, x_end)
    assert got == certified_by_path_lists(ws, base, L, x_end), (base, L, x_end)
    return got


def _near_base(draw, ws, held=()):
    """A base as _extension_span draws it, but with most keys taken from
    the paths and links of one vertex, so that its lane sum flags vertices
    and the certificate reads their free paths and their neighbours'."""
    first, keys = ws.families[0][5:7]
    v = draw(st.integers(0, ws.N - 1))
    near = sorted({key for path in keys[first[v]:first[v + 1]] for key in path}
                  | {key for _, key in ws.rows[v]})
    picked = draw(st.lists(st.sampled_from(near), unique=True, max_size=4)) if near else []
    extra = draw(st.lists(st.integers(0, ws.ground - 1), unique=True, max_size=2))
    base = tuple(sorted(set(held).union(picked, extra)))
    L = base[-1] if base else -1
    return base, L, draw(st.integers(L + 1, ws.ground))


@settings(max_examples=300, deadline=None)
@given(two_path_graphs(), st.sampled_from(["vertex", "edge"]), st.data())
def test_path_bits_match_the_path_lists_on_graphs_with_two_paths_to_vertex_0(adj, mode, data):
    ws = _family_state(adj, mode)
    for _ in range(8):
        _assert_certificates_agree(ws, *_near_base(data.draw, ws))
        _assert_certificates_agree(ws, *_extension_span(data.draw, ws.ground))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.sampled_from(["vertex", "edge", "second sink"]),
       st.booleans(), st.data())
def test_path_bits_match_the_path_lists_on_star_graphs(n, mode, hold_0, data):
    # the modes and held key 0 of test_skip_is_sound_on_star_graphs, and an
    # x_end drawn anywhere above the base's largest key
    ws = _star_state(n, "vertex" if mode == "second sink" else mode)
    if mode == "second sink":
        ws = _state("vertex", ws.rows, ws.ground, ws.families[1:])
    held = (0,) if hold_0 else ()
    for _ in range(8):
        _assert_certificates_agree(ws, *_near_base(data.draw, ws, held))


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("n, max_nodes", [(4, None), (5, 3_000_000)])
def test_path_bits_match_the_path_lists_on_every_base_a_walk_hands_over(
        monkeypatch, n, max_nodes, mode):
    # every k of the star in one walk on one worker (S3's lane sums clear
    # every base); in vertex mode the bases that hold vertex 0 go to the
    # second sink's family
    results = Counter()

    def both(*args):
        got = _assert_certificates_agree(*args)
        results[got] += 1
        return got

    monkeypatch.setattr(oracle, "_certified", both)
    oracle._oracle(StarGraph(n), list(range(n + 1)), mode, SearchBudget(max_nodes=max_nodes), 1, None)
    assert results[True] and results[False], results


# ---------------------------------------------------------------------------
# the lane sums of a whole group: a base cleared in bulk is one the scan
# would clear
# ---------------------------------------------------------------------------


def _assert_bulk_is_sound(ws, s, L, start, count, x_end):
    """_chunks keeps the group's other bases in combination order, and the
    scan of each base it clears finds one component and no critical key
    among the extensions, which leave at least two survivors."""
    bases = [rest + (L,) for rest in islice(combinations(range(L), s - 2),
                                            start, start + count)]
    chunks = list(_chunks(ws, s, L, start, count, x_end))
    left = [base for _, kept in chunks for base in kept]
    ordered = iter(bases)
    assert all(base in ordered for base in left), left  # a subsequence
    assert sum(cleared for cleared, _ in chunks) == len(bases) - len(left)
    for base in sorted(set(bases).difference(left)):
        assert not (ws.vertex and ws.N - len(base) - 1 < 2), (base, x_end)
        ncomp, critical = _scan(ws, base)
        assert ncomp == 1, (base, x_end)
        assert not [c for c in critical if L < c < x_end], (base, x_end, critical)
    return len(bases) - len(left)


def _group(draw, ground):
    """A group as _plan_level lays it out, perhaps truncated: the bases of
    s - 1 keys with largest key L, from number `start` on, deciding the
    extensions below x_end."""
    s = draw(st.integers(2, min(5, ground)))
    L = draw(st.integers(s - 2, ground - 2))
    total = comb(L, s - 2)
    start = draw(st.integers(0, min(total - 1, 20_000)))
    count = min(total - start, 200)
    if draw(st.booleans()):  # else the group runs to its end
        count = draw(st.integers(1, count))
    return s, L, start, count, draw(st.integers(L + 2, ground))


def _families_to(adj, sinks):
    """Vertex-mode families to those of `sinks` that every other vertex
    reaches by two paths.  Each one's flows run with the sink and vertex 0
    swapped, and its paths are swapped back."""
    N = len(adj)
    width = N.bit_length() + 1
    families = []
    for t in sinks:
        swap = list(range(N))
        swap[0], swap[t] = t, 0
        swapped = [sorted(swap[w] for w in adj[swap[v]]) for v in range(N)]
        paths = [()] * N
        for rep, _, found in _orbit_paths(_keyed_rows(swapped, "vertex")[0], "vertex", []):
            paths[swap[rep]] = tuple(tuple(swap[x] for x in path) for path in found)
        if all(len(found) > 1 for v, found in enumerate(paths) if v != t):
            families.append(_lanes(t, paths, N, width, True))
    return families


_CHUNKS = st.sampled_from([1, 7, 256])


@settings(max_examples=300, deadline=None)
@given(two_path_graphs(), st.sampled_from(["vertex", "edge"]), _CHUNKS, st.data())
def test_bulk_clearing_is_sound_on_graphs_with_two_paths_to_vertex_0(adj, mode, chunk, data):
    # in vertex mode the graph is relabelled, so that vertex 0, a cut
    # vertex when two blocks are glued, becomes a drawn sink t, and a
    # second sink may join it: a group may hold a sink or decide it among
    # its extensions
    if mode == "edge":
        ws = _family_state(adj, mode)
    else:
        to = data.draw(st.permutations(range(len(adj))))
        relabelled = [()] * len(adj)
        for v, row in enumerate(adj):
            relabelled[to[v]] = sorted(to[w] for w in row)
        sinks = [to[0], data.draw(st.sampled_from(range(len(adj))))]
        rows, ground, _ = _keyed_rows(relabelled, mode)
        ws = _state(mode, rows, ground, _families_to(relabelled, dict.fromkeys(sinks)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK", chunk)
        _assert_bulk_is_sound(ws, *_group(data.draw, ws.ground))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.sampled_from(["vertex", "edge"]), _CHUNKS, st.data())
def test_bulk_clearing_is_sound_on_star_graphs(n, mode, chunk, data):
    # vertex mode has both sinks, vertex 0 and vertex 1; groups with small
    # L hold them or decide them among their extensions
    ws = _star_state(n, mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_CHUNK", chunk)
        _assert_bulk_is_sound(ws, *_group(data.draw, ws.ground))


def test_bulk_clearing_spares_the_bases_that_hold_a_sink():
    ws = _star_state(5, "vertex")
    ground = ws.ground
    # (0,): L is the first sink and the second, vertex 1, an extension
    assert _assert_bulk_is_sound(ws, 2, 0, 0, 1, ground) == 0
    # (1,): L is the second sink, so only the first family clears it
    assert _assert_bulk_is_sound(ws, 2, 1, 0, 1, ground) == 1
    assert _assert_bulk_is_sound(ws, 3, 1, 0, 1, ground) == 0  # (0, 1)
    # the first 59 bases of size 3 with L = 60 all hold vertex 0: the sink
    # bit keeps them all from the first family, and the second may clear
    # any but (0, 1, 60), which holds both sinks
    first = _state("vertex", ws.rows, ground, ws.families[:1])
    assert _assert_bulk_is_sound(first, 4, 60, 0, 59, ground) == 0
    _assert_bulk_is_sound(ws, 4, 60, 0, 59, ground)
    assert next(_chunks(ws, 4, 60, 0, 59, ground))[1][0] == (0, 1, 60)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("n", [3, 4])
def test_bulk_clearing_is_sound_on_every_small_group_of_s3_and_s4(n, mode):
    ws = _star_state(n, mode)
    for s in range(2, 5):
        for L in range(s - 2, ws.ground - 1):
            _assert_bulk_is_sound(ws, s, L, 0, comb(L, s - 2), ws.ground)


@pytest.mark.parametrize("mode, certified, scans", [
    ("vertex", 1_048, 75),
    ("edge", 1_842, 81),
])
def test_s5_k1_walk_at_two_million_nodes_clears_most_bases_in_bulk(
        monkeypatch, mode, certified, scans):
    # the walk plans 25,523 (vertex) and 9,544 (edge) bases of size 3 at
    # the benchmark's budget.  In vertex mode the first family's lane sums
    # leave 4,405 of them, and the second family's clear 3,357 of those
    calls = Counter()
    for name in ("_certified", "_scan"):
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *a, real=real, name=name:
                            calls.update([name]) or real(*a))
    search = oracle.exact_kappa_super if mode == "vertex" else oracle.exact_lambda_super
    res = search(StarGraph(5), 1, SearchBudget(max_nodes=2_000_000))
    assert (res.kind, res.value, res.stats.nodes) == ("upper-bound-only", 6, 2_000_000)
    # one more scan tests the graph's connectivity before the walk
    assert (calls["_certified"], calls["_scan"] - 1) == (certified, scans)


def _assert_maximum_disjoint_paths(adj, mode, family):
    """Each vertex but the sink gets as many paths as networkx counts,
    pairwise disjoint in their keys, and each path's keys join the vertex
    to the sink."""
    from networkx.algorithms.connectivity import (
        build_auxiliary_edge_connectivity,
        build_auxiliary_node_connectivity,
        local_edge_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network

    sink, hits, risk, high, width, first, keys, through = family
    rows, ground, edges = _keyed_rows(adj, mode)
    g = _reduced(adj, mode, edges, [])
    if mode == "vertex":
        count, aux = local_node_connectivity, build_auxiliary_node_connectivity(g)
    else:
        count, aux = local_edge_connectivity, build_auxiliary_edge_connectivity(g)
    residual = build_residual_network(aux, "capacity")
    for v in range(len(adj)):
        paths = keys[first[v]:first[v + 1]]
        if v == sink:
            assert paths == []
            continue
        assert len(paths) == count(g, v, sink, auxiliary=aux, residual=residual)
        held = [key for path in paths for key in path]
        assert len(held) == len(set(held))
        for path in paths:
            if mode == "vertex":
                assert v not in path and sink not in path
                h = g.subgraph({v, sink, *path})
            else:
                h = nx.Graph(edges[e] for e in path)
            assert h.has_node(v) and h.has_node(sink) and nx.has_path(h, v, sink)
            for key in path:
                assert hits[key] >> (v * width) & 1
    # through[key] has bit p set exactly for the paths p that hold key
    paths_through = [0] * len(through)
    for p, path in enumerate(keys):
        for key in path:
            paths_through[key] |= 1 << p
    assert through == paths_through


@settings(max_examples=200, deadline=None)
@given(two_path_graphs(), st.sampled_from(["vertex", "edge"]))
def test_path_family_holds_maximum_disjoint_paths_to_vertex_0(adj, mode):
    family, = _family_state(adj, mode).families
    assert family[0] == 0
    _assert_maximum_disjoint_paths(adj, mode, family)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_orbit_built_families_hold_maximum_disjoint_paths_to_each_sink(n, mode):
    ws = _star_state(n, mode)
    assert [family[0] for family in ws.families] == ([0, 1] if mode == "vertex" else [0])
    for family in ws.families:
        _assert_maximum_disjoint_paths(StarGraph(n).adjacency_lists(), mode, family)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_path_family_runs_one_flow_per_orbit(monkeypatch, mode):
    # S5 has 11 orbits besides vertex 0 under its stabilizer; the second
    # sink's family is mapped, not flowed
    runs = []
    real = oracle._max_flow_unit
    monkeypatch.setattr(oracle, "_max_flow_unit", lambda *a: runs.append(a[3]) or real(*a))
    adj = StarGraph(5).adjacency_lists()
    rows, ground, edges = _keyed_rows(adj, mode)
    _orbit_paths(rows, mode, star_maps(adj)[0])
    assert len(runs) == 11
    runs.clear()
    _orbit_paths(rows, mode, [])
    assert len(runs) == 119


def _broken_maps(adj, broken, how):
    """star_maps(adj) as a list, with map number `broken` broken `how`."""
    gens, moves = star_maps(adj)
    maps = [*gens, *moves]
    if how == "slots":
        swapped = [list(row) for row in adj]
        swapped[5][:2] = swapped[5][1::-1]
        bad_gens, bad_moves = star_maps(swapped)
        maps[broken] = [*bad_gens, *bad_moves][broken]
    else:
        f = maps[broken] = maps[broken].copy()
        f[5], f[6] = f[6], f[5]
    assert maps[broken] != [*gens, *moves][broken]
    return maps


@pytest.mark.parametrize("broken", [0, 1, 2, 3])
@pytest.mark.parametrize("how", ["slots", "images"])
def test_a_map_that_is_not_an_automorphism_stops_the_walk(broken, how):
    # star_maps reads each map off the slot order of the rows.  With two
    # slots of one row swapped the graph is the same, but the maps read off
    # it are no longer bijections.  Swapping two images of a map keeps a
    # bijection that breaks arcs.  The walk must refuse either
    adj = StarGraph(4).adjacency_lists()
    maps = _broken_maps(adj, broken, how)
    stats = [SearchStats(strategy="subset-enumeration", workers=1)]
    with pytest.raises(InvariantViolationError):
        _subset_search(adj, [1], "vertex", stats, None, None, 1, [4],
                       (maps[:2], maps[2:]))


@pytest.mark.parametrize("broken", [0, 1, 2, 3])
@pytest.mark.parametrize("how", ["slots", "images"])
def test_a_map_that_is_not_an_automorphism_stops_classical_connectivity(
        monkeypatch, broken, how):
    # the same breakages: the flows use the stabilizer's generators, and
    # the check that the maps reach every vertex uses them all
    g = StarGraph(4)
    maps = _broken_maps(g.adjacency_lists(), broken, how)
    monkeypatch.setattr(oracle, "star_maps", lambda adj: (maps[:2], maps[2:]))
    with pytest.raises(InvariantViolationError):
        classical_connectivity(g)


def test_maps_that_do_not_reach_every_vertex_stop_classical_connectivity(monkeypatch):
    # without the relabelling by (1 2) the maps leave two vertex orbits
    gens, moves = star_maps(StarGraph(4).adjacency_lists())
    monkeypatch.setattr(oracle, "star_maps", lambda adj: (gens, moves[:1]))
    with pytest.raises(InvariantViolationError):
        classical_connectivity(StarGraph(4))


def test_maps_of_a_graph_that_is_not_vertex_transitive_start_the_walk_at_size_1():
    # K_{1,3} with the swap of two leaves, which fixes the centre, and the
    # identity as the map that should move vertex 0: both automorphisms,
    # but they never move the centre, so its flows give no connectivity
    # (read as |V| - 1 = 3, no non-neighbour of vertex 0).  The walk must
    # still find the centre, a cut of size 1
    adj = [(1, 2, 3), (0,), (0,), (0,)]
    stats = [SearchStats(strategy="subset-enumeration", workers=1)]
    (proved, value, witness), = _subset_search(
        adj, [0], "vertex", stats, None, None, 1, [None], ([[0, 2, 1, 3]], [[0, 1, 2, 3]]))
    edges = [(u, w) for u, row in enumerate(adj) for w in row if u < w]
    assert (proved, value, witness) == (True, brute_min_k_cut(4, edges, 0, "vertex"), [0])
    assert stats[0].pruned_sizes == [] and stats[0].lower_bound is None


def test_a_stabilizer_generator_that_moves_vertex_0_stops_the_walk():
    # passed as a generator of vertex 0's stabilizer, the relabelling to
    # vertex 1 joins every vertex to vertex 0's orbit, which runs no flow:
    # the walk would prune every size below a formula of 5 unseen, though
    # S4 holds the valid 1-cut [0, 1, 8, 10] that the true maps find
    adj = StarGraph(4).adjacency_lists()
    gens, moves = star_maps(adj)
    stats = [SearchStats(strategy="subset-enumeration", workers=1)]
    assert _subset_search(adj, [1], "vertex", stats, None, None, 1, [5],
                          (gens, moves)) == [(True, 4, [0, 1, 8, 10])]
    with pytest.raises(InvariantViolationError):
        _subset_search(adj, [1], "vertex", stats, None, None, 1, [5],
                       (gens + moves[:1], moves))


def _assert_network_invariant(adj, mode):
    """Arc a ^ 1 runs back from the head of arc a, and only the arcs that
    cross a removal key carry it: the split arc 2v -> 2v+1 in vertex mode,
    both arcs of an edge in edge mode."""
    rows, ground, edges = _keyed_rows(adj, mode)
    vertex = mode == "vertex"
    heads, to, cap0, keys = _flow_network(rows, vertex)
    tail = {a: u for u, arcs in enumerate(heads) for a in arcs}
    assert sorted(tail) == list(range(len(to))) == list(range(len(keys)))
    for a, key in enumerate(keys):
        u, w = tail[a], to[a]
        assert to[a ^ 1] == u
        if vertex:
            assert key == (u // 2 if u % 2 == 0 and w == u + 1 else -1)
        else:
            assert edges[key] == (min(u, w), max(u, w))
    assert {key for key in keys if key >= 0} == set(range(ground))


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_flow_network_arcs_carry_their_removal_keys_on_star_graphs(n, mode):
    _assert_network_invariant(StarGraph(n).adjacency_lists(), mode)


@settings(max_examples=100, deadline=None)
@given(two_path_graphs(), st.sampled_from(["vertex", "edge"]))
def test_flow_network_arcs_carry_their_removal_keys(adj, mode):
    _assert_network_invariant(adj, mode)


@pytest.mark.parametrize("mode, adj", [
    ("vertex", [[1], [0, 2], [1]]),  # a path
    ("vertex", [[1, 2], [0, 2], [0, 1, 3, 4], [2, 4], [2, 3]]),  # a cut vertex
    ("edge", [[1, 2], [0, 2], [0, 1, 3], [2, 4, 5], [3, 5], [3, 4]]),  # a bridge
    ("edge", [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]),  # two triangles
    ("vertex", [[1], [0]]),  # K2: the one path of vertex 1 is its edge
])
def test_path_family_is_not_used_below_two_paths_per_vertex(mode, adj):
    assert _family_state(adj, mode).families is None


def test_path_family_is_never_built_beyond_s5(monkeypatch):
    # the family is built only on star graphs up to S5, where its flows
    # finish in milliseconds, so S6 never builds it
    built = []
    real = oracle._path_family
    monkeypatch.setattr(oracle, "_path_family",
                        lambda *a: built.append(a[2]) or real(*a))
    oracle.exact_kappa_super(StarGraph(6), 1, SearchBudget(max_nodes=200_000))
    assert built == []


def _whole_walk_cases():
    # unbudgeted S5 with the family turned off takes minutes, so S5 runs
    # at budgets
    for n in (2, 3, 4, 5):
        for max_nodes in (50, 3000, 200_000) if n == 5 else (None, 50, 3000):
            yield n, max_nodes


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("n, max_nodes", list(_whole_walk_cases()))
def test_whole_walk_is_unchanged_by_the_path_family(monkeypatch, n, max_nodes, mode):
    # every k of the star in one walk, on 1 and 2 workers: results, node
    # and check counts, witnesses and notes must match a walk that scans
    # every base.  These levels are too small to fork a pool for; force it
    monkeypatch.setattr(oracle, "_POOL_MIN_BASES", 0)
    g = StarGraph(n)
    ks = list(range(n + 1))
    budget = SearchBudget(max_nodes=max_nodes)
    real = oracle._path_family
    used = []

    def spy(*args):
        family = real(*args)
        used.append(family is not None)
        return family

    for workers in (1, 2):
        monkeypatch.setattr(oracle, "_path_family", spy)
        fast = oracle._oracle(g, ks, mode, budget, workers, None)
        monkeypatch.setattr(oracle, "_path_family", lambda *args: None)
        slow = oracle._oracle(g, ks, mode, budget, workers, None)
        assert fast == slow, workers
    if (n, max_nodes) in ((4, None), (4, 3000), (5, 200_000)):
        assert used == [True, True]

