import itertools
from math import factorial, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcut import (
    CapacityError,
    InputError,
    StarGraph,
    build_star_graph,
    components,
    edge_boundary,
    format_perm,
    induced_edges,
    induced_min_degree,
    is_k_edge_cut,
    is_k_vertex_cut,
    min_degree,
    neighborhood,
    parse_perm,
    perm_rank,
    perm_unrank,
    star_neighbors,
    unique_neighbor_report,
)
from starcut import core
from starcut.cli import _check_lines
from starcut.cuts import _verdict
from starcut.core import _PermTable, _RankArithmetic, _perms, _rank, _vertex_set
from helpers import (
    adjacency_by_permutation_loop,
    components_by_union_find,
    induced_min_degree_by_full_walk,
    min_degree_by_full_walk,
    neighbors_by_composition,
    perm_rank_reference,
    rank_of,
    ranks_of,
    vertex_set_by_member_checks,
)


def test_star_neighbors_examples():
    assert {format_perm(q, compact=True) for q in star_neighbors(parse_perm("1234"))} \
        == {"2134", "3214", "4231"}
    assert [format_perm(q, compact=True) for q in star_neighbors(parse_perm("12"))] == ["21"]
    assert {format_perm(q, compact=True) for q in star_neighbors(parse_perm("3412"))} \
        == {"4312", "1432", "2413"}


def test_star_neighbors_order_is_by_swap_position():
    got = [format_perm(q, compact=True) for q in star_neighbors(parse_perm("1234"))]
    assert got == ["2134", "3214", "4231"]


def test_star_neighbors_matches_composition_oracle():
    for n in range(2, 6):
        for p in itertools.permutations(range(n)):
            assert star_neighbors(p) == neighbors_by_composition(p)


def test_perm_parse_and_format():
    assert parse_perm("3,4,1,2") == (2, 3, 0, 1)
    assert parse_perm("3412") == (2, 3, 0, 1)
    assert format_perm((2, 3, 0, 1)) == "3,4,1,2"
    assert format_perm((2, 3, 0, 1), compact=True) == "3412"
    with pytest.raises(InputError):
        parse_perm("1224")
    with pytest.raises(InputError):
        parse_perm("0123")
    with pytest.raises(InputError):
        parse_perm("abc")
    with pytest.raises(InputError):
        format_perm(tuple(range(10)), compact=True)


def test_rank_boundary_values():
    for n in range(1, 9):
        assert perm_rank(tuple(range(n))) == 0
        assert perm_rank(tuple(reversed(range(n)))) == factorial(n) - 1
    assert perm_unrank(perm_rank(parse_perm("2431")), 4) == parse_perm("2431")


def test_rank_unrank_bijective_exhaustive():
    # lexicographic enumeration order has to match the rank order, up to n = 8
    for n in range(1, 9):
        for r, p in enumerate(itertools.permutations(range(n))):
            assert perm_rank(p) == r
            assert perm_unrank(r, n) == p


def test_linear_rank_matches_the_quadratic_rank_exhaustively():
    for n in range(1, 8):
        for p in itertools.permutations(range(n)):
            assert _rank(p) == perm_rank_reference(p), p


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.permutations(range(n))))
def test_linear_rank_matches_the_quadratic_rank_up_to_s20(p):
    p = tuple(p)
    assert _rank(p) == perm_rank(p) == perm_rank_reference(p)
    assert perm_unrank(_rank(p), len(p)) == p


def test_perm_rank_still_validates():
    for bad in ((0, 0), (1, 2), (0, 2, 1, 2)):
        with pytest.raises(InputError):
            perm_rank(bad)


@pytest.mark.parametrize("n", range(1, 10))
def test_labels_match_format_perm(n):
    # every vertex up to S8, every 7th of S9; both back ends, both forms
    table, arithmetic = _PermTable(n), _RankArithmetic(n)
    assert _perms(n).label(0) == table.label(0)
    for v in range(0, factorial(n), 7 if n == 9 else 1):
        p = perm_unrank(v, n)
        for compact in (False, True):
            want = format_perm(p, compact)
            assert table.label(v, compact) == want, (v, compact)
            assert arithmetic.label(v, compact) == want, (v, compact)


def test_labels_above_the_table():
    g = StarGraph(10)
    assert isinstance(_perms(10), _RankArithmetic)
    for v in (0, 1, 362_880, factorial(10) - 1):
        assert g.label(v) == _perms(10).label(v) == format_perm(perm_unrank(v, 10))
        with pytest.raises(InputError):
            _perms(10).label(v, compact=True)
    with pytest.raises(InputError):
        g.label(factorial(10))
    with pytest.raises(InputError):
        StarGraph(4).label(24, compact=True)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_symbols_by_position_matches_the_direct_count(n):
    import random

    rng = random.Random(n)
    count = factorial(n)
    perms = [perm_unrank(v, n) for v in range(count)]
    table = _PermTable(n)
    half = count // 2
    sizes = sorted({0, 1, half - 1, half, half + 1, count - 1, count}
                   | {rng.randrange(count + 1) for _ in range(40)})
    cases = [set(rng.sample(range(count), size)) for size in sizes for _ in range(3)]
    # random sets miss no symbol anywhere once they hold half the graph;
    # these miss symbol s at position j, and a few more vertices
    for j, s in ((0, 0), (n - 1, n - 1), (1, n // 2)):
        missing = set(range(count)) - set(table.carrying(j, s))
        cases += [missing, missing - set(rng.sample(sorted(missing), 5))]
    for xs in cases:
        want = [{perms[v][j] for v in xs} for j in range(n)]
        assert table.symbols_by_position(xs) == want, xs
        assert _RankArithmetic(n).symbols_by_position(xs) == want


def test_unrank_range_errors():
    with pytest.raises(InputError):
        perm_unrank(-1, 3)
    with pytest.raises(InputError):
        perm_unrank(6, 3)
    with pytest.raises(InputError):
        perm_unrank(0, 0)


def test_graph_counts_and_modes():
    g1 = build_star_graph(1)
    assert g1.num_vertices == 1 and g1.num_edges == 0
    g4 = StarGraph(4)
    assert (g4.num_vertices, g4.num_edges, g4.degree) == (24, 36, 3)
    assert StarGraph(9).mode == "materialized"
    assert StarGraph(10).mode == "implicit"
    # the adjacency is built from the permutation table, which stops at 9
    for n in (10, 12, 13):
        with pytest.raises(CapacityError, match="permutation table"):
            StarGraph(n, mode="materialized")
    assert StarGraph(12, mode="implicit").mode == "implicit"
    with pytest.raises(CapacityError):
        StarGraph(21)
    with pytest.raises(InputError):
        StarGraph(4, mode="compressed")
    with pytest.raises(InputError):
        StarGraph(0)


def test_s3_is_a_six_cycle(s3):
    assert s3.num_vertices == 6
    assert all(len(s3.neighbors(v)) == 2 for v in range(6))
    assert len(components(s3)) == 1


@pytest.mark.parametrize("n", range(1, 9))
def test_bulk_build_matches_the_permutation_loop(n, monkeypatch):
    monkeypatch.setattr(core, "_ADJACENCY", {})  # a fresh build, not the cache
    assert StarGraph(n)._adj == adjacency_by_permutation_loop(n)


def test_every_materialized_graph_shares_one_adjacency_per_n():
    for n in range(1, 10):
        g = StarGraph(n)
        assert g._adj is StarGraph(n, mode="materialized")._adj
        assert g._adj is build_star_graph(n)._adj


def test_the_shared_adjacency_is_read_only():
    g = StarGraph(5)
    with pytest.raises(TypeError):
        g._adj[0] = 1
    assert g._adj.readonly


def test_implicit_graphs_keep_no_adjacency():
    assert StarGraph(5, mode="implicit")._adj is None
    assert StarGraph(10)._adj is None


def test_check_materializes_each_star_at_most_once(monkeypatch):
    # the partition validators ask for S5 and the substar cuts for S1..S5
    # again and again; only the first request of each n builds
    monkeypatch.setattr(core, "_ADJACENCY", {})
    builds = []
    build = core._build_adjacency

    def counting_build(n):
        builds.append(n)
        return build(n)

    monkeypatch.setattr(core, "_build_adjacency", counting_build)
    checks = _check_lines(StarGraph(6), seed=0, samples=0)
    assert all(ok for _, ok, _ in checks)
    assert sorted(builds) == sorted(set(builds))
    assert 5 in builds and 6 in builds


def test_bulk_build_of_s9_matches_rank_arithmetic():
    import random

    g = StarGraph(9)
    assert len(g._adj) == factorial(9) * 8
    ranks = random.Random(9).sample(range(factorial(9)), 300) + [0, factorial(9) - 1]
    for v in ranks:
        assert g.neighbors(v) == [perm_rank(q) for q in star_neighbors(perm_unrank(v, 9))]


def test_implicit_and_materialized_agree():
    # implicit rows rank each swap of the validated row with no second check
    for n in range(4, 8):
        gm = StarGraph(n, mode="materialized")
        gi = StarGraph(n, mode="implicit")
        for v in range(gm.num_vertices):
            assert gm.neighbors(v) == gi.neighbors(v), (n, v)


@pytest.mark.parametrize("mode", ["materialized", "implicit"])
def test_perm_table_matches_rank_arithmetic(mode):
    for n in range(1, 8):
        g = StarGraph(n, mode=mode)
        for v in range(g.num_vertices):
            assert g.perm(v) == perm_unrank(v, n), (n, v)
    with pytest.raises(InputError):
        StarGraph(4).perm(24)


def test_perm_above_the_table_uses_rank_arithmetic():
    g = StarGraph(10)
    for v in (0, 1, 362_880, factorial(10) - 1):
        assert g.perm(v) == perm_unrank(v, 10)
    with pytest.raises(InputError):
        g.perm(factorial(10))


def test_primitives_agree_between_materialized_and_implicit():
    import random

    gm = StarGraph(5, mode="materialized")
    gi = StarGraph(5, mode="implicit")
    rng = random.Random(7)
    all_edges = list(gm.edges())
    for _ in range(25):
        xs = rng.sample(range(120), rng.randrange(1, 60))
        es = rng.sample(all_edges, rng.randrange(0, 40))
        assert components(gm, xs, es) == components(gi, xs, es)
        assert min_degree(gm, xs, es) == min_degree(gi, xs, es)
        assert induced_min_degree(gm, xs) == induced_min_degree(gi, xs)
        assert neighborhood(gm, xs) == neighborhood(gi, xs)
        assert edge_boundary(gm, xs) == edge_boundary(gi, xs)
        assert induced_edges(gm, xs) == induced_edges(gi, xs)
        assert unique_neighbor_report(gm, xs) == unique_neighbor_report(gi, xs)


@pytest.mark.parametrize("mode", ["materialized", "implicit"])
@pytest.mark.parametrize("n", [5, 6])
def test_min_degree_matches_the_full_walk(n, mode):
    import random

    g = StarGraph(n, mode=mode)
    total = g.num_vertices
    all_edges = list(g.edges())
    rng = random.Random(n)

    def agree(xs, es):
        assert min_degree(g, xs, es) == min_degree_by_full_walk(g, xs, es), (xs, es)

    for _ in range(40):
        xs = rng.sample(range(total), rng.randrange(0, total // 4))
        es = rng.sample(all_edges, rng.randrange(0, 3 * n))
        # edges that touch removed vertices, both orientations, duplicates
        es += [(w, u) for u in xs[:3] for w in g.neighbors(u)[:2]]
        es += [(v, u) for u, v in es[:4]] + es[:2]
        # pairs that are no edge of g
        es += [(u, w) for u, w in zip(rng.sample(range(total), 5), rng.sample(range(total), 5))
               if not g.has_edge(u, w)]
        agree(xs, es)
    # vertex 0 loses every edge, then every neighbour
    agree([], [(0, w) for w in g.neighbors(0)])
    agree(g.neighbors(0), [])
    everything = list(range(total))
    for survivor in (0, total - 1):
        agree(everything[:survivor] + everything[survivor + 1:], [])
    assert min_degree(g, everything) == inf == min_degree_by_full_walk(g, everything)
    assert min_degree(g, everything, all_edges[:3]) == inf


def test_min_degree_is_local_to_the_removal():
    # the full walk visits all 10! vertices of the implicit graph
    import time

    g = StarGraph(10)
    t0 = time.monotonic()
    assert min_degree(g, [0]) == 8
    assert min_degree(g, [], [(0, g.neighbors(0)[0])]) == 8
    assert time.monotonic() - t0 < 1


_GRAPHS = {(n, mode): StarGraph(n, mode=mode)
           for n in (5, 6) for mode in ("materialized", "implicit")}


@pytest.mark.parametrize("mode", ["materialized", "implicit"])
@pytest.mark.parametrize("n", [5, 6])
def test_induced_min_degree_matches_the_full_walk(n, mode):
    import random

    g = _GRAPHS[n, mode]
    total = g.num_vertices
    rng = random.Random(n)

    def agree(xs):
        assert induced_min_degree(g, xs) == induced_min_degree_by_full_walk(g, xs)

    # either side of the half-way switch, the ends, and the empty set
    for size in (total // 2 - 1, total // 2, total // 2 + 1, total - 1, total, 1, 0):
        for _ in range(3):
            xs = rng.sample(range(total), size)
            agree(xs)
            agree(xs + xs[: size // 3])  # duplicates
            assert induced_min_degree(g, iter(xs)) == induced_min_degree(g, xs)
    # a substar, its complement, and the complement of one vertex's closed
    # neighbourhood, where the vertices two steps from it keep degree n-2
    star = [v for v in range(total) if g.perm(v)[-1] == 0]
    agree(star)
    agree(sorted(set(range(total)) - set(star)))
    agree(sorted(set(range(total)) - {0, *g.neighbors(0)}))
    assert induced_min_degree(g, []) == inf
    assert induced_min_degree(g, range(total)) == g.degree


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([5, 6]), mode=st.sampled_from(["materialized", "implicit"]),
       data=st.data())
def test_induced_min_degree_on_drawn_sets(n, mode, data):
    g = _GRAPHS[n, mode]
    total = g.num_vertices
    picked = data.draw(st.lists(st.integers(0, total - 1), max_size=60))
    if data.draw(st.booleans()):  # the large side: all but the picked ranks
        dropped = set(picked)
        picked = [v for v in range(total) if v not in dropped]
    expected = induced_min_degree_by_full_walk(g, picked)
    assert induced_min_degree(g, picked) == expected
    assert induced_min_degree(g, (v for v in picked)) == expected


def test_vertex_set_errors_match_one_check_per_member():
    g = _GRAPHS[5, "materialized"]
    total = g.num_vertices
    inputs = [[-1], [total], [3, -2, 7], [0, total, 5], [total, -1], [-1, total],
              {total + 4, -3, 2}, [total - 1, total], range(-2, 3)]
    for vertices in inputs:
        with pytest.raises(InputError) as expected:
            vertex_set_by_member_checks(g, vertices)
        with pytest.raises(InputError) as got:
            _vertex_set(g, vertices)
        assert str(got.value) == str(expected.value), vertices
        with pytest.raises(InputError) as got:
            _vertex_set(g, (v for v in vertices))
        assert str(got.value) == str(expected.value), vertices
    assert str(expected.value).startswith("vertex rank ")
    for vertices in ([], [0, 0, total - 1], range(total)):
        assert _vertex_set(g, iter(vertices)) == vertex_set_by_member_checks(g, vertices)


def test_neighbor_relation_symmetric_and_regular():
    for n in range(2, 9):
        g = StarGraph(n)
        rows = g.adjacency_lists()
        for v, nbrs in enumerate(rows):
            assert len(nbrs) == n - 1
            assert all(v in rows[w] for w in nbrs)


def test_edges_differ_in_first_and_one_other_position():
    for n in range(2, 8):
        g = StarGraph(n)
        for u, v in g.edges():
            pu, pv = g.perm(u), g.perm(v)
            diff = [i for i in range(n) if pu[i] != pv[i]]
            assert len(diff) == 2 and diff[0] == 0
            assert pu[0] == pv[diff[1]] and pu[diff[1]] == pv[0]


def test_has_edge(s4):
    assert s4.has_edge(rank_of("1234"), rank_of("2134"))
    assert not s4.has_edge(rank_of("1234"), rank_of("1243"))
    assert not s4.has_edge(rank_of("1234"), rank_of("1234"))


def test_components_whole_graph(s4):
    comps = components(s4)
    assert [len(c) for c in comps] == [24]


def test_components_antipodal_pair_on_cycle(s3):
    # opposite vertices of the 6-cycle leave two paths of two vertices
    cycle = [0]
    prev = None
    while len(cycle) < 6:
        nxt = [w for w in s3.neighbors(cycle[-1]) if w != prev]
        prev = cycle[-1]
        cycle.append(nxt[0])
    removed = [cycle[0], cycle[3]]
    comps = components(s3, removed_vertices=removed)
    assert sorted(len(c) for c in comps) == [2, 2]


def test_components_after_removing_constructed_cut(s4):
    t = ranks_of("1432", "1342", "2413", "2314")
    comps = components(s4, removed_vertices=t)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [2, 18]
    small = next(c for c in comps if len(c) == 2)
    assert small == ranks_of("3412", "4312")


def test_components_with_removed_edges(s3):
    v = 0
    cut = [(v, w) for w in s3.neighbors(v)]
    comps = components(s3, removed_edges=cut)
    assert sorted(len(c) for c in comps) == [1, 5]


def test_min_degree(s4):
    assert min_degree(s4) == 3
    assert min_degree(s4, removed_vertices=range(24)) == inf
    v = 0
    assert min_degree(s4, removed_vertices=s4.neighbors(v)) == 0


def test_neighborhood_example(s4):
    x = ranks_of("3412", "4312")
    assert neighborhood(s4, x) == ranks_of("1432", "2413", "1342", "2314")


def test_edge_boundary_example(s4):
    x = ranks_of("3412", "4312")
    assert len(edge_boundary(s4, x)) == 4


def test_vertex_rank_validation(s4):
    with pytest.raises(InputError):
        components(s4, removed_vertices=[24])
    with pytest.raises(InputError):
        neighborhood(s4, [-1])


@st.composite
def graph_and_subset(draw, max_n=5):
    n = draw(st.integers(min_value=2, max_value=max_n))
    g = StarGraph(n)
    size = draw(st.integers(min_value=0, max_value=g.num_vertices))
    xs = draw(st.permutations(range(g.num_vertices)))[:size]
    return g, sorted(xs)


@settings(max_examples=60, deadline=None)
@given(graph_and_subset())
def test_edge_boundary_degree_identity(gx):
    g, xs = gx
    boundary = edge_boundary(g, xs)
    inner = induced_edges(g, xs)
    assert len(boundary) == len(xs) * g.degree - 2 * len(inner)


def test_edge_boundary_degree_identity_n6(s6):
    import random

    rng = random.Random(42)
    for _ in range(40):
        xs = rng.sample(range(s6.num_vertices), rng.randrange(1, 721))
        boundary = edge_boundary(s6, xs)
        inner = induced_edges(s6, xs)
        assert len(boundary) == len(xs) * s6.degree - 2 * len(inner)


@settings(max_examples=40, deadline=None)
@given(graph_and_subset(max_n=4))
def test_components_partition_survivors(gx):
    g, xs = gx
    comps = components(g, removed_vertices=xs)
    seen = [v for comp in comps for v in comp]
    assert sorted(seen) == sorted(set(range(g.num_vertices)) - set(xs))
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)


@settings(max_examples=30, deadline=None)
@given(graph_and_subset(max_n=4))
def test_components_match_union_find_oracle(gx):
    g, xs = gx
    edges = list(g.edges())
    assert components(g, removed_vertices=xs) == components_by_union_find(
        g.num_vertices, edges, removed_vertices=xs
    )


@settings(max_examples=40, deadline=None)
@given(graph_and_subset(max_n=4))
def test_neighborhood_disjoint_and_adjacent(gx):
    g, xs = gx
    hood = neighborhood(g, xs)
    xset = set(xs)
    assert not xset & set(hood)
    for v in hood:
        assert any(w in xset for w in g.neighbors(v))


@st.composite
def messy_removals(draw):
    """A removal on materialized or implicit S4 or S5, with removed edges
    in both orientations, repeated, touching removed vertices, and pairs
    that are no edge.  Half the cases isolate a vertex by its incident
    edges or a small set by its neighbours, since random removals rarely
    disconnect."""
    g = StarGraph(draw(st.sampled_from([4, 5])),
                  draw(st.sampled_from(["materialized", "implicit"])))
    num = g.num_vertices
    vertex = st.integers(0, num - 1)
    removed_v = draw(st.lists(vertex, max_size=8))
    edges = list(g.edges())
    removed_e = draw(st.lists(st.sampled_from(edges), max_size=12))
    if draw(st.booleans()):
        v = draw(vertex)
        if draw(st.booleans()):
            removed_e += [(v, w) for w in g.neighbors(v)]
        else:
            removed_v += g.neighbors(v)
    removed_e += draw(st.lists(st.tuples(vertex, vertex), max_size=4))  # mostly no edge
    removed_e += [e[::-1] for e in draw(st.lists(st.sampled_from(removed_e or edges),
                                                 max_size=6))]
    removed_e += [e for e in edges if e[0] in removed_v][:3]
    return g, removed_v, draw(st.permutations(removed_e))


@settings(max_examples=200, deadline=None)
@given(messy_removals())
def test_components_with_removed_edges_match_union_find(case):
    g, removed_v, removed_e = case
    want = components_by_union_find(g.num_vertices, g.edges(), removed_v, removed_e)
    assert components(g, removed_v, removed_e) == want


@settings(max_examples=200, deadline=None)
@given(messy_removals(), st.integers(0, 4))
def test_verdicts_with_removed_edges_match_union_find(case, k):
    g, removed_v, removed_e = case
    real = [e for e in removed_e if g.has_edge(*e)]
    rv, keys = set(removed_v), {tuple(sorted(e)) for e in real}
    checks = [("edge", set(), real, is_k_edge_cut(g, real, k))]
    if len(rv) < g.num_vertices:
        checks.append(("vertex", rv, [], is_k_vertex_cut(g, removed_v, k)))
        checks.append(("vertex", rv, real, _verdict(g, "vertex", k, rv, keys)))
    for mode, vs, es, verdict in checks:
        comps = components_by_union_find(g.num_vertices, g.edges(), vs, es)
        mind = min_degree_by_full_walk(g, vs, es)
        assert verdict.component_sizes == [len(c) for c in comps]
        assert verdict.min_surviving_degree == mind
        survivors = g.num_vertices - len(vs)
        disconnected = len(comps) >= 2 or (mode == "vertex" and survivors < 2)
        assert verdict.valid == (disconnected and mind >= k)
    pairs = [e for e in removed_e if not g.has_edge(*e)]
    if pairs:
        with pytest.raises(InputError, match="is not an edge of the graph"):
            is_k_edge_cut(g, real + pairs, k)
