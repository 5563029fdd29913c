import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcut import (
    InputError,
    StarGraph,
    cut_size_formula,
    is_k_edge_cut,
    is_k_vertex_cut,
    partition_by_dimension,
    relabel_to_smaller_star,
    sample_connected_subgraph,
    sample_min_degree_subgraphs,
    substar_iso_ok,
    substar_isolating_cut,
    symbol_profile,
    unique_neighbor_report,
    verify_witness_exhaustive,
    witness_position,
)
from starcut.core import _iso_problem, induced_min_degree, perm_unrank
from helpers import (
    rank_of,
    ranks_of,
    sample_connected_subgraph_reference,
    sample_min_degree_subgraphs_reference,
)


def test_construction_n4_k1(s4):
    cut = substar_isolating_cut(4, 1, graph=s4)
    assert cut.x == ranks_of("3412", "4312")
    assert cut.t == ranks_of("1432", "1342", "2413", "2314")
    assert len(cut.f) == 4 == cut.formula


def test_construction_n4_k2(s4):
    cut = substar_isolating_cut(4, 2, graph=s4)
    assert all(s4.perm(v)[3] == 0 for v in cut.x) and len(cut.x) == 6
    assert all(s4.perm(v)[0] == 0 for v in cut.t) and len(cut.t) == 6
    assert len(cut.f) == 6 == cut_size_formula(4, 2)


def test_construction_k0_isolates_one_vertex():
    for n in range(2, 7):
        cut = substar_isolating_cut(n, 0)
        assert len(cut.x) == 1
        g = StarGraph(n)
        p = g.perm(cut.x[0])
        assert p[0] == n - 1 and p[1:] == tuple(range(n - 1))
        assert len(cut.t) == n - 1


def test_construction_rejects_out_of_range_k():
    with pytest.raises(InputError):
        substar_isolating_cut(4, -1)
    with pytest.raises(InputError):
        substar_isolating_cut(4, 3)
    with pytest.raises(InputError):
        substar_isolating_cut(1, 0)


def test_construction_substar_is_isomorphic():
    for n in range(2, 7):
        g = StarGraph(n)
        for k in range(0, n - 1):
            cut = substar_isolating_cut(n, k, graph=g)
            assert substar_iso_ok(g, cut.x, k)
            assert len(cut.t) == len(cut.f) == cut_size_formula(n, k)


def test_substar_iso_rejects_non_substars(s4):
    # k=1: X must be two vertices sharing a suffix, with symbols 3,4 up front
    assert substar_iso_ok(s4, ranks_of("3412", "4312"), 1)
    assert not substar_iso_ok(s4, ranks_of("3412"), 1)
    assert not substar_iso_ok(s4, ranks_of("3412", "4321"), 1)
    assert not substar_iso_ok(s4, ranks_of("1234", "2134"), 1)


def test_iso_problem_names_a_broken_edge(s4):
    part = partition_by_dimension(s4, 4).parts[4]  # an induced 6-cycle
    mapping = relabel_to_smaller_star(s4, part, 4, 4)
    small = StarGraph(3)
    assert _iso_problem(s4, small, part, mapping) is None
    u, w = part[0], part[1]
    mapping[u], mapping[w] = mapping[w], mapping[u]
    problem = _iso_problem(s4, small, part, mapping)
    assert problem.startswith("edge (") and problem.endswith("has non-adjacent image")
    a, b = map(int, problem[len("edge ("):problem.index(")")].split(","))
    assert a in part and b in part and s4.has_edge(a, b)
    mapping[u] = mapping[w]
    assert "not a bijection" in _iso_problem(s4, small, part, mapping)


def test_vertex_cut_verdict_for_construction(s4):
    cut = substar_isolating_cut(4, 1, graph=s4)
    verdict = is_k_vertex_cut(s4, cut.t, 1)
    assert verdict.valid and verdict.reason == "ok"
    assert sorted(verdict.component_sizes) == [2, 18]
    assert verdict.min_surviving_degree >= 1


def test_single_vertex_is_not_a_cut(s4):
    verdict = is_k_vertex_cut(s4, [rank_of("1234")], 0)
    assert not verdict.valid and verdict.reason == "not-disconnected"


def test_two_incident_edges_cut_the_cycle(s3):
    v = rank_of("123")
    cut = [(v, w) for w in s3.neighbors(v)]
    verdict = is_k_edge_cut(s3, cut, 0)
    assert verdict.valid and sorted(verdict.component_sizes) == [1, 5]


def test_edge_cut_degree_failure(s3):
    v = rank_of("123")
    cut = [(v, w) for w in s3.neighbors(v)]
    verdict = is_k_edge_cut(s3, cut, 1)
    assert not verdict.valid and verdict.reason == "degree-below-k"


def test_cut_verdict_input_validation(s4):
    with pytest.raises(InputError):
        is_k_vertex_cut(s4, range(24), 0)
    with pytest.raises(InputError):
        is_k_edge_cut(s4, [(rank_of("1234"), rank_of("1243"))], 0)
    with pytest.raises(InputError):
        is_k_vertex_cut(s4, [0], -1)


def test_trivial_remainder_counts_as_disconnected():
    # removing one endpoint of the 2-dimensional star graph leaves a single
    # vertex; by the complete-graph convention that is a valid 0-cut
    g = StarGraph(2)
    verdict = is_k_vertex_cut(g, [rank_of("12")], 0)
    assert verdict.valid and verdict.component_sizes == [1]


def test_symbol_profile_example():
    xs = ranks_of("3412", "4312")
    profile = symbol_profile(4, xs)
    assert profile.U[1] == frozenset({3, 4})
    assert profile.U[2] == frozenset({3, 4})
    assert profile.U[3] == frozenset({1})
    assert profile.U[4] == frozenset({2})
    assert profile.W[1] == frozenset({3})
    assert profile.W[2] == frozenset({4})
    assert profile.W[3] == frozenset({2})
    assert profile.W[4] == frozenset({2})
    assert profile.position_sum() == 4 == profile.symbol_sum()
    assert profile.duality_ok()


def test_symbol_profile_full_graph(s4):
    profile = symbol_profile(4, range(24))
    assert all(profile.U[j] == frozenset({1, 2, 3, 4}) for j in range(1, 5))


def test_symbol_profile_singleton():
    profile = symbol_profile(4, [rank_of("1234")])
    assert all(len(profile.U[j]) == 1 for j in range(1, 5))
    with pytest.raises(InputError):
        symbol_profile(4, [])


def test_witness_position_examples(s4):
    hexagon = partition_by_dimension(s4, 4).parts[1]
    assert witness_position(s4, hexagon, 2) == 2
    assert witness_position(s4, ranks_of("3412", "4312"), 1) == 2
    assert witness_position(s4, range(24), 3) == 2


def test_witness_position_precondition(s4):
    with pytest.raises(InputError):
        witness_position(s4, ranks_of("1234", "4321"), 1)
    with pytest.raises(InputError):
        witness_position(s4, [], 1)


def test_unique_neighbor_reports():
    for n, k in [(4, 1), (4, 2), (5, 1)]:
        g = StarGraph(n)
        cut = substar_isolating_cut(n, k, graph=g)
        rep = unique_neighbor_report(g, cut.x)
        assert rep.ok
        assert rep.max_outside_count == 1
        assert set(rep.boundary_counts) == set(cut.t)
        assert all(c == 1 for c in rep.boundary_counts.values())


def test_witness_exhaustive_s4(s4):
    for k in (1, 2):
        rep = verify_witness_exhaustive(s4, k)
        assert rep.ok
        assert rep.boxes_checked == (4 if k == 1 else 10) ** 3


def test_witness_exhaustive_guards(s4):
    with pytest.raises(InputError):
        verify_witness_exhaustive(s4, 0)
    with pytest.raises(InputError):
        verify_witness_exhaustive(StarGraph(6), 3, box_limit=10)


def test_sampler_yields_connected_sets(s5):
    rng = random.Random(7)
    from starcut import components

    for _ in range(25):
        xs = sample_connected_subgraph(s5, rng, rng.randrange(1, 121))
        # connectivity of the induced subgraph via the library BFS, after
        # removing everything else
        rest = sorted(set(range(120)) - set(xs))
        comps = components(s5, removed_vertices=rest)
        assert len(comps) == 1


@pytest.mark.parametrize("mode", ["materialized", "implicit"])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_sampler_matches_the_reference(n, mode):
    # the sampler draws its boundary indices with getrandbits as randrange
    # does; the reference calls randrange, so equal sets and equal final
    # states pin the draw, its bit count and its rejection loop
    g = StarGraph(n, mode=mode)
    total = g.num_vertices
    sizes = random.Random(n)
    for seed in range(50 if n < 7 else 4):
        # small, middling and near-total targets, as check draws them; on
        # S7 only near-total ones, whose boundary grows to about 2,700
        # vertices and shrinks again, through every power of two below it
        if n < 7:
            size = sizes.choice([sizes.randrange(1, 10), sizes.randrange(1, total + 1),
                                 total - sizes.randrange(0, 4 * n + 1), total + 5])
        else:
            size = total - sizes.randrange(0, 4 * n + 1)
        ours, ref = random.Random(seed), random.Random(seed)
        got = sample_connected_subgraph(g, ours, size)
        assert got == sample_connected_subgraph_reference(g, ref, size), (seed, size)
        assert ours.getstate() == ref.getstate(), (seed, size)
        assert type(got) is list and len(got) == min(size, total)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_min_degree_sampler_matches_the_reference(n):
    # check's sampled suite: k = 1..3 from one generator, in this order
    g = StarGraph(n)
    ours, ref = random.Random(n), random.Random(n)
    for k in range(1, 4):
        got = sample_min_degree_subgraphs(g, k, 40, ours)
        assert got == sample_min_degree_subgraphs_reference(g, k, 40, ref), k
        assert ours.getstate() == ref.getstate(), k


def test_min_degree_sampler_input_checks(s4):
    rng = random.Random(0)
    for k in (-1, 24, 30):
        with pytest.raises(InputError, match=f"got k={k}$"):
            sample_min_degree_subgraphs(s4, k, 5, rng)
    with pytest.raises(InputError, match="draws must be >= 0, got -1"):
        sample_min_degree_subgraphs(s4, 1, -1, rng)
    assert sample_min_degree_subgraphs(s4, 1, 0, rng) == ([], 0)
    # k = N-1 asks for the whole graph, which S4 does not have (degree 3)
    assert sample_min_degree_subgraphs(s4, 23, 2, rng) == ([], 2)
    assert sample_min_degree_subgraphs(StarGraph(2), 1, 3, rng) == ([[0, 1]] * 3, 3)


def test_sampled_witness_and_first_symbol_spread(s5):
    rng = random.Random(11)
    kept, draws = sample_min_degree_subgraphs(s5, 2, 150, rng)
    assert draws == 150 and kept
    for xs in kept:
        j = witness_position(s5, xs, 2)
        assert 2 <= j <= 5
        profile = symbol_profile(5, xs)
        for v in xs:
            first = perm_unrank(v, 5)[0] + 1
            assert len(profile.W[first]) >= 2


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=5),
    data=st.data(),
)
def test_profile_duality_and_sum_identity(n, data):
    g = StarGraph(n)
    size = data.draw(st.integers(min_value=1, max_value=g.num_vertices))
    xs = data.draw(st.permutations(range(g.num_vertices)))[:size]
    profile = symbol_profile(n, xs)
    assert profile.duality_ok()
    assert profile.position_sum() == profile.symbol_sum()


def _profile_by_unranking(n, xs):
    """U and W built one unranked permutation at a time."""
    U = {j: set() for j in range(1, n + 1)}
    W = {i: set() for i in range(1, n + 1)}
    for v in xs:
        for pos, s in enumerate(perm_unrank(v, n), start=1):
            U[pos].add(s + 1)
            if pos >= 2:
                W[s + 1].add(pos)
    return U, W


@settings(max_examples=80, deadline=None)
@given(n=st.integers(min_value=1, max_value=7), data=st.data())
def test_symbol_profile_matches_unranking(n, data):
    size = data.draw(st.integers(min_value=1, max_value=min(40, factorial(n))))
    xs = data.draw(st.lists(st.integers(0, factorial(n) - 1), min_size=1, max_size=size))
    profile = symbol_profile(n, xs)
    U, W = _profile_by_unranking(n, xs)
    assert profile.U == U and profile.W == W
    assert profile.size == len(set(xs))


def test_symbol_profile_above_the_table_matches_unranking():
    xs = [0, 1, 12_345, 3_000_000, factorial(10) - 1]
    profile = symbol_profile(10, xs)
    assert (profile.U, profile.W) == _profile_by_unranking(10, xs)


def test_symbol_profile_above_the_table_unranks_each_vertex_once(monkeypatch):
    from starcut import core

    calls = []

    def counted(r, n):
        calls.append(r)
        return perm_unrank(r, n)

    monkeypatch.setattr(core, "perm_unrank", counted)
    xs = [5, 77, 40_000, 1_000_000]
    assert (symbol_profile(10, xs).U, symbol_profile(10, xs).W) == _profile_by_unranking(10, xs)
    assert sorted(calls) == sorted(xs * 2)


def test_symbol_profile_rejects_out_of_range_ranks():
    for xs in ([24], [-1], [0, 3, 24]):
        with pytest.raises(InputError):
            symbol_profile(4, xs)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(min_value=0, max_value=2), data=st.data())
def test_witness_position_never_fails_on_valid_subgraphs(k, data, s4):
    seed = data.draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    kept, _ = sample_min_degree_subgraphs(s4, k, 20, rng)
    for xs in kept:
        assert induced_min_degree(s4, xs) >= k
        assert 2 <= witness_position(s4, xs, k) <= 4


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([4, 5]), k=st.integers(min_value=0, max_value=3),
       seed=st.integers(min_value=0, max_value=10_000))
def test_witness_rule_has_one_body(n, k, seed):
    # check reads the rule from the sample's profile; witness_position
    # re-validates and recomputes the profile, and must agree
    g = StarGraph(n)
    kept, _ = sample_min_degree_subgraphs(g, k, 15, random.Random(seed))
    for xs in kept:
        assert symbol_profile(n, xs).witness(k) == witness_position(g, xs, k)


def test_profile_witness_is_none_without_a_wide_position():
    single = symbol_profile(4, [rank_of("1234")])
    assert single.witness(0) == 2
    assert single.witness(1) is None
    assert symbol_profile(4, range(24)).witness(3) == 2
