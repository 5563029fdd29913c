from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starcut import decomposition
from starcut import (
    InputError,
    StarGraph,
    cross_edges,
    partition_by_dimension,
    partition_by_symbol,
    parse_perm,
    perm_rank,
    perm_unrank,
    relabel_to_smaller_star,
    shrink_perm,
    validate_dimension_partition,
    validate_symbol_partition,
)
from helpers import rank_of, ranks_of


def test_partition_by_dimension_examples(s4):
    dp = partition_by_dimension(s4, 4)
    assert all(len(part) == 6 for part in dp.parts.values())
    assert dp.parts[1] == ranks_of("2431", "3421", "4321", "2341", "3241", "4231")

    s2 = StarGraph(2)
    dp2 = partition_by_dimension(s2, 2)
    assert dp2.parts[1] == [rank_of("21")]
    assert dp2.parts[2] == [rank_of("12")]

    dp_j2 = partition_by_dimension(s4, 2)
    assert dp_j2.parts[1] == ranks_of("2134", "4132", "3142", "2143", "4123", "3124")


def test_partition_by_dimension_rejects_bad_positions(s4):
    with pytest.raises(InputError):
        partition_by_dimension(s4, 1)
    with pytest.raises(InputError):
        partition_by_dimension(s4, 5)


def test_cross_edges_examples(s4, s5):
    dp = partition_by_dimension(s4, 4)
    es = cross_edges(s4, dp, 1, 2)
    expected = {
        tuple(sorted((rank_of("2431"), rank_of("1432")))),
        tuple(sorted((rank_of("2341"), rank_of("1342")))),
    }
    assert set(es) == expected

    s3 = StarGraph(3)
    dp3 = partition_by_dimension(s3, 3)
    for i1 in range(1, 4):
        for i2 in range(i1 + 1, 4):
            assert len(cross_edges(s3, dp3, i1, i2)) == 1

    dp5 = partition_by_dimension(s5, 5)
    matching = cross_edges(s5, dp5, 1, 2)
    assert len(matching) == 6
    ends = [v for e in matching for v in e]
    assert len(set(ends)) == len(ends)


def test_cross_edges_of_a_partial_partition(s5):
    dp = partition_by_dimension(s5, 5)
    full = cross_edges(s5, dp, 1, 2)
    dp.parts[1] = dp.parts[1][1:]  # one vertex left uncovered
    dp.parts[3] = []
    kept = set(dp.parts[1])
    assert cross_edges(s5, dp, 1, 2) == [e for e in full if kept & set(e)]
    assert cross_edges(s5, dp, 1, 3) == []


def test_cross_edges_rejects_equal_parts(s4):
    dp = partition_by_dimension(s4, 4)
    with pytest.raises(InputError):
        cross_edges(s4, dp, 2, 2)


def test_partition_by_symbol_examples(s4):
    sp = partition_by_symbol(s4, 1)
    assert sp.center == ranks_of("1342", "1324", "1234", "1243", "1423", "1432")
    assert sorted(sp.parts) == [2, 3, 4]
    assert all(len(p) == 6 for p in sp.parts.values())

    s2 = StarGraph(2)
    sp2 = partition_by_symbol(s2, 1)
    assert sp2.center == [rank_of("12")]
    assert sp2.parts[2] == [rank_of("21")]

    sp3 = partition_by_symbol(s4, 3)
    assert len(sp3.center) == 6
    assert all(s4.perm(v)[0] == 2 for v in sp3.center)


def test_partition_by_symbol_rejects_bad_symbol(s4):
    with pytest.raises(InputError):
        partition_by_symbol(s4, 0)
    with pytest.raises(InputError):
        partition_by_symbol(s4, 5)


def test_shrink_perm_examples():
    assert shrink_perm(parse_perm("2341"), 4, 1) == parse_perm("123")
    assert shrink_perm(parse_perm("21"), 2, 1) == (0,)
    with pytest.raises(InputError):
        shrink_perm(parse_perm("2341"), 3, 1)


def test_relabel_is_isomorphism_on_s4_part(s4):
    dp = partition_by_dimension(s4, 4)
    part = dp.parts[1]
    mapping = relabel_to_smaller_star(s4, part, 4, 1)
    small = StarGraph(3)
    assert sorted(mapping.values()) == list(range(6))
    part_set = set(part)
    seen_edges = 0
    for u in part:
        for w in s4.neighbors(u):
            if w in part_set and w > u:
                seen_edges += 1
                assert small.has_edge(mapping[u], mapping[w])
    assert seen_edges == small.num_edges


def test_relabel_rejects_center(s4):
    with pytest.raises(InputError):
        relabel_to_smaller_star(s4, [rank_of("1234")], 1, 1)


def test_relabel_preserves_non_adjacency_exhaustively():
    # bijective edge-preserving map with equal edge counts preserves
    # non-adjacency as well; verify directly on every pair anyway
    for n in (3, 4, 5, 6):
        g = StarGraph(n)
        small = StarGraph(n - 1)
        dp = partition_by_dimension(g, n)
        part = dp.parts[1]
        mapping = relabel_to_smaller_star(g, part, n, 1)
        part_adj = {u: set(g.neighbors(u)) for u in part}
        small_adj = {v: set(small.neighbors(v)) for v in set(mapping.values())}
        for u in part:
            for w in part:
                if u < w:
                    assert (w in part_adj[u]) == (mapping[w] in small_adj[mapping[u]])


@pytest.mark.parametrize("n", [5, 6])
def test_relabel_matches_rank_of_the_shrunk_permutation(n):
    g = StarGraph(n)
    for j in range(2, n + 1):
        for i, part in partition_by_dimension(g, j).parts.items():
            mapping = relabel_to_smaller_star(g, part, j, i)
            assert list(mapping) == part
            for v, r in mapping.items():
                assert r == perm_rank(shrink_perm(perm_unrank(v, n), j, i)), (j, i, v)
            sample = part[::7]
            assert relabel_to_smaller_star(g, sample, j, i) == {v: mapping[v] for v in sample}


@pytest.mark.parametrize("n", [10, 12])
def test_relabel_above_the_table_ranks_only_the_members(n):
    g = StarGraph(n)
    j, i = 3, 5
    part = [v for v in (0, 7, 5_000, 123_456, 3_000_001, factorial(n) - 1)
            if perm_unrank(v, n)[j - 1] == i - 1]
    part.append(perm_rank(tuple([0, 1, 4] + [s for s in range(n) if s not in (0, 1, 4)])))
    mapping = relabel_to_smaller_star(g, part, j, i)
    assert mapping == {v: perm_rank(shrink_perm(perm_unrank(v, n), j, i)) for v in part}
    with pytest.raises(InputError):
        relabel_to_smaller_star(g, part + [0], j, i)  # rank 0 carries symbol 3 at position 3
    with pytest.raises(InputError):
        relabel_to_smaller_star(g, part + [factorial(n)], j, i)


def test_relabel_rejects_a_foreign_member(s5):
    part = partition_by_dimension(s5, 3).parts[2]
    foreign = partition_by_dimension(s5, 3).parts[4][0]
    for bad in (foreign, 120, -1):
        with pytest.raises(InputError):
            relabel_to_smaller_star(s5, part + [bad], 3, 2)


def test_validate_dimension_partition_small():
    for n in range(2, 6):
        g = StarGraph(n)
        for j in range(2, n + 1):
            rep = validate_dimension_partition(g, j)
            assert rep.ok, rep.problems
            assert all(s == factorial(n - 1) for s in rep.part_sizes.values())
            assert all(c == factorial(n - 2) for c in rep.pair_edge_counts.values())


def test_validate_symbol_partition_small():
    for n in range(2, 6):
        g = StarGraph(n)
        for i in range(1, n + 1):
            rep = validate_symbol_partition(g, i)
            assert rep.ok, rep.problems
            assert rep.center_size == factorial(n - 1)
            assert rep.center_edge_count == 0
            assert rep.part_pair_edge_count == 0
            assert all(s == factorial(n - 1) for s in rep.matching_sizes.values())
            assert all(rep.matching_saturates.values())


@pytest.mark.parametrize("validate", [validate_dimension_partition,
                                      validate_symbol_partition])
def test_validators_reject_a_broken_relabeling(s4, monkeypatch, validate):
    def swapped(g, part, j, i):
        mapping = relabel_to_smaller_star(g, part, j, i)
        u, w = part[0], part[1]
        mapping[u], mapping[w] = mapping[w], mapping[u]
        return mapping

    monkeypatch.setattr(decomposition, "relabel_to_smaller_star", swapped)
    rep = validate(s4, 2)
    assert not rep.ok and not any(rep.iso_ok.values())
    assert any(p.startswith("part ") and "non-adjacent image" in p
               for p in rep.problems)


def test_validate_symbol_partition_s5_example(s5):
    rep = validate_symbol_partition(s5, 2)
    assert rep.ok
    assert sorted(rep.matching_sizes.values()) == [24, 24, 24, 24]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=5),
    data=st.data(),
)
def test_cross_edges_form_matching(n, data):
    g = StarGraph(n)
    j = data.draw(st.integers(min_value=2, max_value=n))
    i1 = data.draw(st.integers(min_value=1, max_value=n))
    i2 = data.draw(st.integers(min_value=1, max_value=n).filter(lambda x: x != i1))
    dp = partition_by_dimension(g, j)
    es = cross_edges(g, dp, i1, i2)
    assert len(es) == factorial(n - 2)
    ends = [v for e in es for v in e]
    assert len(set(ends)) == len(ends)
    part1, part2 = set(dp.parts[i1]), set(dp.parts[i2])
    for u, v in es:
        assert (u in part1 and v in part2) or (u in part2 and v in part1)


def test_partition_covers_everything(s5):
    dp = partition_by_dimension(s5, 3)
    all_vs = sorted(v for part in dp.parts.values() for v in part)
    assert all_vs == list(range(s5.num_vertices))
    sp = partition_by_symbol(s5, 4)
    all_vs = sorted(sp.center + [v for part in sp.parts.values() for v in part])
    assert all_vs == list(range(s5.num_vertices))
