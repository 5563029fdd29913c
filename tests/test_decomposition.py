import dataclasses
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


def _rewired(n, a, b):
    """S_n whose rows name vertex a as b and b as a: a graph isomorphic to
    S_n on which both partitions of S_n break."""
    g = StarGraph(n)
    row = g._row
    name = list(range(g.num_vertices))
    name[a], name[b] = b, a
    g._row = lambda v: [name[w] for w in row(name[v])]
    return g


# Every edge-structure check fires here: pair counts and disjointness for the
# dimension split; center edges, part-pair edges and each matching's counts
# for the symbol split.
REWIRED_REPORTS = {
    (4, 0, 23): (
        {"n": 4, "j": 2, "ok": False,
         "part_sizes": {1: 6, 2: 6, 3: 6, 4: 6},
         "iso_ok": {1: True, 2: False, 3: False, 4: True},
         "pair_edge_counts": {(1, 2): 1, (1, 3): 3, (1, 4): 2, (2, 3): 6, (2, 4): 3, (3, 4): 1},
         "problems": ["part 2: induced edge count 4 != 6",
                      "part 3: induced edge count 4 != 6",
                      "parts (1,2) joined by 1 edges, expected 2",
                      "parts (1,3) joined by 3 edges, expected 2",
                      "parts (2,3) joined by 6 edges, expected 2",
                      "edges between parts (2,3) are not disjoint",
                      "parts (2,4) joined by 3 edges, expected 2",
                      "parts (3,4) joined by 1 edges, expected 2"]},
        {"n": 4, "i": 1, "ok": False, "center_size": 6, "center_edge_count": 1,
         "iso_ok": {2: True, 3: True, 4: False},
         "matching_sizes": {2: 5, 3: 5, 4: 6},
         "matching_saturates": {2: False, 3: False, 4: False},
         "part_pair_edge_count": 2,
         "problems": ["part 4: edge (21,23) has non-adjacent image",
                      "center induces 1 edges, expected none",
                      "2 edges join distinct non-center classes",
                      "center to part 2: 5 edges over 5 center and 5 part vertices, "
                      "expected a perfect matching of size 6",
                      "center to part 3: 5 edges over 5 center and 5 part vertices, "
                      "expected a perfect matching of size 6",
                      "center to part 4: 6 edges over 5 center and 4 part vertices, "
                      "expected a perfect matching of size 6"]},
    ),
    (5, 0, 119): (
        {"n": 5, "j": 2, "ok": False,
         "part_sizes": {1: 24, 2: 24, 3: 24, 4: 24, 5: 24},
         "iso_ok": {1: True, 2: False, 3: True, 4: False, 5: True},
         "pair_edge_counts": {(1, 2): 5, (1, 3): 6, (1, 4): 7, (1, 5): 6, (2, 3): 6,
                              (2, 4): 12, (2, 5): 7, (3, 4): 6, (3, 5): 6, (4, 5): 5},
         "problems": ["part 2: induced edge count 33 != 36",
                      "part 4: induced edge count 33 != 36",
                      "parts (1,2) joined by 5 edges, expected 6",
                      "parts (1,4) joined by 7 edges, expected 6",
                      "parts (2,4) joined by 12 edges, expected 6",
                      "edges between parts (2,4) are not disjoint",
                      "parts (2,5) joined by 7 edges, expected 6",
                      "parts (4,5) joined by 5 edges, expected 6"]},
        {"n": 5, "i": 1, "ok": False, "center_size": 24, "center_edge_count": 1,
         "iso_ok": {2: True, 3: True, 4: True, 5: False},
         "matching_sizes": {2: 23, 3: 23, 4: 23, 5: 25},
         "matching_saturates": {2: False, 3: False, 4: False, 5: False},
         "part_pair_edge_count": 3,
         "problems": ["part 5: edge (105,119) has non-adjacent image",
                      "center induces 1 edges, expected none",
                      "3 edges join distinct non-center classes",
                      "center to part 2: 23 edges over 23 center and 23 part vertices, "
                      "expected a perfect matching of size 24",
                      "center to part 3: 23 edges over 23 center and 23 part vertices, "
                      "expected a perfect matching of size 24",
                      "center to part 4: 23 edges over 23 center and 23 part vertices, "
                      "expected a perfect matching of size 24",
                      "center to part 5: 25 edges over 23 center and 22 part vertices, "
                      "expected a perfect matching of size 24"]},
    ),
}


@pytest.mark.parametrize("swap", sorted(REWIRED_REPORTS), ids="S{0[0]}-{0[1]}-{0[2]}".format)
def test_validators_report_every_edge_check_on_a_rewired_graph(swap):
    g = _rewired(*swap)
    dimension, symbol = REWIRED_REPORTS[swap]
    assert dataclasses.asdict(validate_dimension_partition(g, 2)) == dimension
    assert dataclasses.asdict(validate_symbol_partition(g, 1)) == symbol


def _drop_one(parts):
    parts[2] = parts[2][1:]


def _move_one(parts):
    parts[3] = parts[3] + parts[2][:1]
    parts[2] = parts[2][1:]


BROKEN_PROBLEMS = {
    ("dimension", "drop"): [
        "part 2 has 5 vertices, expected 6",
        "parts cover 23 vertices of 24",
        "part 2: relabeling is not a bijection onto the smaller star graph",
        "parts (1,2) joined by 1 edges, expected 2"],
    ("dimension", "move"): [
        "part 2 has 5 vertices, expected 6",
        "part 3 has 7 vertices, expected 6",
        "part 2: relabeling is not a bijection onto the smaller star graph",
        "part 3: permutation does not carry symbol 3 at position 2",
        "parts (1,2) joined by 1 edges, expected 2",
        "parts (1,3) joined by 3 edges, expected 2",
        "parts (2,3) joined by 4 edges, expected 2",
        "edges between parts (2,3) are not disjoint"],
    ("symbol", "drop"): [
        "part 2 has 5 vertices, expected 6",
        "classes cover 23 vertices of 24",
        "part 2: relabeling is not a bijection onto the smaller star graph",
        "center to part 2: 5 edges over 5 center and 5 part vertices, "
        "expected a perfect matching of size 6"],
    ("symbol", "move"): [
        "part 2 has 5 vertices, expected 6",
        "part 3 has 7 vertices, expected 6",
        "part 2: relabeling is not a bijection onto the smaller star graph",
        "part 3: permutation does not carry symbol 1 at position 3",
        "2 edges join distinct non-center classes",
        "center to part 2: 5 edges over 5 center and 5 part vertices, "
        "expected a perfect matching of size 6",
        "center to part 3: 7 edges over 6 center and 7 part vertices, "
        "expected a perfect matching of size 6"],
}


@pytest.mark.parametrize("kind, how", sorted(BROKEN_PROBLEMS))
def test_validators_report_a_broken_partition(s4, monkeypatch, kind, how):
    # a vertex in no class, or in a class whose index it does not carry, is
    # reported as a problem line rather than raised
    partition = getattr(decomposition, f"partition_by_{kind}")
    validate = getattr(decomposition, f"validate_{kind}_partition")

    def broken(g, index):
        split = partition(g, index)
        {"drop": _drop_one, "move": _move_one}[how](split.parts)
        return split

    monkeypatch.setattr(decomposition, f"partition_by_{kind}", broken)
    rep = validate(s4, 2 if kind == "dimension" else 1)
    assert rep.problems == BROKEN_PROBLEMS[kind, how]
    assert not rep.ok and not rep.iso_ok[2]
    assert rep.iso_ok[3] is (how == "drop")  # a moved member does not carry part 3's index
    if kind == "symbol":
        assert rep.center_edge_count == 0
        assert rep.matching_sizes == {2: 5, 3: 7 if how == "move" else 6, 4: 6}
