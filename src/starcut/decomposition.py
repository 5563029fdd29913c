"""Hierarchical decompositions of the star graph, with executable validators.

Two partition schemes are supported.  Fixing a position j >= 2 splits the
graph into n induced copies of the (n-1)-dimensional star graph, any two of
which are joined by exactly (n-2)! pairwise disjoint edges.  Fixing a symbol
i splits it into an edgeless "center" (the vertices carrying i up front)
plus n-1 copies of the smaller star graph, each joined to the center by a
perfect matching and to each other by nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import factorial
from operator import itemgetter

from .core import (
    InputError,
    StarGraph,
    _canon_edge,
    _iso_problem,
    _perms,
    shrink_perm,  # re-exported: part of this module's API
)


@dataclass
class DimensionPartition:
    """Vertex classes of S_n grouped by the symbol found at position j."""

    n: int
    j: int  # 1-based position, 2..n
    parts: dict[int, list[int]]  # 1-based symbol -> sorted vertex ranks


@dataclass
class SymbolPartition:
    """Vertex classes of S_n grouped by where the fixed symbol i sits."""

    n: int
    i: int  # 1-based symbol
    center: list[int]  # vertices with symbol i at position 1
    parts: dict[int, list[int]]  # 1-based position j >= 2 -> vertex ranks


def partition_by_dimension(g: StarGraph, j: int) -> DimensionPartition:
    """Split g by the symbol at position j; requires 2 <= j <= n."""
    if not 2 <= j <= g.n:
        raise InputError(f"position j must be in 2..{g.n}, got {j}")
    perms = _perms(g.n)
    parts = {s + 1: perms.carrying(j - 1, s) for s in range(g.n)}
    return DimensionPartition(n=g.n, j=j, parts=parts)


def partition_by_symbol(g: StarGraph, i: int) -> SymbolPartition:
    """Split g by the position of symbol i; requires 1 <= i <= n."""
    if not 1 <= i <= g.n:
        raise InputError(f"symbol i must be in 1..{g.n}, got {i}")
    perms = _perms(g.n)
    at = [perms.carrying(jj, i - 1) for jj in range(g.n)]
    return SymbolPartition(n=g.n, i=i, center=at[0], parts=dict(enumerate(at[1:], start=2)))


def cross_edges(g: StarGraph, dp: DimensionPartition, i1: int, i2: int) -> list[tuple[int, int]]:
    """Edges between parts i1 and i2 of a dimension partition, sorted.

    For a star graph these always form a matching of size (n-2)!; the
    validator below asserts that, this function just collects the edges.
    """
    if i1 == i2:
        raise InputError("part symbols must differ")
    for i in (i1, i2):
        if i not in dp.parts:
            raise InputError(f"symbol {i} out of range 1..{dp.n}")
    other = set(dp.parts[i2])
    out = []
    for u in dp.parts[i1]:
        for w in g._row(u):
            if w in other:
                out.append(_canon_edge(u, w))
    return sorted(set(out))


def relabel_to_smaller_star(g: StarGraph, part, j: int, i: int) -> dict[int, int]:
    """Map ranks of the part with symbol i at position j >= 2 onto S_{n-1} ranks.

    Deleting the fixed position and renaming the remaining symbols is a
    graph isomorphism onto the (n-1)-dimensional star graph; validators
    check that claim edge by edge.  The map is perm_rank(shrink_perm(...)),
    which the permutation table answers without rank arithmetic.
    """
    if j == 1:
        raise InputError("position 1 cannot be deleted: that class induces no star graph")
    if not 2 <= j <= g.n:
        raise InputError(f"position j must be in 2..{g.n}, got {j}")
    if not 1 <= i <= g.n:
        raise InputError(f"symbol i must be in 1..{g.n}, got {i}")
    part = list(part)
    for v in part:
        g._check_vertex(v)
    ranks = _perms(g.n).shrunk_ranks(part, j - 1, i - 1)
    if None in ranks:
        raise InputError(f"permutation does not carry symbol {i} at position {j}")
    return dict(zip(part, ranks))


@dataclass
class DimensionPartitionReport:
    """Evidence that a fixed-position split has the expected structure."""

    n: int
    j: int
    ok: bool
    part_sizes: dict[int, int]
    iso_ok: dict[int, bool]
    pair_edge_counts: dict[tuple[int, int], int]
    problems: list[str] = field(default_factory=list)


@dataclass
class SymbolPartitionReport:
    """Evidence that a fixed-symbol split has the expected structure."""

    n: int
    i: int
    ok: bool
    center_size: int
    center_edge_count: int
    iso_ok: dict[int, bool]
    matching_sizes: dict[int, int]
    matching_saturates: dict[int, bool]
    part_pair_edge_count: int
    problems: list[str] = field(default_factory=list)


def _check_parts(g: StarGraph, parts, j: int = 0, i: int = 0):
    """Size problems, iso_ok and isomorphism problems of the parts of a split
    fixing position j or symbol i (each part's key is the other index).  A
    member not carrying its part's index fails the part instead of raising."""
    expected_size = factorial(g.n - 1)
    small = StarGraph(g.n - 1) if g.n > 1 else None  # S_1's symbol split has no parts
    sized, iso_ok, isos = [], {}, []
    for key, vs in parts.items():
        if len(vs) != expected_size:
            sized.append(f"part {key} has {len(vs)} vertices, expected {expected_size}")
        try:
            problem = _iso_problem(g, small, vs, relabel_to_smaller_star(g, vs, j or key, i or key))
        except InputError as exc:
            problem = str(exc)
        iso_ok[key] = problem is None
        if problem:
            isos.append(f"part {key}: {problem}")
    return sized, iso_ok, isos


def _blocks(g: StarGraph, classes: dict[int, list[int]]) -> list[int]:
    """block[v] is the key of v's class, 0 for a vertex in none."""
    block = [0] * g.num_vertices
    for key, vs in classes.items():
        for v in vs:
            block[v] = key
    return block


def _census(g: StarGraph, block: list[int]):
    """The edges inside each block, the edges between each pair of blocks
    (keyed both ways), and for each ordered pair (a, b) of distinct blocks
    the number of vertices of a with a neighbour in b, from one walk over
    the rows of g.  A pair's edges form a matching exactly when their count
    equals the vertices touched on each side.  Only arcs that leave their
    block are listed: a star graph's rows are symmetric and hold g.degree
    neighbours each, so arcs from a into b count their edges once, and the
    other arcs from a count the edges inside a twice."""
    m = max(block) + 1  # pair (a, b) is keyed a * m + b: an int hashes faster than a tuple
    crossing = [(a * m + b, u) for u, a in enumerate(block)
                for w in g._row(u) if (b := block[w]) != a]

    def by_pair(arcs):
        return Counter({divmod(k, m): c for k, c in Counter(map(itemgetter(0), arcs)).items()})

    between, touch = by_pair(crossing), by_pair(set(crossing))
    inside = {a: (g.degree * size - sum(c for (x, _), c in between.items() if x == a)) // 2
              for a, size in Counter(block).items()}
    return inside, between, touch


def validate_dimension_partition(g: StarGraph, j: int) -> DimensionPartitionReport:
    """Check the fixed-position split: n smaller stars, matched pairwise.

    Each part must induce a copy of S_{n-1} (certified through the explicit
    relabeling map) and every pair of parts must be joined by exactly
    (n-2)! pairwise vertex-disjoint edges.
    """
    dp = partition_by_dimension(g, j)
    problems, iso_ok, isos = _check_parts(g, dp.parts, j=j)
    part_sizes = {i: len(vs) for i, vs in dp.parts.items()}
    covered = sum(part_sizes.values())
    if covered != g.num_vertices:
        problems.append(f"parts cover {covered} vertices of {g.num_vertices}")
    problems += isos

    _, between, touch = _census(g, _blocks(g, dp.parts))
    expected_cross = factorial(g.n - 2)
    pair_edge_counts = {}
    for a, b in [(a, b) for a in dp.parts for b in dp.parts if a < b]:
        count = pair_edge_counts[a, b] = between[a, b]
        if count != expected_cross:
            problems.append(f"parts ({a},{b}) joined by {count} edges, expected {expected_cross}")
        if not count == touch[a, b] == touch[b, a]:
            problems.append(f"edges between parts ({a},{b}) are not disjoint")
    return DimensionPartitionReport(n=g.n, j=j, ok=not problems, part_sizes=part_sizes,
                                    iso_ok=iso_ok, pair_edge_counts=pair_edge_counts,
                                    problems=problems)


def validate_symbol_partition(g: StarGraph, i: int) -> SymbolPartitionReport:
    """Check the fixed-symbol split: edgeless center, matched smaller stars.

    The center must induce no edges, every other class must induce S_{n-1},
    each class must be joined to the center by a matching that saturates
    both sides ((n-1)! edges), and distinct non-center classes must not be
    joined at all.
    """
    sp = partition_by_symbol(g, i)
    expected_size = factorial(g.n - 1)
    problems: list[str] = []
    if len(sp.center) != expected_size:
        problems.append(f"center has {len(sp.center)} vertices, expected {expected_size}")
    sized, iso_ok, isos = _check_parts(g, sp.parts, i=i)
    problems += sized
    block = _blocks(g, {1: sp.center, **sp.parts})
    covered = g.num_vertices - block.count(0)
    if covered != g.num_vertices:
        problems.append(f"classes cover {covered} vertices of {g.num_vertices}")
    problems += isos

    inside, between, touch = _census(g, block)
    center_edges = inside.get(1, 0)
    part_pair_edges = sum(count for (a, b), count in between.items() if 1 < a < b)
    if center_edges:
        problems.append(f"center induces {center_edges} edges, expected none")
    if part_pair_edges:
        problems.append(f"{part_pair_edges} edges join distinct non-center classes")
    matching_sizes: dict[int, int] = {}
    matching_saturates: dict[int, bool] = {}
    for j in sp.parts:
        count = matching_sizes[j] = between[1, j]
        saturates = matching_saturates[j] = count == touch[1, j] == touch[j, 1] == expected_size
        if not saturates:
            problems.append(
                f"center to part {j}: {count} edges over {touch[1, j]} center "
                f"and {touch[j, 1]} part vertices, expected a perfect matching "
                f"of size {expected_size}"
            )
    return SymbolPartitionReport(
        n=g.n, i=i, ok=not problems, center_size=len(sp.center),
        center_edge_count=center_edges, iso_ok=iso_ok, matching_sizes=matching_sizes,
        matching_saturates=matching_saturates, part_pair_edge_count=part_pair_edges,
        problems=problems)
