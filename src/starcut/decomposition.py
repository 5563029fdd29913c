"""Hierarchical decompositions of the star graph, with executable validators.

Two partition schemes are supported.  Fixing a position j >= 2 splits the
graph into n induced copies of the (n-1)-dimensional star graph, any two of
which are joined by exactly (n-2)! pairwise disjoint edges.  Fixing a symbol
i splits it into an edgeless "center" (the vertices carrying i up front)
plus n-1 copies of the smaller star graph, each joined to the center by a
perfect matching and to each other by nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial

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


def validate_dimension_partition(g: StarGraph, j: int) -> DimensionPartitionReport:
    """Check the fixed-position split: n smaller stars, matched pairwise.

    Each part must induce a copy of S_{n-1} (certified through the explicit
    relabeling map) and every pair of parts must be joined by exactly
    (n-2)! pairwise vertex-disjoint edges.
    """
    dp = partition_by_dimension(g, j)
    n = g.n
    problems: list[str] = []
    part_sizes = {i: len(vs) for i, vs in dp.parts.items()}
    expected_size = factorial(n - 1)
    for i, size in part_sizes.items():
        if size != expected_size:
            problems.append(f"part {i} has {size} vertices, expected {expected_size}")
    covered = sum(part_sizes.values())
    if covered != g.num_vertices:
        problems.append(f"parts cover {covered} vertices of {g.num_vertices}")

    small = StarGraph(n - 1) if n >= 2 else None
    iso_ok: dict[int, bool] = {}
    for i, vs in dp.parts.items():
        problem = _iso_problem(g, small, vs, relabel_to_smaller_star(g, vs, j, i))
        iso_ok[i] = problem is None
        if problem:
            problems.append(f"part {i}: {problem}")

    expected_cross = factorial(n - 2) if n >= 2 else 0
    pair_edge_counts: dict[tuple[int, int], int] = {}
    block = [0] * g.num_vertices
    for i, vs in dp.parts.items():
        for v in vs:
            block[v] = i
    # every pair's edges from one walk over the rows
    crossing = {(i1, i2): [] for i1 in dp.parts for i2 in dp.parts if i1 < i2}
    for u in range(g.num_vertices):
        bu = block[u]
        for w in g._row(u):
            bw = block[w]
            if w > u and bw != bu:
                crossing[(bu, bw) if bu < bw else (bw, bu)].append((u, w))
    for (i1, i2), es in crossing.items():
        pair_edge_counts[(i1, i2)] = len(es)
        if len(es) != expected_cross:
            problems.append(
                f"parts ({i1},{i2}) joined by {len(es)} edges, expected {expected_cross}"
            )
        ends = [v for e in es for v in e]
        if len(set(ends)) != len(ends):
            problems.append(f"edges between parts ({i1},{i2}) are not disjoint")
    return DimensionPartitionReport(
        n=n,
        j=j,
        ok=not problems,
        part_sizes=part_sizes,
        iso_ok=iso_ok,
        pair_edge_counts=pair_edge_counts,
        problems=problems,
    )


def validate_symbol_partition(g: StarGraph, i: int) -> SymbolPartitionReport:
    """Check the fixed-symbol split: edgeless center, matched smaller stars.

    The center must induce no edges, every other class must induce S_{n-1},
    each class must be joined to the center by a matching that saturates
    both sides ((n-1)! edges), and distinct non-center classes must not be
    joined at all.
    """
    sp = partition_by_symbol(g, i)
    n = g.n
    problems: list[str] = []
    expected_size = factorial(n - 1)
    if len(sp.center) != expected_size:
        problems.append(f"center has {len(sp.center)} vertices, expected {expected_size}")

    block = {}  # vertex -> 1 for center, j for part j
    for v in sp.center:
        block[v] = 1
    for j, vs in sp.parts.items():
        if len(vs) != expected_size:
            problems.append(f"part {j} has {len(vs)} vertices, expected {expected_size}")
        for v in vs:
            block[v] = j
    if len(block) != g.num_vertices:
        problems.append(f"classes cover {len(block)} vertices of {g.num_vertices}")

    small = StarGraph(n - 1) if n >= 2 else None
    iso_ok: dict[int, bool] = {}
    for j, vs in sp.parts.items():
        problem = _iso_problem(g, small, vs, relabel_to_smaller_star(g, vs, j, i))
        iso_ok[j] = problem is None
        if problem:
            problems.append(f"part {j}: {problem}")

    center_edges = 0
    part_pair_edges = 0
    center_to_part: dict[int, list[tuple[int, int]]] = {j: [] for j in sp.parts}
    for u in range(g.num_vertices):
        bu = block[u]
        for w in g._row(u):
            if w < u:
                continue
            bw = block[w]
            if bu == bw:
                if bu == 1:
                    center_edges += 1
            elif bu == 1 or bw == 1:
                center_to_part[bw if bu == 1 else bu].append((u, w))
            else:
                part_pair_edges += 1
    if center_edges:
        problems.append(f"center induces {center_edges} edges, expected none")
    if part_pair_edges:
        problems.append(f"{part_pair_edges} edges join distinct non-center classes")

    matching_sizes: dict[int, int] = {}
    matching_saturates: dict[int, bool] = {}
    center_set = set(sp.center)
    for j, es in center_to_part.items():
        matching_sizes[j] = len(es)
        center_ends = {u if u in center_set else w for u, w in es}
        part_ends = {w if u in center_set else u for u, w in es}
        saturates = (
            len(es) == expected_size
            and len(center_ends) == expected_size
            and len(part_ends) == expected_size
        )
        matching_saturates[j] = saturates
        if not saturates:
            problems.append(
                f"center to part {j}: {len(es)} edges over {len(center_ends)} center "
                f"and {len(part_ends)} part vertices, expected a perfect matching "
                f"of size {expected_size}"
            )
    return SymbolPartitionReport(
        n=n,
        i=i,
        ok=not problems,
        center_size=len(sp.center),
        center_edge_count=center_edges,
        iso_ok=iso_ok,
        matching_sizes=matching_sizes,
        matching_saturates=matching_saturates,
        part_pair_edge_count=part_pair_edges,
        problems=problems,
    )
