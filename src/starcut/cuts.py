"""Explicit k-super cut constructions and cut validity predicates.

A k-vertex-cut (k-edge-cut) is a removal set that disconnects the graph
while leaving every surviving vertex with degree at least k.  For the
n-dimensional star graph a minimum one is produced constructively: isolate
an induced copy of the (k+1)-dimensional star graph and take its
neighborhood (its edge boundary), of size (k+1)!(n-k-1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import factorial

from .core import (
    InputError,
    InvariantViolationError,
    StarGraph,
    _canon_edge,
    _component_walk,
    _iso_problem,
    _min_degree,
    _perms,
    _rank,
    _vertex_set,
    edge_boundary,
    induced_min_degree,
    neighborhood,
)


def cut_size_formula(n: int, k: int) -> int:
    """Size of the constructed minimum k-super cut: (k+1)!(n-k-1)."""
    return factorial(k + 1) * (n - k - 1)


@dataclass
class CutConstruction:
    """An isolated substar X, its neighborhood T, and their boundary edges F."""

    n: int
    k: int
    x: list[int]
    t: list[int]
    f: list[tuple[int, int]]

    @property
    def formula(self) -> int:
        return cut_size_formula(self.n, self.k)


@dataclass
class CutVerdict:
    """Outcome of validating a candidate removal set against the k-cut rules."""

    mode: str  # "vertex" or "edge"
    n: int
    k: int
    valid: bool
    reason: str  # "ok", "not-disconnected", "degree-below-k"
    component_sizes: list[int]
    min_surviving_degree: float  # int in practice; inf when nothing survives
    removed: int


@dataclass
class SymbolProfile:
    """Symbols per position (U) and positions per symbol (W) over a vertex set.

    U maps each 1-based position to the set of 1-based symbols appearing
    there; W maps each symbol to the set of positions >= 2 where it occurs.
    """

    n: int
    size: int
    U: dict[int, frozenset[int]]
    W: dict[int, frozenset[int]]

    def position_sum(self) -> int:
        return sum(len(self.U[j]) for j in range(2, self.n + 1))

    def symbol_sum(self) -> int:
        return sum(len(self.W[i]) for i in range(1, self.n + 1))

    def witness(self, k: int) -> int | None:
        """Smallest position j >= 2 whose symbol set has at least k+1
        members, or None when there is none."""
        return next((j for j in range(2, self.n + 1) if len(self.U[j]) > k), None)

    def duality_ok(self) -> bool:
        """i in U[j] <=> j in W[i] for every position j >= 2."""
        for j in range(2, self.n + 1):
            for i in range(1, self.n + 1):
                if (i in self.U[j]) != (j in self.W[i]):
                    return False
        return True


def substar_isolating_cut(n: int, k: int, graph: StarGraph | None = None) -> CutConstruction:
    """Construct the canonical minimum k-super cut of the n-star graph.

    X holds the permutations whose last n-k-1 positions read 1,2,...,n-k-1
    and whose first k+1 positions carry the k+1 largest symbols; X induces
    a copy of S_{k+1}.  T and F are derived by neighborhood expansion, then
    checked against the closed-form size (k+1)!(n-k-1).
    """
    if n < 2:
        raise InputError("cut construction needs n >= 2")
    if not 0 <= k <= n - 2:
        raise InputError(f"k must satisfy 0 <= k <= n-2, got k={k} for n={n}")
    g = graph if graph is not None else StarGraph(n)
    if g.n != n:
        raise InputError(f"graph has dimension {g.n}, expected {n}")
    suffix = tuple(range(n - k - 1))  # symbols 1..n-k-1, 0-based
    # each prefix permutes the k+1 symbols the suffix leaves out, so every
    # prefix + suffix is a permutation and needs no validation
    x = sorted(
        _rank(prefix + suffix)
        for prefix in itertools.permutations(range(n - k - 1, n))
    )
    t = neighborhood(g, x)
    f = edge_boundary(g, x)
    cut = CutConstruction(n=n, k=k, x=x, t=t, f=f)
    _self_check(g, cut)
    return cut


def _self_check(g: StarGraph, cut: CutConstruction):
    expected = cut.formula
    if len(cut.t) != expected or len(cut.f) != expected:
        raise InvariantViolationError(
            f"|T| = {len(cut.t)}, |F| = {len(cut.f)}, expected {expected}"
        )
    xs, ts = set(cut.x), set(cut.t)
    if xs & ts:
        raise InvariantViolationError("X and T intersect")
    for u, v in cut.f:
        if not ((u in xs) ^ (v in xs)) or (u not in xs and u not in ts) \
                or (v not in xs and v not in ts):
            raise InvariantViolationError(f"boundary edge ({u},{v}) leaves X and T")
    if not substar_iso_ok(g, cut.x, cut.k):
        raise InvariantViolationError("X does not induce a (k+1)-dimensional star graph")


def substar_iso_ok(g: StarGraph, x, k: int) -> bool:
    """Does x induce a copy of S_{k+1}?  Certified via explicit relabeling.

    Members must agree on everything outside their first k+1 positions and
    carry the same symbol set there; dropping the common suffix and shifting
    symbols down must then be a bijection onto S_{k+1} preserving edges.
    """
    m = k + 1
    small = StarGraph(m)
    lo = g.n - m  # prefix symbols are n-k-1 .. n-1 (0-based)
    mapping = {}
    suffix_seen = set()
    for v in x:
        p = g.perm(v)
        prefix = p[:m]
        if any(s < lo for s in prefix):
            return False
        suffix_seen.add(p[m:])
        # the m distinct prefix symbols all lie in lo..n-1, which holds m
        # symbols, so shifting them down by lo gives a permutation of 0..m-1
        mapping[v] = _rank(tuple(s - lo for s in prefix))
    return len(suffix_seen) <= 1 and _iso_problem(g, small, x, mapping) is None


def is_k_vertex_cut(g: StarGraph, S, k: int) -> CutVerdict:
    """Judge a vertex removal set against the k-cut definition.

    A remainder with fewer than two vertices counts as disconnected; this
    is the convention that gives complete graphs connectivity |V|-1 and it
    only matters when all but one vertex is removed.
    """
    removed = _vertex_set(g, S)
    if len(removed) == g.num_vertices:
        raise InputError("removing every vertex leaves nothing to judge")
    return _verdict(g, "vertex", k, removed, ())


def is_k_edge_cut(g: StarGraph, F, k: int) -> CutVerdict:
    """Judge an edge removal set against the k-cut definition."""
    removed = set()
    for u, v in F:
        g._check_vertex(u)
        g._check_vertex(v)
        if v not in g._row(u):
            raise InputError(
                f"({g.label(u)}) -- ({g.label(v)}) is not an edge of the graph"
            )
        removed.add(_canon_edge(u, v))
    return _verdict(g, "edge", k, (), removed)


def _verdict(g: StarGraph, mode: str, k: int, removed_vertices, removed_edges) -> CutVerdict:
    """The k-cut rule for a validated removal: disconnected, and every
    survivor keeps degree >= k.  Fewer than two survivors count as
    disconnected in vertex mode only (see is_k_vertex_cut)."""
    if k < 0:
        raise InputError("k must be >= 0")
    sizes = [len(c) for c in _component_walk(g, removed_vertices, removed_edges)]
    survivors = g.num_vertices - len(removed_vertices)
    disconnected = len(sizes) >= 2 or (mode == "vertex" and survivors < 2)
    mind = _min_degree(g, removed_vertices, removed_edges)
    valid = disconnected and mind >= k
    reason = "ok" if valid else "degree-below-k" if disconnected else "not-disconnected"
    return CutVerdict(mode=mode, n=g.n, k=k, valid=valid, reason=reason,
                      component_sizes=sizes,
                      min_surviving_degree=mind,
                      removed=len(removed_vertices) + len(removed_edges))


def symbol_profile(n: int, X) -> SymbolProfile:
    """Tabulate U (symbols per position) and W (positions >= 2 per symbol).

    Each U_j is read from one column of the permutation table.  W is
    derived from U, so the incidence duality i in U[j] <=> j in W[i] and the
    sum identity sum_{j>=2} |U_j| = sum_i |W_i| hold by construction; tests
    assert both on random sets anyway.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    xs = set(X)
    if not xs:
        raise InputError("symbol profile of an empty vertex set is undefined")
    if min(xs) < 0 or max(xs) >= factorial(n):
        raise InputError(f"vertex rank out of range 0..{factorial(n) - 1} for n={n}")
    at = _perms(n).symbols_by_position(xs)
    u = {j: frozenset(s + 1 for s in syms) for j, syms in enumerate(at, start=1)}
    w = {i: frozenset(j for j in range(2, n + 1) if i in u[j]) for i in range(1, n + 1)}
    return SymbolProfile(n=n, size=len(xs), U=u, W=w)


def witness_position(g: StarGraph, X, k: int) -> int:
    """Smallest position j >= 2 whose symbol set over X has at least k+1 members.

    Requires the subgraph induced by X to have minimum degree >= k; under
    that precondition such a position always exists, so failing to find one
    signals a bug and raises InvariantViolationError rather than returning.
    """
    if k < 0:
        raise InputError("k must be >= 0")
    xs = _vertex_set(g, X)
    if not xs:
        raise InputError("vertex set must be nonempty")
    delta = induced_min_degree(g, xs)
    if delta < k:
        raise InputError(
            f"induced minimum degree {delta} is below k={k}; precondition violated"
        )
    j = symbol_profile(g.n, xs).witness(k)
    if j is None:
        raise InvariantViolationError(
            f"no position with {k + 1} symbols over a set of induced minimum degree {delta}"
        )
    return j


@dataclass
class UniqueNeighborReport:
    """Per-vertex counts of neighbors inside X for everything outside X."""

    n: int
    x_size: int
    boundary_counts: dict[int, int]  # vertices with >= 1 neighbor in X
    max_outside_count: int
    boundary_all_single: bool
    outside_at_most_one: bool
    offenders: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.boundary_all_single and self.outside_at_most_one


def unique_neighbor_report(g: StarGraph, X) -> UniqueNeighborReport:
    """Scan every vertex outside X and count its neighbors inside X.

    For a substar-isolating construction the neighborhood T must see X
    exactly once per vertex and everything else at most once.
    """
    xs = _vertex_set(g, X)
    boundary_counts: dict[int, int] = {}
    max_outside = 0
    offenders = []
    for v in range(g.num_vertices):
        if v in xs:
            continue
        cnt = sum(1 for w in g._row(v) if w in xs)
        if cnt:
            boundary_counts[v] = cnt
        if cnt > max_outside:
            max_outside = cnt
        if cnt > 1:
            offenders.append(v)
    return UniqueNeighborReport(
        n=g.n,
        x_size=len(xs),
        boundary_counts=boundary_counts,
        max_outside_count=max_outside,
        boundary_all_single=all(c == 1 for c in boundary_counts.values()),
        outside_at_most_one=max_outside <= 1,
        offenders=offenders,
    )


@dataclass
class WitnessExhaustiveReport:
    """Result of the complete counterexample search for the witness property."""

    n: int
    k: int
    boxes_checked: int
    violations: list[list[int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_witness_exhaustive(g: StarGraph, k: int, box_limit: int = 200_000) -> WitnessExhaustiveReport:
    """Prove the witness property over ALL induced subgraphs with min degree >= k.

    A counterexample would be a connected vertex set whose symbol sets at
    positions 2..n all have at most k members.  Any such set lives inside
    the box of permutations fitting one assignment of candidate symbol sets,
    and within a box it lives inside the k-core of the induced subgraph.
    Scanning every box and checking that each k-core is empty is therefore a
    complete search, without enumerating subgraphs one by one.
    """
    if k < 1:
        raise InputError("the exhaustive witness check needs k >= 1")
    n = g.n
    symbol_choices = []
    for size in range(1, k + 1):
        symbol_choices.extend(
            frozenset(c) for c in itertools.combinations(range(n), size)
        )
    total = len(symbol_choices) ** (n - 1)
    if total > box_limit:
        raise InputError(
            f"{total} boxes exceed the limit {box_limit}; this check is meant for small n"
        )
    perms = [(v, g.perm(v)) for v in range(g.num_vertices)]
    adj = g.adjacency_lists()
    violations: list[list[int]] = []
    boxes = 0
    for box in itertools.product(symbol_choices, repeat=n - 1):
        boxes += 1
        members = [v for v, p in perms if all(p[j] in box[j - 1] for j in range(1, n))]
        if len(members) <= k:
            continue
        core = _k_core(adj, members, k)
        if core:
            violations.append(sorted(core))
    return WitnessExhaustiveReport(n=n, k=k, boxes_checked=boxes, violations=violations)


def sample_connected_subgraph(g: StarGraph, rng, size: int) -> list[int]:
    """Seeded random connected vertex set: grow from a uniform start vertex.

    Repeatedly absorbs a uniformly chosen boundary vertex until the target
    size is reached (or the whole graph is absorbed).  Used to sample the
    universally quantified properties; the distribution does not matter,
    but `check`'s goldens pin the stream.  Each boundary index is drawn as
    ``rng.randrange(len(boundary))`` draws it (the rejection loop of
    ``Random._randbelow_with_getrandbits``, with the same ``getrandbits``
    calls), so the sets and the generator's final state equal those of a
    sampler that calls ``randrange``; the tests pin both against one.
    """
    if size < 1:
        raise InputError("sample size must be >= 1")
    return _grow(g._row, g.num_vertices, rng, size)


def _grow(row, N: int, rng, size: int) -> list[int]:
    """`sample_connected_subgraph` over the rows `row(v)` of N vertices.
    One byte per vertex marks the chosen and the boundary vertices alike,
    since a neighbour joins the boundary only when it is in neither."""
    getrandbits = rng.getrandbits
    start = rng.randrange(N)
    marked = bytearray(N)
    marked[start] = 1
    chosen = [start]
    boundary = list(row(start))
    for w in boundary:
        marked[w] = 1
    absorb, push, pop = chosen.append, boundary.append, boundary.pop
    left = size - 1
    while boundary and left:
        m = len(boundary)
        b = m.bit_length()
        i = getrandbits(b)
        while i >= m:
            i = getrandbits(b)
        v = boundary[i]
        boundary[i] = boundary[-1]
        pop()
        absorb(v)
        left -= 1
        for w in row(v):
            if not marked[w]:
                marked[w] = 1
                push(w)
    chosen.sort()
    return chosen


def sample_min_degree_subgraphs(g: StarGraph, k: int, draws: int, rng):
    """Draw connected samples and keep those with induced min degree >= k.

    Half the draws aim near the full vertex count, where the degree filter
    passes often even for larger k; the rest spread over all sizes.  The
    samples grow from one tuple per row, built once per call.
    Returns (kept samples, number of draws made).
    """
    N = g.num_vertices
    if not 0 <= k < N:
        raise InputError(f"k must be in 0..{N - 1} for a sample of k+1 of the "
                         f"{N} vertices, got k={k}")
    if draws < 0:
        raise InputError(f"draws must be >= 0, got {draws}")
    out = []
    row = g.adjacency_lists().__getitem__ if draws else None
    for _ in range(draws):
        if rng.random() < 0.5:
            size = max(k + 1, N - rng.randrange(0, 4 * g.n + 1))
        else:
            size = rng.randrange(k + 1, N + 1)
        xs = _grow(row, N, rng, size)
        if induced_min_degree(g, xs) >= k:
            out.append(xs)
    return out, draws


def _k_core(adj, members, k: int) -> set[int]:
    """Maximal subset of members whose induced subgraph has min degree >= k."""
    alive = set(members)
    deg = {v: sum(1 for w in adj[v] if w in alive) for v in alive}
    queue = [v for v, d in deg.items() if d < k]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.discard(v)
        for w in adj[v]:
            if w in alive:
                deg[w] -= 1
                if deg[w] < k:
                    queue.append(w)
    return alive
