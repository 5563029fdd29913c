"""Star graphs on permutations and the graph primitives everything else uses.

Vertices of the n-dimensional star graph are the n! permutations of n
symbols; two permutations are adjacent exactly when one results from the
other by swapping the first symbol with the symbol at some later position.
Internally permutations are tuples over 0..n-1 and vertices are addressed
by Lehmer rank; anything user-facing (labels, error text) is 1-based.
"""

from __future__ import annotations

import itertools
from array import array
from collections import Counter
from math import factorial, inf


class InputError(ValueError):
    """Invalid argument: bad permutation, out-of-range index, unknown mode."""


class CapacityError(InputError):
    """The requested graph is too large for the chosen representation."""


class InvariantViolationError(RuntimeError):
    """A guaranteed structural property failed to hold; implementation bug."""


# The materialized adjacency is built from the permutation table, which
# stops at 9! = 362,880 vertices; S10's adjacency alone would take 131 MB.
MATERIALIZED_MAX_N = 9
# Implicit mode keeps rank arithmetic within int64.
IMPLICIT_MAX_N = 20
# Auto mode materializes whenever it can and stays implicit beyond.
AUTO_MATERIALIZE_MAX_N = MATERIALIZED_MAX_N


# Symbol bytes 0..8 of a permutation table row to the digits of its label.
_DIGITS = bytes.maketrans(bytes(range(9)), b"123456789")


def _as_1based(symbols) -> str:
    return ",".join(str(s + 1) for s in symbols)


def validate_perm(p, n: int | None = None):
    """Check that p is a permutation of 0..len(p)-1 (internal 0-based form)."""
    m = len(p)
    if n is not None and m != n:
        raise InputError(f"expected a permutation of length {n}, got length {m}")
    if sorted(p) != list(range(m)):
        raise InputError(f"not a permutation of 1..{m}: {_as_1based(p)}")


def parse_perm(text: str) -> tuple[int, ...]:
    """Parse "3,4,1,2" (any n), or the digit shorthand "3412" for n <= 9."""
    text = text.strip()
    if "," in text:
        try:
            symbols = [int(tok) for tok in text.split(",")]
        except ValueError:
            raise InputError(f"cannot parse permutation {text!r}") from None
    elif text.isdigit():
        symbols = [int(ch) for ch in text]
    else:
        raise InputError(f"cannot parse permutation {text!r}")
    p = tuple(s - 1 for s in symbols)
    validate_perm(p)
    return p


def format_perm(p, compact: bool = False) -> str:
    """Render a permutation with 1-based symbols, comma separated by default."""
    if compact:
        if len(p) > 9:
            raise InputError("compact digit form is only defined for n <= 9")
        return "".join(str(s + 1) for s in p)
    return _as_1based(p)


def star_neighbors(p) -> list[tuple[int, ...]]:
    """Neighbors of p: swap position 1 with position i, for i = 2..n ascending."""
    validate_perm(p)
    first = p[0]
    out = []
    for i in range(1, len(p)):
        q = list(p)
        q[0] = p[i]
        q[i] = first
        out.append(tuple(q))
    return out


def perm_rank(p) -> int:
    """Lehmer rank: index of p in lexicographic order of all permutations."""
    validate_perm(p)
    return _rank(p)


def _rank(p) -> int:
    """perm_rank of a p the caller has validated, in O(n): the symbols
    after position i smaller than p[i] are those smaller than p[i] less
    the ones already seen, whose bits `seen` holds."""
    n = len(p)
    r = seen = 0
    for i, s in enumerate(p):
        r = r * (n - i) + s - (seen & ((1 << s) - 1)).bit_count()
        seen |= 1 << s
    return r


def perm_unrank(r: int, n: int) -> tuple[int, ...]:
    """Inverse of perm_rank for permutations of length n."""
    if n < 1:
        raise InputError("n must be >= 1")
    f = factorial(n)
    if not 0 <= r < f:
        raise InputError(f"rank {r} out of range 0..{f - 1} for n={n}")
    avail = list(range(n))
    out = []
    for i in range(n):
        f //= n - i
        d, r = divmod(r, f)
        out.append(avail.pop(d))
    return tuple(out)


def shrink_perm(p: tuple[int, ...], j: int, i: int) -> tuple[int, ...]:
    """Drop position j (1-based) from p and close the symbol gap left by i.

    p must carry symbol i (1-based) at position j.  Remaining symbols are
    renamed order-preservingly onto 0..n-2, giving a permutation one shorter.
    """
    jj, ii = j - 1, i - 1
    if p[jj] != ii:
        raise InputError(
            f"permutation does not carry symbol {i} at position {j}"
        )
    return tuple(s if s < ii else s - 1 for k, s in enumerate(p) if k != jj)


class _PermTable:
    """The permutations of n in rank order, n symbols each in one bytes.

    `columns[j][v]` is the symbol at position j of the permutation of rank
    v (a strided view, not a copy), so "which symbol sits where" over a
    vertex set is one index per vertex.  S8 takes 322 KB and S9 3.3 MB.
    Positions and symbols are 0-based here.
    """

    def __init__(self, n: int):
        self.n = n
        # itertools yields lexicographic order, which is Lehmer rank order
        self.flat = bytes(itertools.chain.from_iterable(itertools.permutations(range(n))))
        view = memoryview(self.flat)
        self.columns = tuple(view[j::n] for j in range(n))

    def row(self, v: int) -> tuple[int, ...]:
        n = self.n
        return tuple(self.flat[v * n : (v + 1) * n])

    def label(self, v: int, compact: bool = False) -> str:
        """format_perm(self.row(v), compact), from the row's bytes."""
        n = self.n
        digits = self.flat[v * n : (v + 1) * n].translate(_DIGITS).decode()
        return digits if compact else ",".join(digits)

    def symbols_by_position(self, vertices: set[int]) -> list[set[int]]:
        """The set of symbols at each position over the set `vertices`.

        A set of more than half the vertices is profiled from its
        complement: each symbol sits at each position in (n-1)! of the n!
        permutations, so it is missing there exactly when the complement
        holds all (n-1)! of them.
        """
        count = len(self.flat) // self.n
        if 2 * len(vertices) <= count:
            return [set(map(col.__getitem__, vertices)) for col in self.columns]
        rest = list(itertools.filterfalse(vertices.__contains__, range(count)))
        per_symbol = count // self.n
        out = []
        for col in self.columns:
            in_rest = Counter(map(col.__getitem__, rest))
            out.append({s for s in range(self.n) if in_rest[s] < per_symbol})
        return out

    def carrying(self, j: int, s: int) -> list[int]:
        """Ascending ranks whose permutation has symbol s at position j."""
        is_s = bytearray(256)
        is_s[s] = 1
        col = self.columns[j]
        return list(itertools.compress(range(len(col)), bytes(col).translate(is_s)))

    def shrunk_ranks(self, vertices, j: int, s: int) -> list[int | None]:
        """perm_rank(shrink_perm(...)) of each vertex carrying s at j, else None.

        Two members of the class first differ at a position other than j,
        where the renaming keeps their order, so shrinking keeps rank order.
        It maps the class's (n-1)! members one-to-one onto S_{n-1}, so the
        t-th member in rank order shrinks to rank t.
        """
        order = {v: t for t, v in enumerate(self.carrying(j, s))}
        return [order.get(v) for v in vertices]


class _RankArithmetic:
    """_PermTable's interface by rank arithmetic, for n too large to tabulate."""

    def __init__(self, n: int):
        self.n = n

    def row(self, v: int) -> tuple[int, ...]:
        return perm_unrank(v, self.n)

    def label(self, v: int, compact: bool = False) -> str:
        return format_perm(perm_unrank(v, self.n), compact)

    def symbols_by_position(self, vertices) -> list[set[int]]:
        out = [set() for _ in range(self.n)]
        for v in vertices:  # one unrank per vertex
            for syms, s in zip(out, perm_unrank(v, self.n)):
                syms.add(s)
        return out

    def carrying(self, j: int, s: int) -> list[int]:
        perms = itertools.permutations(range(self.n))
        return [r for r, p in enumerate(perms) if p[j] == s]

    def shrunk_ranks(self, vertices, j: int, s: int) -> list[int | None]:
        out = []
        for v in vertices:
            p = perm_unrank(v, self.n)
            out.append(perm_rank(shrink_perm(p, j + 1, s + 1)) if p[j] == s else None)
        return out


# Built once per n and shared by every graph and call, like the flow cache.
_PERM_TABLES: dict[int, _PermTable | _RankArithmetic] = {}


def _perms(n: int) -> _PermTable | _RankArithmetic:
    """Permutations of n by rank: a table up to AUTO_MATERIALIZE_MAX_N and
    rank arithmetic beyond.  The one place that chooses; callers validate
    ranks before they ask."""
    perms = _PERM_TABLES.get(n)
    if perms is None:
        tabulate = n <= AUTO_MATERIALIZE_MAX_N
        perms = _PERM_TABLES[n] = _PermTable(n) if tabulate else _RankArithmetic(n)
    return perms


# Built once per n like the permutation tables and shared by every
# materialized graph, read-only so that no caller can write into its rows.
_ADJACENCY: dict[int, memoryview] = {}


def _adjacency(n: int) -> memoryview:
    adj = _ADJACENCY.get(n)
    if adj is None:
        adj = _ADJACENCY[n] = memoryview(_build_adjacency(n)).toreadonly()
    return adj


def _build_adjacency(n: int) -> array:
    """The flat int32 adjacency of S_n, filled one swap position at a time.

    The first n-1 symbols of a permutation determine the last, and for
    n <= 9 they fit in one 8-byte word, so each rank is keyed by that
    word.  Swapping position 0 with position i rewrites bytes 0 and i of
    every key at once; a dict maps the swapped keys back to ranks.  The
    index and the lookups read the words by the same native cast, so
    byte order cannot change a rank.
    """
    d, count = n - 1, factorial(n)
    cols = _perms(n).columns
    key = bytearray(8 * count)
    for j in range(n - 1):
        key[j::8] = cols[j]
    index = dict(zip(memoryview(key).cast("Q"), range(count)))
    adj = array("i", bytes(4 * count * d))
    for i in range(1, n):
        swapped = bytearray(key)
        swapped[0::8] = cols[i]
        if i < n - 1:  # position n-1 is not in the key
            swapped[i::8] = cols[0]
        adj[i - 1::d] = array("i", map(index.__getitem__, memoryview(swapped).cast("Q")))
    return adj


class StarGraph:
    """Immutable n-dimensional star graph addressed by Lehmer rank.

    mode "materialized" reads the adjacency from one flat int32 array,
    "implicit" computes neighbor ranks on demand, and "auto" materializes
    up to n = 9.  The array is built on the first materialized S_n of a
    process and shared, read-only, by every later one, so constructing a
    graph again costs nothing.  Instances never mutate after construction,
    so they can be shared freely across threads and forked workers.
    """

    def __init__(self, n: int, mode: str = "auto"):
        if n < 1:
            raise InputError("n must be >= 1")
        if mode == "auto":
            mode = "materialized" if n <= AUTO_MATERIALIZE_MAX_N else "implicit"
        if mode == "materialized":
            if n > MATERIALIZED_MAX_N:
                raise CapacityError(
                    f"materialized mode rejects n={n}: the adjacency is built from "
                    f"the permutation table, which stops at n={MATERIALIZED_MAX_N}; "
                    "use implicit mode"
                )
        elif mode == "implicit":
            if n > IMPLICIT_MAX_N:
                raise CapacityError(
                    f"n={n} is beyond the supported range: {n}! exceeds int64 ranks"
                )
        else:
            raise InputError(f"unknown mode {mode!r}")
        self.n = n
        self.mode = mode
        self.num_vertices = factorial(n)
        self.degree = n - 1
        self.num_edges = self.num_vertices * (n - 1) // 2
        self._adj = _adjacency(n) if mode == "materialized" else None

    def _check_vertex(self, v: int):
        if not 0 <= v < self.num_vertices:
            raise InputError(f"vertex rank {v} out of range for n={self.n}")

    def perm(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return _perms(self.n).row(v)

    def label(self, v: int, compact: bool = False) -> str:
        self._check_vertex(v)
        return _perms(self.n).label(v, compact)

    def neighbors(self, v: int) -> list[int]:
        """Neighbor ranks of v, ordered by swap position ascending."""
        self._check_vertex(v)
        return list(self._row(v))

    def _row(self, v: int):
        """neighbors(v) for a rank the caller has validated, with no range
        check and no list built: an adjacency array slice when materialized."""
        if self._adj is not None:
            d = self.degree
            return self._adj[v * d : (v + 1) * d]
        # star_neighbors validates the row, and every swap of it is a
        # permutation, so no neighbour is validated again
        return [_rank(q) for q in star_neighbors(_perms(self.n).row(v))]

    def adjacency_lists(self) -> list[tuple[int, ...]]:
        """All neighbor rows at once; handy for tight search loops."""
        if self._adj is not None:
            d = self.degree
            a = self._adj
            return [tuple(a[v * d : (v + 1) * d]) for v in range(self.num_vertices)]
        return [tuple(self._row(v)) for v in range(self.num_vertices)]

    def has_edge(self, u: int, v: int) -> bool:
        """Adjacency test via the swap rule, O(n)."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        perms = _perms(self.n)
        pu = perms.row(u)
        pv = perms.row(v)
        diff = [i for i in range(self.n) if pu[i] != pv[i]]
        if len(diff) != 2 or diff[0] != 0:
            return False
        i = diff[1]
        return pu[0] == pv[i] and pu[i] == pv[0]

    def edges(self):
        """All edges as (u, v) with u < v, sorted by (u, v)."""
        for u in range(self.num_vertices):
            for v in sorted(self._row(u)):
                if v > u:
                    yield (u, v)

    def __repr__(self):
        return f"StarGraph(n={self.n}, mode={self.mode!r})"


def build_star_graph(n: int, mode: str = "auto") -> StarGraph:
    """Construct the n-dimensional star graph (see StarGraph for modes)."""
    return StarGraph(n, mode)


def _canon_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _vertex_set(g: StarGraph, vertices) -> set[int]:
    """The members of `vertices` as a set, range-checked by min and max."""
    if iter(vertices) is vertices:  # a one-shot iterator: keep its members
        vertices = list(vertices)
    out = set(vertices)
    if out and (min(out) < 0 or max(out) >= g.num_vertices):
        for v in vertices:  # name the first bad rank in input order
            g._check_vertex(v)
    return out


def _edge_key_set(g: StarGraph, edges) -> set[tuple[int, int]]:
    out = set()
    for u, v in edges:
        g._check_vertex(u)
        g._check_vertex(v)
        out.add(_canon_edge(u, v))
    return out


def _iso_problem(g: StarGraph, small: StarGraph, part, mapping) -> str | None:
    """None if `mapping` (part -> ranks of small) is an isomorphism from
    g[part] onto small, else the first problem found.  A bijection that keeps
    every induced edge and the edge count also keeps every non-edge.  The
    part holds valid ranks of g; the images are checked here."""
    images = set(mapping.values())
    size = small.num_vertices
    if (len(part) != size or len(images) != size
            or min(images) < 0 or max(images) >= size):
        return "relabeling is not a bijection onto the smaller star graph"
    members = set(part)
    inner = 0
    for u in part:
        small_nbrs = set(small._row(mapping[u]))
        for w in g._row(u):
            if w in members:
                if w > u:
                    inner += 1
                if mapping[w] not in small_nbrs:
                    return f"edge ({u},{w}) has non-adjacent image"
    if inner != small.num_edges:
        return f"induced edge count {inner} != {small.num_edges}"
    return None


def components(g: StarGraph, removed_vertices=(), removed_edges=()) -> list[list[int]]:
    """Connected components of g minus the given vertices and edges.

    Components are ordered by their smallest member and each component is
    sorted ascending, so output is fully deterministic.
    """
    comps = _component_walk(g, _vertex_set(g, removed_vertices),
                            _edge_key_set(g, removed_edges))
    for comp in comps:
        comp.sort()
    return comps


def _component_walk(g: StarGraph, removed_v, removed_e) -> list[list[int]]:
    """Components of g minus a validated removal, each in visiting order.

    `removed_v` holds valid ranks and `removed_e` canonical pairs of valid
    ranks; a pair that is no edge of g removes nothing.  One byte per
    vertex marks the removed and the reached vertices, and roots are taken
    in rank order, so each component starts at its smallest member; its
    member list is its queue.  A second byte per vertex marks the ends of
    removed edges, and only their rows are filtered against `removed_e`.
    """
    num = g.num_vertices
    seen = bytearray(num)
    for v in removed_v:
        seen[v] = 1
    ends = bytearray(num)
    for u, w in removed_e:
        ends[u] = ends[w] = 1
    adj, d, row = g._adj, g.degree, g._row
    comps = []
    start = seen.find(0)
    while start >= 0:
        seen[start] = 1
        comp = [start]
        for u in comp:  # appended to while it is read
            nbrs = adj[u * d : u * d + d] if adj is not None else row(u)
            if ends[u]:
                nbrs = [w for w in nbrs
                        if ((u, w) if u < w else (w, u)) not in removed_e]
            for w in nbrs:
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
        comps.append(comp)
        start = seen.find(0, start + 1)
    return comps


def min_degree(g: StarGraph, removed_vertices=(), removed_edges=()):
    """Minimum degree among surviving vertices; inf when none survive.

    The inf sentinel lets "disconnected and minimum degree >= k" compose
    without special-casing total annihilation.  Only a neighbour of a
    removed vertex, or an endpoint of a removed edge, can lose degree, so
    the losses are counted over the removal alone; a removed pair that is
    no edge of g costs nothing.
    """
    return _min_degree(g, _vertex_set(g, removed_vertices),
                       _edge_key_set(g, removed_edges))


def _min_degree(g: StarGraph, removed_v, removed_e):
    """min_degree of a validated removal: `removed_v` holds distinct valid
    ranks, and `removed_e` canonical pairs of valid ranks."""
    if len(removed_v) == g.num_vertices:
        return inf
    lost = _degree_lost(g, removed_v)
    for u, w in removed_e:
        if u not in removed_v and w not in removed_v and w in g._row(u):
            lost[u] += 1
            lost[w] += 1
    return g.degree - max(lost.values(), default=0)


def neighborhood(g: StarGraph, X) -> list[int]:
    """N(X): vertices outside X adjacent to some member of X, sorted."""
    xs = _vertex_set(g, X)
    out = set()
    for u in xs:
        out.update(g._row(u))
    out -= xs
    return sorted(out)


def edge_boundary(g: StarGraph, X) -> list[tuple[int, int]]:
    """All edges with exactly one endpoint in X, canonical and sorted."""
    xs = _vertex_set(g, X)
    out = set()
    for u in xs:
        for w in g._row(u):
            if w not in xs:
                out.add(_canon_edge(u, w))
    return sorted(out)


def induced_edges(g: StarGraph, X) -> list[tuple[int, int]]:
    """Edges with both endpoints in X, canonical and sorted."""
    xs = _vertex_set(g, X)
    out = []
    for u in xs:
        for w in g._row(u):
            if w > u and w in xs:
                out.append((u, w))
    out.sort()
    return out


def _degree_lost(g: StarGraph, removed_v: set[int]) -> Counter:
    """How many neighbours each survivor has in removed_v."""
    row = g._row
    return Counter(w for u in removed_v for w in row(u) if w not in removed_v)


def induced_min_degree(g: StarGraph, X):
    """Minimum degree of the subgraph induced by X; inf for empty X.

    Walks the rows of the smaller side: X's own rows, or, when X holds
    more than half the graph, the rows of its complement, whose
    neighbours in X are the only members to lose degree.
    """
    xs = _vertex_set(g, X)
    if 2 * len(xs) > g.num_vertices:
        rest = set(itertools.filterfalse(xs.__contains__, range(g.num_vertices)))
        return g.degree - max(_degree_lost(g, rest).values(), default=0)
    row = g._row
    best = inf
    for u in xs:
        deg = len(xs.intersection(row(u)))
        if deg < best:
            best = deg
            if best == 0:
                break
    return best
