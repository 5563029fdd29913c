"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the library's code paths: neighbors via
permutation composition, components via union-find, minimum cuts via plain
subset enumeration with its own connectivity check.  The exceptions are
`connectivity_by_every_target`, which reuses the library's flow kernel and
differs from `classical_connectivity` only in the targets it sends flow to,
and the `*_by_full_walk`, `*_by_member_checks` and `*_reference` functions,
which read the graph's neighbour rows or its range check.
`growth_search_reference` also judges its candidates with the library's
keyed rows and removal check.  `keyed_rows_reference` is the edge
numbering that `oracle._keyed_rows` replaced, `perm_rank_reference`
the quadratic Lehmer rank that `core._rank` replaced, and
`certified_by_path_lists` the path certificate that `oracle._certified`'s
path bits replaced, all kept verbatim.
"""

import itertools
import time
from array import array
from math import inf

from starcut import parse_perm, perm_rank
from starcut.core import _canon_edge
from starcut.oracle import (
    SearchStats,
    _WorkerState,
    _check_removal,
    _flow_network,
    _keyed_rows,
    _max_flow_unit,
)


def rank_of(text: str) -> int:
    return perm_rank(parse_perm(text))


def ranks_of(*texts) -> list[int]:
    return sorted(rank_of(t) for t in texts)


def perm_rank_reference(p) -> int:
    """Lehmer rank by counting, for each position, the smaller symbols
    after it: the O(n^2) body of perm_rank before the O(n) rank."""
    n = len(p)
    r = 0
    for i in range(n):
        smaller = 0
        for j in range(i + 1, n):
            if p[j] < p[i]:
                smaller += 1
        r = r * (n - i) + smaller
    return r


def neighbors_by_composition(p):
    """Star neighbors computed as p composed with a position transposition."""
    n = len(p)
    out = []
    for i in range(1, n):
        tau = list(range(n))
        tau[0], tau[i] = tau[i], tau[0]
        out.append(tuple(p[tau[m]] for m in range(n)))
    return out


def adjacency_by_permutation_loop(n):
    """The flat int32 adjacency of S_n, one swapped tuple and one dict
    lookup per edge: the per-permutation build the bulk build replaced."""
    perms = list(itertools.permutations(range(n)))
    index = {p: r for r, p in enumerate(perms)}
    adj = array("i")
    for p in perms:
        first = p[0]
        for i in range(1, n):
            q = list(p)
            q[0] = p[i]
            q[i] = first
            adj.append(index[tuple(q)])
    return adj


def min_degree_by_full_walk(g, removed_vertices=(), removed_edges=()):
    """Minimum surviving degree by counting kept neighbours of every
    survivor; inf when none survive.  Non-edge pairs cost nothing."""
    removed_v = set(removed_vertices)
    removed_e = {tuple(sorted(e)) for e in removed_edges}
    best = inf
    for v in range(g.num_vertices):
        if v in removed_v:
            continue
        deg = sum(1 for w in g.neighbors(v)
                  if w not in removed_v and tuple(sorted((v, w))) not in removed_e)
        best = min(best, deg)
    return best


def vertex_set_by_member_checks(g, vertices):
    """The vertex set with one range check per member, in input order: the
    body the min/max check replaced, kept to pin its error messages."""
    out = set()
    for v in vertices:
        g._check_vertex(v)
        out.add(v)
    return out


def induced_min_degree_by_full_walk(g, X):
    """Minimum degree of the subgraph induced by X, counting the kept
    neighbours of every member; inf for empty X."""
    xs = vertex_set_by_member_checks(g, X)
    best = inf
    for u in xs:
        deg = sum(1 for w in g.neighbors(u) if w in xs)
        if deg < best:
            best = deg
            if best == 0:
                break
    return best


def sample_connected_subgraph_reference(g, rng, size):
    """The connected sampler with separate chosen and boundary sets, as it
    was before it kept one set for both.  It calls ``rng.randrange`` for
    every draw, so it is the oracle for the library's ``getrandbits`` draw:
    same RNG calls, same result."""
    start = rng.randrange(g.num_vertices)
    chosen = {start}
    boundary = []
    in_boundary = set()
    for w in g.neighbors(start):
        boundary.append(w)
        in_boundary.add(w)
    while boundary and len(chosen) < size:
        idx = rng.randrange(len(boundary))
        v = boundary[idx]
        boundary[idx] = boundary[-1]
        boundary.pop()
        in_boundary.discard(v)
        chosen.add(v)
        for w in g.neighbors(v):
            if w not in chosen and w not in in_boundary:
                boundary.append(w)
                in_boundary.add(w)
    return sorted(chosen)


def sample_min_degree_subgraphs_reference(g, k, draws, rng):
    """`sample_min_degree_subgraphs` over the reference sampler and the
    full-walk degree count, drawing its sizes with the same RNG calls."""
    N = g.num_vertices
    out = []
    for _ in range(draws):
        if rng.random() < 0.5:
            size = max(k + 1, N - rng.randrange(0, 4 * g.n + 1))
        else:
            size = rng.randrange(k + 1, N + 1)
        xs = sample_connected_subgraph_reference(g, rng, size)
        if induced_min_degree_by_full_walk(g, xs) >= k:
            out.append(xs)
    return out, draws


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def components_by_union_find(num_vertices, edges, removed_vertices=(), removed_edges=()):
    """Component partition via union-find; edges as (u, v) pairs."""
    removed_v = set(removed_vertices)
    removed_e = {tuple(sorted(e)) for e in removed_edges}
    uf = UnionFind(num_vertices)
    for u, v in edges:
        if u in removed_v or v in removed_v:
            continue
        if tuple(sorted((u, v))) in removed_e:
            continue
        uf.union(u, v)
    groups = {}
    for v in range(num_vertices):
        if v in removed_v:
            continue
        groups.setdefault(uf.find(v), []).append(v)
    return sorted((sorted(g) for g in groups.values()), key=lambda c: c[0])


def connected_induced_subgraphs(adjacency, max_size):
    """Yield every connected vertex set up to max_size exactly once.

    Anchor rule: a set is grown only from its smallest member, extending by
    exclusive neighbors with larger ids, so nothing repeats.
    """
    n = len(adjacency)

    def expand(sub, ext, anchor):
        yield sorted(sub)
        if len(sub) == max_size:
            return
        for idx, w in enumerate(ext):
            fresh = [
                u
                for u in adjacency[w]
                if u > anchor and u not in sub and not any(u in adjacency[s] for s in sub)
            ]
            sub.add(w)
            yield from expand(sub, ext[idx + 1:] + fresh, anchor)
            sub.remove(w)

    for v in range(n):
        yield from expand({v}, [u for u in adjacency[v] if u > v], v)


def brute_is_k_cut(num_vertices, edges, k, mode, removal):
    """Whether removing `removal` (vertices, or (u, v) edges) leaves a
    disconnected remainder whose every vertex keeps k neighbors.

    A vertex remainder with fewer than two vertices counts as disconnected,
    matching the library's complete-graph convention; removing every vertex
    is no cut at all.
    """
    if mode == "vertex":
        removed_v, removed_e = set(removal), set()
        if len(removed_v) == num_vertices:
            return False
    else:
        removed_v, removed_e = set(), {tuple(sorted(e)) for e in removal}
    comps = components_by_union_find(num_vertices, edges, removed_v, removed_e)
    if len(comps) < 2 and num_vertices - len(removed_v) >= 2:
        return False
    adjacency = {v: set() for v in range(num_vertices)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return all(
        sum(1 for w in adjacency[v]
            if w not in removed_v and tuple(sorted((v, w))) not in removed_e) >= k
        for v in range(num_vertices) if v not in removed_v
    )


def brute_min_k_cut(num_vertices, edges, k, mode):
    """Minimum k-cut by enumerating every subset; only for tiny graphs.

    Returns the minimum size, or None when no valid cut exists; the rules
    are those of `brute_is_k_cut`.
    """
    if mode == "vertex":
        ground = list(range(num_vertices))
    else:
        ground = [tuple(sorted(e)) for e in edges]
    for size in range(1, len(ground) + (0 if mode == "vertex" else 1)):
        for combo in itertools.combinations(ground, size):
            if brute_is_k_cut(num_vertices, edges, k, mode, combo):
                return size
    return None


def connectivity_by_every_target(g):
    """(vertex, edge) connectivity with one max flow from rank 0 per other vertex.

    No symmetry is used: vertex flows go to every non-neighbor of rank 0 and
    edge flows to every other vertex.  With no non-neighbors the graph is
    complete and the vertex connectivity is |V| - 1.
    """
    adj = g.adjacency_lists()
    nbrs = set(adj[0])
    others = range(1, g.num_vertices)
    heads, to, cap0, _ = _flow_network(_keyed_rows(adj, "vertex")[0], True)
    kappa = min(
        (_max_flow_unit(heads, to, cap0.copy(), 1, 2 * t, g.degree)
         for t in others if t not in nbrs),
        default=g.num_vertices - 1,
    )
    heads, to, cap0, _ = _flow_network(_keyed_rows(adj, "edge")[0], False)
    lam = min(_max_flow_unit(heads, to, cap0.copy(), 0, t, g.degree) for t in others)
    return kappa, lam


def keyed_rows_reference(adj, mode):
    """(rows, ground size, edge list or None) for a plain adjacency list."""
    if mode == "vertex":
        return [tuple((w, w) for w in row) for row in adj], len(adj), None
    edges = sorted((u, w) for u in range(len(adj)) for w in adj[u] if w > u)
    eid = {e: i for i, e in enumerate(edges)}
    rows = [tuple((w, eid[_canon_edge(u, w)]) for w in row)
            for u, row in enumerate(adj)]
    return rows, len(edges), edges


def certified_by_path_lists(ws, base, L: int, x_end: int) -> bool:
    """oracle._certified as it was before the path bits: each flagged
    vertex lists its paths free of the base with `set.isdisjoint`, and a
    neighbour counts its free paths the same way."""
    vertex = ws.vertex
    if vertex and ws.N - len(base) < 3:
        return False
    for sink, hits, risk, high, width, first, keys, _ in ws.families:
        if not (vertex and (sink in base or L < sink < x_end)):
            break
    else:
        return False
    mask = sum(map(hits.__getitem__, base), risk) & high
    if not mask:
        return True
    removed = set(base)
    risky = mask
    while risky:
        bit = risky & -risky
        risky ^= bit
        v = bit.bit_length() // width - 1
        if vertex and v in removed:
            continue
        alive = [p for p in range(first[v], first[v + 1]) if removed.isdisjoint(keys[p])]
        if len(alive) > 1 or (alive and not any(L < x < x_end for x in keys[alive[0]])):
            continue
        robust = 0
        for w, key in ws.rows[v]:
            if key in removed:
                continue
            if (w == sink or not mask >> ((w + 1) * width - 1) & 1
                    or sum(removed.isdisjoint(keys[p])
                           for p in range(first[w], first[w + 1])) > 1):
                robust += 1
                if robust == 2:
                    break
        else:
            return False
    return True


def growth_search_reference(adj, k: int, mode: str, stats: SearchStats,
                            max_nodes: int | None, deadline: float | None):
    """Enumerate connected induced subgraphs once each and score their cuts.

    The recursive walk with add/remove closures that `oracle._growth_search`
    replaced, kept verbatim as the reference for its outcomes and stats.
    It recurses once per added vertex, so deep walks hit the recursion
    limit; call it only where the cap |V|/2 stays well below it.

    The smallest side of any optimal cut is such a subgraph of size at most
    |V|/2 with induced minimum degree >= k, so exhausting that class yields
    a sound lower bound; candidates that validate give the upper bound.
    For edge cuts both bounds meet automatically once the class is spent.
    The adjacency list must describe a connected graph: a whole component
    has an empty boundary, which would pass for a cut of size 0.
    """
    N = len(adj)
    rows, ground, edges = _keyed_rows(adj, mode)
    ws = _WorkerState(rows, ground, mode)
    # one added vertex shrinks a vertex boundary by at most 1 and an edge
    # boundary by at most its degree
    shrink = 1 if mode == "vertex" else max(map(len, adj))
    cap = N // 2
    stats.notes.append(f"connected induced subgraphs up to size {cap}")

    in_sub = bytearray(N)
    nbr_cnt = [0] * N
    sub: list[int] = []
    nodes, truncated, lb, ub, witness = 0, False, inf, inf, None
    # side vertices short of k inner neighbours, vertex and edge boundary
    below_k = boundary = cut_edges = 0

    def add(v):
        nonlocal below_k, boundary, cut_edges
        in_sub[v] = 1
        sub.append(v)
        # nbr_cnt[v] of v's edges turn internal, the rest join the boundary
        cut_edges += len(adj[v]) - 2 * nbr_cnt[v]
        if nbr_cnt[v] < k:
            below_k += 1
        if nbr_cnt[v] > 0:
            boundary -= 1
        for w in adj[v]:
            if in_sub[w]:
                if nbr_cnt[w] == k - 1:
                    below_k -= 1
            elif nbr_cnt[w] == 0:
                boundary += 1
            nbr_cnt[w] += 1

    def remove(v):
        nonlocal below_k, boundary, cut_edges
        sub.pop()
        in_sub[v] = 0
        for w in adj[v]:
            nbr_cnt[w] -= 1
            if in_sub[w]:
                if nbr_cnt[w] == k - 1:
                    below_k += 1
            elif nbr_cnt[w] == 0:
                boundary -= 1
        cut_edges -= len(adj[v]) - 2 * nbr_cnt[v]
        if nbr_cnt[v] < k:
            below_k -= 1
        if nbr_cnt[v] > 0:
            boundary += 1

    def extend(ext, anchor):
        nonlocal nodes, truncated, lb, ub, witness
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            truncated = True
            return
        if deadline is not None and nodes % 4096 == 0 \
                and time.monotonic() > deadline:
            truncated = True
            return
        b = boundary if mode == "vertex" else cut_edges
        if not below_k and len(sub) > k and b:
            if b < lb:
                lb = b
            if b < ub:
                # the neighborhood, or the boundary's edge ids; ids follow
                # sorted (u, w) order, so the edge witness comes out sorted
                cut = sorted({key for u in sub for w, key in rows[u] if not in_sub[w]})
                disconnected, mind = _check_removal(ws, cut)
                if disconnected and mind >= k:
                    ub = b
                    witness = cut if mode == "vertex" else [edges[e] for e in cut]
        if len(sub) == cap:
            return
        # descendants of this state can never beat the incumbent once the
        # bound below exceeds it; skipped descendants therefore cannot hold
        # the class minimum either
        if b - (cap - len(sub)) * shrink > ub:
            return
        for idx in range(len(ext)):
            if truncated:
                return
            w = ext[idx]
            fresh = [u for u in adj[w]
                     if u > anchor and not in_sub[u] and nbr_cnt[u] == 0]
            add(w)
            extend(ext[idx + 1:] + fresh, anchor)
            remove(w)

    for v in range(N):
        if truncated:
            break
        add(v)
        extend([u for u in adj[v] if u > v], v)
        remove(v)

    stats.nodes = nodes
    stats.lower_bound = None if lb is inf else lb
    value = None if ub is inf else ub
    if truncated:
        return False, value, witness
    if mode == "vertex" and lb is not inf and ub != lb:
        stats.notes.append("bounds did not close: some minimal neighborhood "
                           "failed remainder degree validation")
        return False, value, witness
    if value is None:
        stats.notes.append("no side with both induced minimum degrees >= k exists"
                           if mode == "edge" else
                           "no admissible side exists, so no cut exists")
    return True, value, witness
