"""Exact minimum k-super cut search on small star graphs.

Two strategies provide ground truth for the cut-size formula (k+1)!(n-k-1):

* subset enumeration walks removal sets in ascending size below the
  constructive bound.  Sets of size s are decided through their size s-1
  prefix: one articulation-point (or bridge) scan of the partially removed
  graph classifies every extension at once, and disjoint paths to a sink
  vertex skip the scans they prove would find nothing: their lane sums
  clear most of a group's bases at once, in C-level iterator chains, and
  only the others are looked at one by one.  The max flows that
  find those paths also give the connectivity, and sizes below it are
  pruned wholesale, since such removals cannot disconnect.
  Odd edge sizes are skipped outright if the graph is connected and every
  degree is even: a parity lemma shows they hold no new minimum.  A
  connected graph has no cut when k >= 1 and k is at least its largest
  degree, which is settled before any size.
* component growth enumerates connected induced subgraphs exactly once
  (anchor rule) and scores their neighborhoods or edge boundaries.  Its
  lower bound holds only on a connected graph.

Both read only a plain adjacency list and judge candidates with one removal
check; `_oracle` alone knows the graph is a star and passes in the formula
and the automorphisms that build the paths, whose flow counts give the
connectivity once the maps are checked to reach every vertex.  Each
strategy reports only what it proved; one rule in `_oracle` labels the
result.  It is exact only together with a statement of what was exhausted;
anything truncated by budget is an upper bound.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from dataclasses import dataclass, field
from math import comb, inf

from .core import (
    InputError,
    InvariantViolationError,
    StarGraph,
)
from .cuts import (
    cut_size_formula,
    is_k_edge_cut,
    is_k_vertex_cut,
    substar_isolating_cut,
)
from .symmetry import (
    check_automorphisms,
    orbits,
    star_maps,
)

# The path family with its max-flow bound, and in-table searches, are only
# attempted while the graph is small enough for them to finish in seconds.
_FLOW_PREFILTER_MAX_N = 5
_TABLE_SEARCH_MAX_N = 5
# A subset-walk level forks the worker pool only when its groups hold at
# least this many bases; a smaller level runs in the parent, where a fork
# costs more than it saves.  A pooled level runs one task per group, the
# largest first, so no large task is left to run alone at the end.
# Measured on S5 k=1 with most bases cleared in bulk (see _chunks), 1
# worker against 2, fresh interpreters on a 2-vCPU host, 3 to 7 runs a
# point: vertex mode is about even from 47,905 to 198,485 bases and faster
# pooled at 273,819; edge mode is faster serial at 47,905 and 98,770, about
# even at 198,485 and faster pooled from 392,084.  Both crossovers lie at
# or above the threshold, too vaguely to move it: a pooled level in the
# band loses about 0.03 s at most.  The benchmark and `table` levels plan
# at most 25,523 bases, and the unbudgeted S5 walks 273,819 and more.
_POOL_MIN_BASES = 100_000
# A task clears its bases in bulk, and checks its deadline, a chunk at a time
_CHUNK = 256
DEFAULT_TABLE_MAX_NODES = 500_000

_STRATEGIES = ("auto", "subset-enumeration", "component-growth")


@dataclass
class SearchBudget:
    """Limits for an oracle run; strategy "auto" means subset enumeration."""

    max_nodes: int | None = None
    max_wall_time: float | None = None
    strategy: str = "auto"

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise InputError("max_nodes must be positive")
        if self.max_wall_time is not None and not self.max_wall_time > 0:
            raise InputError("max_wall_time must be positive")
        if self.strategy not in _STRATEGIES:
            raise InputError(f"strategy must be one of {_STRATEGIES}")


@dataclass
class SearchStats:
    """Bookkeeping that justifies the result, node counts included."""

    strategy: str
    workers: int
    nodes: int = 0
    candidates_checked: int = 0
    sizes_examined: list[int] = field(default_factory=list)
    pruned_sizes: list[int] = field(default_factory=list)
    completed: bool = False
    lower_bound: int | None = None
    seed: int | None = None
    notes: list[str] = field(default_factory=list)
    wall_time: float = field(default=0.0, compare=False)


@dataclass
class OracleResult:
    """Outcome of a minimum k-super cut search."""

    mode: str  # "vertex" or "edge"
    n: int
    k: int
    kind: str  # "exact", "upper-bound-only", "no-cut-exists"
    value: int | None
    witness: list | None
    formula: int | None
    stats: SearchStats


@dataclass
class FormulaRow:
    """One (n, k) row of the formula comparison table."""

    n: int
    k: int
    formula: int
    construction_ok: bool
    oracle_kind: str
    oracle_value: int | None
    agree: bool


# ---------------------------------------------------------------------------
# classical connectivity via unit-capacity max flow (Menger)
# ---------------------------------------------------------------------------


def _flow_network(rows, vertex):
    """The unit flow network of the keyed rows; each arc carries the removal
    key it crosses.  Returns (heads, to, cap0, keys), where arc a ^ 1 is the
    residual of arc a.  In vertex mode vertex v has an in-half 2v and an
    out-half 2v+1, and the arc 2v -> 2v+1 is keyed v.  In edge mode both
    arcs of an edge are keyed by its id.  Every other arc is keyed -1.
    """
    pairs = [(2 * v, 2 * v + 1, 0, v) for v in range(len(rows))] if vertex else []
    for u, row in enumerate(rows):
        for w, key in row:
            if w > u:
                pairs += ([(2 * u + 1, 2 * w, 0, -1), (2 * w + 1, 2 * u, 0, -1)]
                          if vertex else [(u, w, 1, key)])
    # a pair is the unit arc u -> w and its residual w -> u of capacity
    # `back`, which carries the key too only when it is an arc of its own
    to = [x for u, w, _, _ in pairs for x in (w, u)]
    cap0 = [c for _, _, back, _ in pairs for c in (1, back)]
    keys = [k for _, _, back, key in pairs for k in (key, key if back else -1)]
    heads = [[] for _ in range(2 * len(rows) if vertex else len(rows))]
    for a in range(len(to)):
        heads[to[a ^ 1]].append(a)
    return heads, to, cap0, keys


def _max_flow_unit(heads, to, cap, source, sink, limit):
    """Edmonds-Karp with unit augmentations, stopping at the given limit."""
    V = len(heads)
    flow = 0
    while flow < limit:
        parent = [-1] * V
        parent[source] = -2
        # breadth-first: the list grows while it is read
        queue = [source]
        for u in queue:
            for a in heads[u]:
                if cap[a]:
                    w = to[a]
                    if parent[w] == -1:
                        parent[w] = a
                        queue.append(w)
            if parent[sink] != -1:
                break
        else:
            break
        v = sink
        while v != source:
            a = parent[v]
            cap[a] -= 1
            cap[a ^ 1] += 1
            v = to[a ^ 1]
        flow += 1
    return flow


def _orbit_paths(rows, mode, gens, skip=()):
    """Disjoint paths to vertex 0 from one vertex of each orbit, by max flow.

    The orbits are those of the group the maps `gens` generate (see
    symmetry.orbits); with no maps every vertex is its own orbit.  For each
    orbit but vertex 0's and those whose smallest vertex is in `skip`, one
    unit max flow (Menger) from its smallest vertex, rep, to vertex 0 yields
    a maximum set of internally vertex-disjoint paths (vertex mode) or
    edge-disjoint walks (edge mode).  Returns (rep, steps, paths) per orbit,
    with `steps` as symmetry.orbits gives them and each path as the keys its
    arcs carry (see _flow_network): its inner vertices, or its edge ids.
    """
    vertex = mode == "vertex"
    heads, to, cap0, keys = _flow_network(rows, vertex)
    flows = []
    for rep, steps in orbits(len(rows), gens):
        if rep == 0 or rep in skip:
            continue
        cap = cap0.copy()
        # the sink, node 0, is vertex 0 or its in-half
        source = 2 * rep + 1 if vertex else rep
        _max_flow_unit(heads, to, cap, source, 0, len(rows[rep]))
        paths = []
        # an arc carries flow when its capacity is spent; following one
        # restores it, so no walk takes an arc twice
        for a in heads[source]:
            if cap[a] or not cap0[a]:
                continue
            path = []
            b = a
            while True:
                cap[b] = 1
                if keys[b] >= 0:
                    path.append(keys[b])
                u = to[b]
                if u == 0:
                    break
                b = next(c for c in heads[u] if cap0[c] and not cap[c])
            paths.append(tuple(path))
        flows.append((rep, steps, tuple(paths)))
    return flows


def _connectivity(adj, mode, flows):
    """The vertex or edge connectivity of a vertex-transitive graph, from
    the `flows` of `_orbit_paths` under vertex 0's stabilizer; both are
    for the caller to check (symmetry.check_automorphisms).

    Transitivity lets vertex 0 stand for every source, and a map that fixes
    vertex 0 keeps the path count of every vertex of an orbit.  So this is
    the fewest paths from a non-neighbour of vertex 0 (vertex mode; with no
    non-neighbour the graph is complete, and the connectivity is |V| - 1 by
    convention) or from any vertex (edge mode).
    """
    nbrs = adj[0] if mode == "vertex" else ()
    return min((len(paths) for rep, _, paths in flows if rep not in nbrs),
               default=len(adj) - 1)


def classical_connectivity(g: StarGraph) -> tuple[int, int]:
    """Exact (vertex, edge) connectivity by counting disjoint paths.

    One flow per orbit of the identity's stabilizer (see
    symmetry.star_maps, checked to reach every vertex first) stands in for
    the whole orbit: S6 takes 35 flow runs, not 1,429; see _connectivity.
    The vertex computation skips the neighbours (0 i), which form one orbit.
    """
    if g.n < 2:
        raise InputError("connectivity needs n >= 2")
    adj = g.adjacency_lists()
    maps = star_maps(adj)
    if not check_automorphisms(adj, maps):
        raise InvariantViolationError("the star maps do not reach every vertex")
    kappa = _connectivity(adj, "vertex", _orbit_paths(
        _keyed_rows(adj, "vertex")[0], "vertex", maps[0], set(adj[0])))
    lam = _connectivity(adj, "edge", _orbit_paths(
        _keyed_rows(adj, "edge")[0], "edge", maps[0]))
    return kappa, lam


# ---------------------------------------------------------------------------
# subset enumeration
# ---------------------------------------------------------------------------


def _plan_level(ground: int, s: int, node_budget: int | None):
    """Lay out the size-s level: bases grouped by their largest element.

    Returns (groups, truncated).  A group (L, first base, base count,
    extension end) is one task of `_run_task`: its bases are the size s-1
    sets with largest element L, and each decides the extensions x with
    L < x < extension end.  Every size-s subset is decided exactly once,
    via the base formed by dropping its largest member.  A node budget is
    a hard cap: the last planned base decides only the extensions the
    budget has left, so the plan is deterministic and independent of
    worker count.  Groups come in ascending L, and a full group holds
    comb(L, s - 2) bases, so `_subset_search` dispatches them in reverse,
    largest first.
    """
    groups: list[tuple[int, int, int, int]] = []
    decided = 0
    if node_budget is not None and node_budget <= 0:
        return groups, True
    if s == 1:
        if node_budget is not None and node_budget < ground:
            return [(-1, 0, 1, node_budget)], True
        return [(-1, 0, 1, ground)], False
    for L in range(s - 2, ground - 1):
        cnt = comb(L, s - 2)
        per = ground - 1 - L
        if node_budget is None or decided + cnt * per <= node_budget:
            groups.append((L, 0, cnt, ground))
            decided += cnt * per
            continue
        q, r = divmod(node_budget - decided, per)
        if q:
            groups.append((L, 0, q, ground))
        if r:
            groups.append((L, q, 1, L + 1 + r))
        return groups, True
    return groups, False


class _WorkerState:
    """Scratch space for the scans of one search.  The subset walk keeps
    its state in `_WS`, built before any worker forks, so workers inherit it.

    `rows[v]` holds (neighbour, removal key) pairs: the key is the neighbour
    itself in vertex mode and the edge id in edge mode, so one stamp array
    over keys marks removed vertices or removed edges alike.
    """

    def __init__(self, rows, ground, mode, deadline=None):
        self.vertex = mode == "vertex"
        self.deadline = deadline
        self.rows = rows
        self.N = len(rows)
        self.ground = ground
        self.rstamp = [0] * ground
        self.vstamp = [0] * self.N
        self.astamp = [0] * self.N
        self.disc = [0] * self.N
        self.low = [0] * self.N
        self.gen = 0
        self.families = None  # see _path_family


_WS: _WorkerState | None = None


def _keyed_rows(adj, mode):
    """(rows, ground size, edge list or None) for a plain adjacency list."""
    if mode == "vertex":
        return [tuple((w, w) for w in row) for row in adj], len(adj), None
    # edges are numbered in sorted (u, w), u < w, order: each vertex holds
    # the ids of its sorted upper neighbours, and an arc down reads its id
    # from the lower end
    ids = []
    ground = 0
    for u, row in enumerate(adj):
        upper = sorted(filter(u.__lt__, row))
        ids.append(dict(zip(upper, range(ground, ground + len(upper)))))
        ground += len(upper)
    rows = [tuple([(w, ids[u][w]) if w > u else (w, ids[w][u]) for w in row])
            for u, row in enumerate(adj)]
    return rows, ground, [(u, w) for u, upper in enumerate(ids) for w in upper]


def _path_family(rows, ground, edges, flows, maps=None):
    """Disjoint paths from every vertex to a sink, indexed by key.

    `flows` holds the paths of `_orbit_paths` from the smallest vertex of
    each orbit to vertex 0, for orbits under the generators `maps`[0] of
    vertex 0's stabilizer (see symmetry.star_maps); `maps`[1][0] is a map
    that moves vertex 0.  A map that fixes vertex 0 carries a maximum family
    of v to one of its image, so every other member of an orbit takes the
    paths of the member it was reached from, mapped (edge ids through their
    end vertices).  With no maps every vertex is its own orbit.  In vertex
    mode the moving map carries the whole family to one whose sink is its
    image of vertex 0, with no flow at all: a second sink for the bases
    that remove vertex 0.  The graph need not be vertex-transitive.
    `edges` is the edge list of `_keyed_rows`, None in vertex mode.

    Returns a list of families, or None when some vertex has fewer than
    two paths.  A family is (sink, hits, risk, high, width, first, keys,
    through).  The paths of v have the ids first[v] to first[v + 1] - 1,
    path p holds the removal keys keys[p]: its inner vertices, or its edge
    ids, and through[key] has bit p set for every path p that holds key.
    The other four count, for every vertex in one integer sum, the keys of
    a removal that lie on its paths.  Vertex v owns the `width`-bit lane at
    bit v * width; hits[key] has a 1 in the lane of every vertex with a path
    through key.  Summed over the removal and added to `risk`, a lane
    reaches its top bit (`high`) exactly when at least all but one of that
    vertex's paths hold a removed key; lanes are wide enough that no sum
    carries into the next.  In vertex mode hits[sink] and `high` also hold
    the sink bit, one bit above every lane, so the masked sum of a removal
    that holds the sink is never 0 (see _chunks).
    """
    N = len(rows)
    vertex = edges is None
    gens, move = (maps[0], maps[1][0]) if maps is not None else ([], None)
    if vertex:
        keymaps = gens
    else:
        arc_key = {(u, w): key for u, row in enumerate(rows) for w, key in row}
        keymaps = [[arc_key[f[u], f[w]] for u, w in edges] for f in gens]
    paths: list[tuple] = [()] * N
    for rep, steps, found in flows:
        if len(found) < 2:
            return None
        paths[rep] = found
        for u, w, j in steps:
            km = keymaps[j]
            paths[u] = tuple(tuple(map(km.__getitem__, path)) for path in paths[w])
    width = max(ground, N).bit_length() + 1
    families = [_lanes(0, paths, ground, width, vertex)]
    if vertex and move is not None:
        moved: list[tuple] = [()] * N
        for v, vpaths in enumerate(paths):
            moved[move[v]] = tuple(tuple(map(move.__getitem__, path)) for path in vpaths)
        families.append(_lanes(move[0], moved, ground, width, vertex))
    return families


def _lanes(sink, paths, ground, width, vertex):
    """The family (see _path_family) of the paths of each vertex to `sink`."""
    half = 1 << (width - 1)
    hits = [0] * ground
    risk = high = 0
    if vertex:
        # the sink bit, above every lane: a removal that holds the sink
        # always leaves it in the mask.  The sink is on none of its own
        # paths, so no lane changes
        hits[sink] = high = 1 << (len(paths) * width)
    through = [0] * ground
    first = [0]
    keys: list[tuple] = []
    for v, vpaths in enumerate(paths):
        if v != sink:
            lane = 1 << (v * width)
            risk |= (half - len(vpaths) + 1) * lane
            high |= half * lane
            for p, path in enumerate(vpaths, len(keys)):
                for key in path:
                    hits[key] |= lane
                    through[key] |= 1 << p
            keys.extend(vpaths)
        first.append(len(keys))
    return sink, hits, risk, high, width, first, keys, through


def _certified(ws: _WorkerState, base, L: int, x_end: int) -> bool:
    """Whether a path family proves that the scan of `base` finds one
    component and no critical key in (L, x_end), so the base decides its
    extensions with no check.

    The paths of a vertex are disjoint, so a key lies on at most one of
    them.  A vertex that keeps one of its paths reaches the sink, and one
    that keeps two reaches it after any one more key; a vertex that keeps
    a single path reaches it after any key off that path.  Only vertices
    with at most one path free of the base's keys need a look, and the
    lane sum finds every such vertex, and also some that keep two, where
    two removed keys lie on one path.  The paths the base cuts
    are one OR of its keys' path bits, so the free paths of v are the
    clear bits between first[v] and first[v + 1].  `_run_task` hands over
    only bases that this family's lane sums kept (see _chunks), so the
    `if not mask` return serves direct callers only.

    A vertex that its own paths do not clear is cleared through two of its
    links whose keys are not in the base, each to the sink or to a
    neighbour that keeps two paths free of the base (its lane bit clear,
    or two clear path bits).  One more key is one vertex or one edge: it
    cuts at most one of the two links, and it lies on at most one of the
    other neighbour's paths, so the vertex still reaches the sink through
    that neighbour.  In vertex mode the sink must survive, so the first
    family whose sink is neither in the base nor among its extensions is
    used, and a base that may remove every sink is scanned.  The
    fewer-than-two-survivors convention is left to the scan.
    """
    vertex = ws.vertex
    if vertex and ws.N - len(base) < 3:
        return False
    for sink, hits, risk, high, width, first, keys, through in ws.families:
        if not (vertex and (sink in base or L < sink < x_end)):
            break
    else:
        return False
    mask = sum(map(hits.__getitem__, base), risk) & high
    if not mask:
        return True
    cut = 0
    for key in base:
        cut |= through[key]
    risky = mask
    while risky:
        bit = risky & -risky
        risky ^= bit
        v = bit.bit_length() // width - 1
        if vertex and v in base:
            continue
        free = ~cut & ((1 << first[v + 1]) - (1 << first[v]))
        if free & (free - 1) or (free and not any(L < x < x_end
                                                  for x in keys[free.bit_length() - 1])):
            continue
        robust = 0
        for w, key in ws.rows[v]:
            if key in base:
                continue
            if (w == sink or not mask >> ((w + 1) * width - 1) & 1
                    or (wfree := ~cut & ((1 << first[w + 1]) - (1 << first[w]))) & (wfree - 1)):
                robust += 1
                if robust == 2:
                    break
        else:
            return False
    return True


def _stamp(ws: _WorkerState, removal) -> int:
    ws.gen += 1
    gen = ws.gen
    rst = ws.rstamp
    for b in removal:
        rst[b] = gen
    return gen


def _scan(ws: _WorkerState, base):
    """(components, critical keys) of the graph minus the keys in `base`.

    One Tarjan low-link DFS.  Critical keys are the articulation points in
    vertex mode and the bridges (edge ids) in edge mode: removing any one
    of them splits its component.  Each stack entry resumes its row's
    iterator, and the entry's parent key skips the tree edge back up.  In
    vertex mode the key of w is w itself, which never occurs in w's own
    row, so the parent vertex is not skipped; that only lowers low[v] to
    disc[parent], which the articulation test `low >= disc` tolerates.
    """
    gen = _stamp(ws, base)
    rst, rows, vst, disc, low, ast = (ws.rstamp, ws.rows, ws.vstamp, ws.disc,
                                      ws.low, ws.astamp)
    vertex = ws.vertex
    timer = 0
    ncomp = 0
    critical: list[int] = []
    for root in range(ws.N):
        if vst[root] == gen or (vertex and rst[root] == gen):
            continue
        ncomp += 1
        root_children = 0
        vst[root] = gen
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(rows[root]))]
        while True:
            v, pkey, it = stack[-1]
            for w, key in it:
                if rst[key] == gen or key == pkey:
                    continue
                if vst[w] == gen:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    vst[w] = gen
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, key, iter(rows[w])))
                    break
            else:
                stack.pop()
                if not stack:
                    break
                p = stack[-1][0]
                lv = low[v]
                if lv < low[p]:
                    low[p] = lv
                if not vertex:
                    if lv > disc[p]:
                        critical.append(pkey)
                elif p == root:
                    root_children += 1
                elif lv >= disc[p] and ast[p] != gen:
                    ast[p] = gen
                    critical.append(p)
        if root_children >= 2:
            critical.append(root)
    return ncomp, critical


def _check_removal(ws: _WorkerState, removal):
    """(disconnected, smallest surviving degree) for a removal.

    The removal is a valid k-cut exactly when it disconnects and the degree
    is at least k; the rules are those of is_k_vertex_cut and
    is_k_edge_cut: in vertex mode fewer than two survivors count as
    disconnected, and removing every vertex is no cut at all."""
    gen = _stamp(ws, removal)
    rst, rows, vst = ws.rstamp, ws.rows, ws.vstamp
    vertex = ws.vertex
    survivors = ws.N - len(removal) if vertex else ws.N
    if survivors == 0:
        return False, 0
    ncomp = 0
    mind = ws.N
    stack: list[int] = []
    for root in range(ws.N):
        if vst[root] == gen or (vertex and rst[root] == gen):
            continue
        ncomp += 1
        vst[root] = gen
        stack.append(root)
        while stack:
            u = stack.pop()
            deg = 0
            for w, key in rows[u]:
                if rst[key] == gen:
                    continue
                deg += 1
                if vst[w] != gen:
                    vst[w] = gen
                    stack.append(w)
            if deg < mind:
                mind = deg
    return ncomp >= 2 or (vertex and survivors < 2), mind


def _settle(ks, bests, reach, removal, mind):
    """Record a disconnecting removal for every k it is the first valid one for.

    Removals come in ascending order, so the first valid one is the
    smallest.  It is valid for every k <= mind, so the ks settled so far
    are always a prefix of the ascending `ks`; returns its new length."""
    while reach < len(ks) and ks[reach] <= mind:
        bests[reach] = removal
        reach += 1
    return reach


def _chunks(ws: _WorkerState, s: int, L: int, start: int, count: int, x_end: int):
    """The bases of one group (see _plan_level) in chunks of _CHUNK, each as
    (cleared, bases): how many the lane sums clear at once, and the others
    in their original order, for `_certified` and the scan.

    Each family clears the bases whose lane sum misses `high`, for the
    reason `_certified`'s first test holds: every surviving vertex keeps
    two paths to the sink, so no one more key disconnects the graph.  A
    family whose sink is among the extensions clears nothing; in vertex
    mode the sink bit keeps every base that holds the sink, and with it
    every base that leaves fewer than three survivors, since each vertex
    but the sink then has a path through a removed vertex.  The first
    family sums the combinations of hits alongside those of the keys, a
    later one only the hits of the bases left; every loop runs in C."""
    if L == -1:
        yield 0, [()]
        return
    rests = itertools.islice(itertools.combinations(range(L), s - 2),
                             start, start + count)
    usable = [f for f in ws.families or ()
              if not (ws.vertex and L <= f[0] < x_end)]
    if usable:
        sums = itertools.islice(itertools.combinations(usable[0][1][:L], s - 2),
                                start, start + count)
    for done in range(0, count, _CHUNK):
        size = min(_CHUNK, count - done)
        kept = itertools.islice(rests, size)
        for i, family in enumerate(usable):
            hits, risk, high = family[1:4]
            rests_hits = (itertools.islice(sums, size) if i == 0 else
                          map(map, itertools.repeat(hits.__getitem__), kept))
            masks = map(sum, rests_hits, itertools.repeat(risk + hits[L]))
            kept = list(itertools.compress(kept, map(high.__and__, masks)))
        kept = [rest + (L,) for rest in kept]
        yield size - len(kept), kept


def _run_task(task):
    """Decide every subset covered by one group of bases; see _plan_level.

    The lane sums clear most bases a chunk at a time (see _chunks); each
    other base is cleared by `_certified` or scanned, and its candidate
    extensions are checked.  Returns (nodes, checked, smallest valid
    removal or None for each of the ascending `ks`, expired)."""
    ws = _WS
    s, L, start, count, x_end, ks = task
    vertex = ws.vertex
    deadline = ws.deadline
    per = x_end - 1 - L
    bests = [None] * len(ks)
    reach = 0
    nodes = 0
    checked = 0
    expired = False

    for cleared, bases in _chunks(ws, s, L, start, count, x_end):
        if deadline is not None and time.monotonic() > deadline:
            expired = True
            break
        nodes += cleared * per
        for base in bases:
            nodes += per
            if ws.families is not None and _certified(ws, base, L, x_end):
                continue
            ncomp, critical = _scan(ws, base)
            if ncomp >= 2 or (vertex and ws.N - s < 2):
                # already split, or the extension leaves fewer than two
                # survivors, which counts as disconnected by convention
                cands = range(L + 1, x_end)
            else:
                cands = sorted(c for c in critical if L < c < x_end)
            for x in cands:
                removal = base + (x,)
                disconnected, mind = _check_removal(ws, removal)
                checked += 1
                if disconnected:
                    reach = _settle(ks, bests, reach, removal, mind)
    return nodes, checked, bests, expired


def _construction_witness(g: StarGraph, k: int, mode: str, formula):
    """The constructed cut as a `mode` witness once its verdict holds; None
    when there is no formula (k > n-2) to construct against."""
    if formula is None:
        return None
    cut = substar_isolating_cut(g.n, k, graph=g)
    witness = list(cut.t) if mode == "vertex" else [tuple(e) for e in cut.f]
    return _judged(g, k, mode, witness, "constructed cut")


def _judged(g: StarGraph, k: int, mode: str, witness, what: str):
    """`witness` once the public verdict holds it a valid `mode` k-cut of g.
    A malformed witness is a fault of this program, not of its input."""
    judge = is_k_vertex_cut if mode == "vertex" else is_k_edge_cut
    try:
        verdict = judge(g, witness, k)
    except InputError as exc:
        raise InvariantViolationError(f"{what} is malformed: {exc}") from exc
    if not verdict.valid:
        raise InvariantViolationError(f"{what} failed validation: {verdict.reason}")
    return witness


def _subset_search(adj, ks, mode: str, stats: list[SearchStats],
                   max_nodes: int | None, deadline: float | None, workers: int,
                   formulas: list, maps=None):
    """Walk removal sets in ascending size for every k of the ascending
    `ks` at once, to below each k's formula; see _oracle.  `stats` and
    `formulas` run parallel to `ks`, and so does the returned list of
    outcomes.

    `maps` are automorphisms for the path family (see _path_family), as
    symmetry.star_maps gives them and symmetry.check_automorphisms checks
    them against `adj`.  With them the flows of `_orbit_paths` run once,
    before the walk and before any worker forks, and build the family.
    When the maps also reach every vertex, the flows give the connectivity
    (see _connectivity), and the walk starts there, since smaller removals
    cannot disconnect.  Otherwise it starts at size 1.

    The scans, and the candidates they yield, do not depend on k: a
    disconnecting removal is valid for k exactly when its smallest
    surviving degree is at least k.  Each k leaves the walk where a walk
    for it alone would stop: after the first size holding a valid removal
    (the minimum, since every smaller size was decided in full or ruled
    out), past its formula - 1, or when the budget runs out.  The ks still
    walking have seen the same sizes, so they share one node count and one
    budget, and each k's stats are those of a walk for it alone.

    In edge mode on a connected graph whose degrees are all even, an odd
    size holds no new minimum (see the parity lemma at the skip), so it is
    pruned with no nodes spent; every size the walk decides is planned by
    `_plan_level` and decided by `_run_task`, one task per planned group,
    largest group first.

    With `workers` > 1 a level runs on the worker pool only when its groups
    hold at least _POOL_MIN_BASES bases, and the pool is forked at the
    first such level and torn down when the walk returns or raises; every
    smaller level runs in-process, so a walk without one forks nothing.
    Results do not depend on where a level runs or on the task order."""
    global _WS
    rows, ground, edges = _keyed_rows(adj, mode)
    ws = _WS = _WorkerState(rows, ground, mode, deadline)
    transitive = maps is not None and check_automorphisms(adj, maps)
    conn_lb = 1
    if maps is not None:
        flows = _orbit_paths(rows, mode, maps[0])
        if transitive:
            conn_lb = _connectivity(adj, mode, flows)
        ws.families = _path_family(rows, ground, edges, flows, maps)
    connected = _scan(ws, ())[0] == 1
    # a minimal disconnecting edge set is a bond only in a connected graph
    parity = mode == "edge" and connected and all(len(row) % 2 == 0 for row in rows)

    outcomes: list = [None] * len(ks)
    walking: list[tuple[int, int]] = []  # (index into ks, largest size)
    for i, (k, st, formula) in enumerate(zip(ks, stats, formulas)):
        if connected and 1 <= k and k >= max(map(len, rows)):
            # A survivor keeps degree >= k only by keeping every neighbour, so
            # the survivors are a union of components: the whole connected
            # graph, which is no cut.  A lone survivor would keep degree 0 < k.
            st.notes.append(
                "no cut exists: k is at least every degree, so the survivors "
                "would keep all their neighbours and be the whole connected graph"
            )
            outcomes[i] = (True, None, None)
            continue
        if parity:
            st.notes.append(
                "odd sizes decided by boundary parity: every degree is even, so "
                "minimal disconnecting edge sets have even size"
            )
        if transitive:
            st.lower_bound = conn_lb
            st.notes.append(
                f"sizes below {conn_lb} pruned: smaller removals cannot disconnect "
                "(classical connectivity computed by max flow)"
            )
        if formula is not None:
            max_size = formula - 1
        else:
            # a vertex removal must leave at least one survivor
            max_size = ground - 1 if mode == "vertex" else ground
        st.pruned_sizes.extend(range(1, min(conn_lb, max_size + 1)))
        walking.append((i, max_size))

    nodes = 0
    checked = 0

    def leave(i, truncated, best=None):
        """Report k = ks[i] as its own walk would, at the counts so far."""
        st, formula = stats[i], formulas[i]
        st.nodes = nodes
        st.candidates_checked = checked
        if best is not None:
            if formula is not None and len(best) < formula:
                st.notes.append("found a cut below the constructive bound")
            witness = [edges[e] for e in best] if mode == "edge" else list(best)
            outcomes[i] = (True, len(best), witness)
        elif truncated:
            st.notes.append("budget exhausted before the search class was decided")
            outcomes[i] = (False, None, None)
        else:
            st.notes.append(
                f"all removal sets of size < {formula} decided invalid; the "
                "constructed cut attains the bound" if formula is not None else
                "every proper removal set was decided; no valid cut exists"
            )
            outcomes[i] = (True, None, None)

    pool = None
    with contextlib.ExitStack() as stack:
        for s in itertools.count(conn_lb):
            for i, max_size in walking:
                if max_size < s:
                    leave(i, False)
            walking = [w for w in walking if w[1] >= s]
            if not walking:
                break
            if parity and s % 2 == 1:
                # A bond (minimal disconnecting edge set) of a connected
                # graph is the boundary of one side, and when every degree
                # is even a boundary has even size.  So a valid k-cut F of
                # odd size holds a bond B with |B| < |F|.  For an edge e of
                # F not in B, F - e still holds B and disconnects, and
                # putting e back lowers no degree: F - e is a valid k-cut
                # of size |F| - 1.  A k still walking has none at s - 1 (a
                # size decided in full, pruned by connectivity, or the
                # empty set, which splits no connected graph), so it has
                # none at s either, and the size costs no nodes or budget.
                for i, _ in walking:
                    stats[i].pruned_sizes.append(s)
                continue
            remaining = max_nodes - nodes if max_nodes is not None else None
            if (remaining is not None and remaining <= 0) or \
                    (deadline is not None and time.monotonic() > deadline):
                for i, _ in walking:
                    leave(i, True)
                break

            wks = [ks[i] for i, _ in walking]
            best: list = [None] * len(wks)
            groups, truncated = _plan_level(ground, s, remaining)
            tasks = [(s, *group, wks) for group in reversed(groups)]
            if workers > 1 and sum(group[2] for group in groups) >= _POOL_MIN_BASES:
                if pool is None:
                    import multiprocessing
                    import signal

                    # leaving the block terminates and joins the pool, so
                    # an error or interrupt does not wait for queued tasks.
                    # Ctrl-C is held back while the pool forks: one that
                    # struck between a fork and the pool's record of the
                    # new worker would leave a worker nothing terminates.
                    # The workers and the pool's threads inherit the hold
                    # and keep it, so only the parent takes the interrupt,
                    # once the block owns the pool
                    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
                    try:
                        pool = stack.enter_context(
                            multiprocessing.get_context("fork").Pool(workers))
                    finally:
                        signal.pthread_sigmask(signal.SIG_SETMASK, held)
                # unordered, so a failing task raises at once; the fold
                # below does not depend on the order
                results = pool.imap_unordered(_run_task, tasks)
            else:
                results = map(_run_task, tasks)
            for t_nodes, t_checked, t_bests, t_expired in results:
                nodes += t_nodes
                checked += t_checked
                for j, t_best in enumerate(t_bests):
                    if t_best is not None and (best[j] is None or t_best < best[j]):
                        best[j] = t_best
                truncated = truncated or t_expired

            for (i, _), b in zip(walking, best):
                stats[i].sizes_examined.append(s)
                if b is not None or truncated:
                    leave(i, truncated, b)
            walking = [w for w in walking if outcomes[w[0]] is None]

    return outcomes


# ---------------------------------------------------------------------------
# component growth
# ---------------------------------------------------------------------------


def _growth_search(adj, k: int, mode: str, stats: SearchStats,
                   max_nodes: int | None, deadline: float | None):
    """Enumerate connected induced subgraphs once each and score their cuts.

    The smallest side of any optimal cut is such a subgraph of size at most
    |V|/2 with induced minimum degree >= k, so exhausting that class yields
    a sound lower bound; candidates that validate give the upper bound.
    For edge cuts both bounds meet automatically once the class is spent.
    The adjacency list must describe a connected graph: a whole component
    has an empty boundary, which would pass for a cut of size 0.

    The walk is ESU (Wernicke, "Efficient detection of network motifs",
    IEEE/ACM TCBB 2006): a set grows only from its smallest member, the
    anchor, by the vertices of its extension, and a child takes the
    extension's later vertices plus the added vertex's neighbours above the
    anchor that no member touches.  One extension list serves the whole
    walk: a state's extension is `ext[i:end]`, a child added from position
    i appends its fresh neighbours, so its extension is `ext[i + 1:]`, and
    truncating back to `end` afterwards restores the parent's.  The path
    lives on an explicit frame stack, so the depth is bounded only by
    |V|/2, not by the interpreter's recursion limit.

    A state is counted and scored from the added vertex's row before
    anything changes, and joins the walk only when it has children to
    visit or its witness cut must be read off `sub`; most states have
    neither and cost one pass over a row.
    """
    N = len(adj)
    rows, ground, edges = _keyed_rows(adj, mode)
    ws = _WorkerState(rows, ground, mode)
    # one added vertex shrinks a vertex boundary by at most 1 and an edge
    # boundary by at most its degree
    shrink = 1 if mode == "vertex" else max(map(len, adj))
    cap = N // 2
    stats.notes.append(f"connected induced subgraphs up to size {cap}")

    vertex = mode == "vertex"
    in_sub = bytearray(N)
    nbr_cnt = [0] * N
    sub: list[int] = []
    ext: list[int] = []
    # (next candidate, end) of every state on the path below the current one
    frames: list[tuple[int, int]] = []
    nodes, truncated, lb, ub, witness = 0, False, inf, inf, None
    # side vertices short of k inner neighbours, vertex and edge boundary
    below_k = boundary = cut_edges = 0
    root = anchor = i = end = 0
    while True:
        if i < end:
            w = ext[i]
            i += 1
        elif sub:
            # the current state is spent: take its vertex out again
            v = sub.pop()
            in_sub[v] = 0
            row = adj[v]
            for u in row:
                c = nbr_cnt[u] - 1
                nbr_cnt[u] = c
                if in_sub[u]:
                    if c == k - 1:
                        below_k += 1
                elif c == 0:
                    boundary -= 1
            c = nbr_cnt[v]
            cut_edges -= len(row) - 2 * c
            if c < k:
                below_k -= 1
            if c:
                boundary += 1
            i, end = frames.pop()
            del ext[end:]
            continue
        elif root < N:
            # the path is empty, so ext is too and i == end == 0
            w = anchor = root
            root += 1
        else:
            break

        # the state sub + w, read off w's row before anything changes: c of
        # its edges turn internal, the rest join the edge boundary, and its
        # neighbours that no member touches join the vertex boundary; a
        # fresh one above the anchor gives the state a child
        row = adj[w]
        c = nbr_cnt[w]
        short = below_k + (c < k)
        nb = boundary - (c > 0)
        ne = cut_edges + len(row) - 2 * c
        fresh = False
        for u in row:
            cu = nbr_cnt[u]
            if in_sub[u]:
                if cu == k - 1:
                    short -= 1
            elif not cu:
                nb += 1
                if u > anchor:
                    fresh = True
        size = len(sub) + 1

        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            truncated = True
            break
        if deadline is not None and nodes % 4096 == 0 \
                and time.monotonic() > deadline:
            truncated = True
            break
        b = nb if vertex else ne
        # none short of k inner neighbours implies at least k + 1 members
        scored = False
        if not short and b:
            if b < lb:
                lb = b
            scored = b < ub
        # skip the children of a state at the cap, and of one whose
        # descendants can never beat the incumbent because the bound below
        # exceeds it; skipped descendants therefore cannot hold the class
        # minimum either.  A state with no child to visit and no witness
        # cut to read is never added, so it leaves nothing to undo
        if not scored and (size == cap or b - (cap - size) * shrink > ub
                           or i == end and not fresh):
            continue

        # add w; its fresh neighbours above the anchor extend the new state
        frames.append((i, end))
        in_sub[w] = 1
        sub.append(w)
        below_k, boundary, cut_edges = short, nb, ne
        for u in row:
            cu = nbr_cnt[u]
            if not cu and u > anchor and not in_sub[u]:
                ext.append(u)
            nbr_cnt[u] = cu + 1
        end = len(ext)
        if scored:
            # the neighborhood, or the boundary's edge ids; ids follow
            # sorted (u, w) order, so the edge witness comes out sorted
            cut = sorted({key for u in sub for w, key in rows[u] if not in_sub[w]})
            disconnected, mind = _check_removal(ws, cut)
            if disconnected and mind >= k:
                ub = b
                witness = cut if vertex else [edges[e] for e in cut]
            # b <= ub still, so only the cap can cut a scored state off
            if size == cap:
                i = end

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


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def _oracle(g: StarGraph, ks, mode: str, budget: SearchBudget | None,
            workers: int, seed) -> list[OracleResult]:
    """Run one strategy for each k of the ascending, distinct `ks` and label
    what it proved; the one labelling rule.

    A strategy returns (proved, value, witness): value is the smallest
    valid cut it found, or None, and proved means its search class rules
    out every smaller cut (with no value: every cut below the formula, or
    every cut at all when there is no formula).  A missing value, or one
    above the formula, gives way to the validated construction at the
    formula; on a tie the search keeps its own witness.  The public verdict
    judges every witness but the construction again.  The result is exact
    when proved with a value, no-cut-exists when proved without one, and an
    upper bound otherwise.  A growth search never proves "no cut"
    while a formula exists, which would read as exact here: the substar X
    is itself an admissible side whose boundary equals the formula.

    Subset enumeration decides every k in one walk; growth, whose state
    depends on k, runs once per k.  All ks share one wall-time window.
    Only here is the graph known to be a star: subset enumeration gets its
    automorphisms (symmetry.star_maps) for n <= 5, and with them the path
    family and the max-flow bound, which holds only because the maps are
    checked to reach every vertex.
    """
    if g.n < 2:
        raise InputError("cut searches need n >= 2")
    if any(k < 0 for k in ks):
        raise InputError("k must be >= 0")
    if workers < 1:
        raise InputError("workers must be >= 1")
    budget = budget or SearchBudget()
    t0 = time.monotonic()
    deadline = t0 + budget.max_wall_time if budget.max_wall_time else None
    formulas = [cut_size_formula(g.n, k) if k <= g.n - 2 else None for k in ks]
    constructions = [_construction_witness(g, k, mode, formula)
                     for k, formula in zip(ks, formulas)]
    adj = g.adjacency_lists()
    if budget.strategy == "component-growth":
        stats = [SearchStats(strategy="component-growth", workers=1, seed=seed)
                 for _ in ks]
        outcomes = [_growth_search(adj, k, mode, st, budget.max_nodes, deadline)
                    for k, st in zip(ks, stats)]
    else:
        maps = star_maps(adj) if g.n <= _FLOW_PREFILTER_MAX_N else None
        stats = [SearchStats(strategy="subset-enumeration", workers=workers, seed=seed)
                 for _ in ks]
        outcomes = _subset_search(adj, ks, mode, stats, budget.max_nodes, deadline,
                                  workers, formulas, maps)
    wall_time = time.monotonic() - t0
    results = []
    for k, formula, construction, st, (proved, value, witness) in zip(
            ks, formulas, constructions, stats, outcomes):
        st.wall_time = wall_time
        st.completed = proved
        if formula is not None and (value is None or value > formula):
            value, witness = formula, construction
        elif witness is not None:
            _judged(g, k, mode, witness, "search witness")
        if not proved:
            kind = "upper-bound-only"
        else:
            kind = "exact" if value is not None else "no-cut-exists"
        results.append(OracleResult(mode=mode, n=g.n, k=k, kind=kind, value=value,
                                    witness=witness, formula=formula, stats=st))
    return results


def exact_kappa_super(g: StarGraph, k: int, budget: SearchBudget | None = None,
                      workers: int = 1, seed: int | None = None) -> OracleResult:
    """Minimum k-vertex-cut size of g, exact whenever the class is exhausted."""
    return _oracle(g, [k], "vertex", budget, workers, seed)[0]


def exact_lambda_super(g: StarGraph, k: int, budget: SearchBudget | None = None,
                       workers: int = 1, seed: int | None = None) -> OracleResult:
    """Minimum k-edge-cut size of g, exact whenever the class is exhausted."""
    return _oracle(g, [k], "edge", budget, workers, seed)[0]


def compare_formula(n_values, k_values=None, budget: SearchBudget | None = None,
                    workers: int = 1, seed: int | None = None) -> list[FormulaRow]:
    """One row per (n, k): formula, construction validity, oracle verdict.

    The vertex-cut search runs only for n <= 5, as one subset walk per n
    that decides all of its rows; each row's verdict is the one a search
    for that k alone would give.  A `max_wall_time` budget is one window
    shared by the rows of an n.  Beyond n = 5 the validated construction
    is reported as an upper bound, which is all that is tractable at desk
    scale.
    """
    budget = budget or SearchBudget(max_nodes=DEFAULT_TABLE_MAX_NODES)
    wanted = None if k_values is None else set(k_values)
    rows: list[FormulaRow] = []
    for n in n_values:
        if n < 2:
            raise InputError("table rows need n >= 2")
        g = StarGraph(n)
        ks = [k for k in range(0, n - 1) if wanted is None or k in wanted]
        searched = {}
        if n <= _TABLE_SEARCH_MAX_N and ks:
            searched = {res.k: res for res in _oracle(g, ks, "vertex", budget,
                                                      workers, seed)}
        for k in ks:
            formula = cut_size_formula(n, k)
            cut = substar_isolating_cut(n, k, graph=g)
            construction_ok = (
                is_k_vertex_cut(g, cut.t, k).valid
                and is_k_edge_cut(g, cut.f, k).valid
            )
            if k in searched:
                kind, value = searched[k].kind, searched[k].value
            else:
                kind = "upper-bound-only"
                value = formula if construction_ok else None
            rows.append(FormulaRow(n=n, k=k, formula=formula,
                                   construction_ok=construction_ok,
                                   oracle_kind=kind, oracle_value=value,
                                   agree=value == formula))
    return rows
