"""Automorphisms of the star graph, read off its adjacency, and their orbits.

S_n is the Cayley graph of the transpositions (0 i), and slot i-1 of a row
holds the neighbour p (0 i), which swaps positions 0 and i.  Two kinds of
maps preserve it (Akers and Krishnamurthy, IEEE Trans. Computers 1989):

* relabelling symbols, p -> g p, which sends vertex 0 to g and keeps
  every slot: g p (0 i) is slot i-1 of g p;
* conjugation by sigma with sigma(0) = 0, p -> sigma p sigma^-1, which
  fixes vertex 0 and sends slot i-1 to slot sigma(i)-1, since p (0 i)
  goes to sigma p sigma^-1 (0 sigma(i)).

So a map is fixed by where it sends vertex 0 and how it permutes the
slots, and one breadth-first search from vertex 0 reads it off.  That
holds only under the slot convention above; `check_automorphisms` tests a
map against the adjacency it is used on.
"""

from __future__ import annotations

from .core import InvariantViolationError


def read_map(adj, image0: int, slots) -> list[int]:
    """The map f with f(0) = image0 and f(adj[v][i]) = adj[f(v)][slots[i]].

    Vertices that the search from vertex 0 does not reach map to -1.
    """
    f = [-1] * len(adj)
    f[0] = image0
    queue = [0]
    for v in queue:
        fv = adj[f[v]]
        for i, w in enumerate(adj[v]):
            if f[w] < 0:
                f[w] = fv[slots[i]]
                queue.append(w)
    return f


def star_maps(adj) -> tuple[list[list[int]], list[list[int]]]:
    """(generators of vertex 0's stabilizer, relabellings that move vertex
    0) for the star graph with adjacency `adj`.

    The generators are the conjugations by (1 2) and by (1 2 ... n-1): they
    move the first two slots, and every slot one place on.  Together they
    generate every sigma with sigma(0) = 0, the whole stabilizer.  The
    relabellings keep every slot: by the symbols (n-1 n), which sends vertex
    0 to vertex 1, and by (1 2).  The others keep the vertices whose first
    symbol is 1 among themselves, so only with (1 2) do the maps reach
    every vertex.
    """
    d = len(adj[0])
    gens = []
    if d >= 2:
        gens.append(read_map(adj, 0, [1, 0] + list(range(2, d))))
    if d >= 3:
        gens.append(read_map(adj, 0, list(range(1, d)) + [0]))
    return gens, [read_map(adj, 1, range(d)), read_map(adj, adj[0][0], range(d))]


def check_automorphisms(adj, maps) -> bool:
    """Whether the maps (gens, moves) reach every vertex from vertex 0, so
    the graph is vertex-transitive.  Raises InvariantViolationError unless
    each map is a bijection of the vertices that sends every arc of `adj`
    to an arc, and each of `gens`, the stabilizer's generators, fixes 0.
    """
    gens, moves = maps
    N = len(adj)
    nbrs = [set(row) for row in adj]
    for f in gens + moves:
        if sorted(f) != list(range(N)) or any(
                f[w] not in nbrs[f[u]] for u, row in enumerate(adj) for w in row):
            raise InvariantViolationError("a vertex map is not an automorphism of the graph")
    if any(f[0] for f in gens):
        raise InvariantViolationError("a stabilizer generator moves vertex 0")
    return len(next(orbits(N, gens + moves))[1]) == N - 1


def orbits(size: int, gens):
    """The orbits of the group the maps `gens` generate on range(size).

    Yields (rep, steps) per orbit in order of rep, its smallest member: a
    scan in ascending order meets that member first.  `steps` holds
    (u, w, j) with u = gens[j][w], in breadth-first order from rep, so w is
    rep or the u of an earlier step; every other member is a u exactly once.
    Forward images suffice, since a finite group holds each inverse as a
    power.
    """
    seen = bytearray(size)
    for rep in range(size):
        if seen[rep]:
            continue
        seen[rep] = 1
        steps = []
        queue = [rep]
        for w in queue:
            for j, g in enumerate(gens):
                u = g[w]
                if not seen[u]:
                    seen[u] = 1
                    steps.append((u, w, j))
                    queue.append(u)
        yield rep, steps

