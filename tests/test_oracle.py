import dataclasses
import itertools
import multiprocessing
import signal
import time
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starcut import oracle, symmetry
from starcut import (
    InputError,
    InvariantViolationError,
    SearchBudget,
    StarGraph,
    classical_connectivity,
    compare_formula,
    cut_size_formula,
    exact_kappa_super,
    exact_lambda_super,
    is_k_edge_cut,
    is_k_vertex_cut,
    perm_rank,
    perm_unrank,
)
from helpers import (
    UnionFind,
    brute_is_k_cut,
    brute_min_k_cut,
    connectivity_by_every_target,
    growth_search_reference,
    keyed_rows_reference,
)


def test_classical_connectivity_values(s3, s4, s5):
    assert classical_connectivity(StarGraph(2)) == (1, 1)
    assert classical_connectivity(s3) == (2, 2)
    assert classical_connectivity(s4) == (3, 3)
    assert classical_connectivity(s5) == (4, 4)
    with pytest.raises(InputError):
        classical_connectivity(StarGraph(1))


def test_classical_connectivity_s7():
    assert classical_connectivity(StarGraph(7)) == (6, 6)


def _conjugations(n):
    """Rank tables of p -> sigma p sigma^-1, one for each sigma with sigma(0) = 0."""
    perms = [perm_unrank(r, n) for r in range(factorial(n))]
    for rest in itertools.permutations(range(1, n)):
        sigma = (0,) + rest
        inv = sorted(range(n), key=sigma.__getitem__)
        yield [perm_rank(tuple(sigma[p[inv[j]]] for j in range(n))) for p in perms]


def _orbit_key(p):
    """Sorted cycle lengths of p, and the length of its cycle through 0."""
    lengths, seen = [], set()
    for start in range(len(p)):
        j, length = start, 0
        while j not in seen:
            seen.add(j)
            j, length = p[j], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths)), lengths[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stabilizer_orbits_are_keyed_by_cycle_type(n):
    g = StarGraph(n)
    V = g.num_vertices
    adj = g.adjacency_lists()
    uf = UnionFind(V)
    for phi in _conjugations(n):
        # an automorphism of the star graph that fixes the identity
        assert phi[0] == 0
        for v in range(V):
            assert sorted(phi[w] for w in adj[v]) == sorted(adj[phi[v]])
            uf.union(v, phi[v])
    orbits, by_key = {}, {}
    for v in range(V):
        orbits.setdefault(uf.find(v), set()).add(v)
        by_key.setdefault(_orbit_key(g.perm(v)), set()).add(v)
    assert sorted(map(sorted, orbits.values())) == sorted(map(sorted, by_key.values()))
    reps = [rep for rep, _ in symmetry.orbits(V, symmetry.star_maps(adj)[0])]
    assert reps[1:] == sorted(
        min(orbit) for orbit in orbits.values() if 0 not in orbit
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_orbits_equal_the_whole_stabilizer_orbits(n):
    # the two conjugations that star_maps reads off the adjacency generate
    # the same orbits as all (n-1)! of them, listed by brute force
    adj = StarGraph(n).adjacency_lists()
    uf = UnionFind(len(adj))
    for phi in _conjugations(n):
        for v in range(len(adj)):
            uf.union(v, phi[v])
    brute = {}
    for v in range(len(adj)):
        brute.setdefault(uf.find(v), []).append(v)
    gens, (move, swap) = symmetry.star_maps(adj)
    built = []
    for rep, steps in symmetry.orbits(len(adj), gens):
        members = [rep] + [u for u, _, _ in steps]
        assert rep == min(members)
        for u, w, j in steps:
            assert gens[j][w] == u
        built.append(sorted(members))
    assert built == sorted(brute.values())
    # the relabellings send vertex 0 to vertex 1 and to its first
    # neighbour, and every map is an automorphism
    assert (move[0], swap[0]) == (1, adj[0][0])
    symmetry.check_automorphisms(adj, (gens, [move, swap]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_star_maps_are_automorphisms_with_one_vertex_orbit(n):
    # from S3 on, the relabelling by (1 2) joins the vertices whose first
    # symbol is 1, the orbit of vertex 0 under the other maps, to the rest
    adj = StarGraph(n).adjacency_lists()
    gens, moves = symmetry.star_maps(adj)
    assert symmetry.check_automorphisms(adj, (gens, moves))
    (rep, steps), = symmetry.orbits(len(adj), gens + moves)
    assert rep == 0 and len(steps) == len(adj) - 1
    if n >= 3:
        assert not symmetry.check_automorphisms(adj, (gens, moves[:1]))
        (rep, steps), *rest = symmetry.orbits(len(adj), gens + moves[:1])
        assert len(steps) + 1 == len(adj) // n and rest


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbit_targets_match_every_target(n):
    g = StarGraph(n)
    assert classical_connectivity(g) == connectivity_by_every_target(g) == (n - 1, n - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_connectivity_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    g = StarGraph(n)
    G = nx.Graph(list(g.edges()))
    assert classical_connectivity(g) == (nx.node_connectivity(G), nx.edge_connectivity(G))


def test_one_flow_run_per_orbit(monkeypatch, s6):
    # one run per non-neighbor (and one adjacent pair) would be 1,429 for S6
    runs = 0
    real = oracle._max_flow_unit

    def counted(*args):
        nonlocal runs
        runs += 1
        return real(*args)

    monkeypatch.setattr(oracle, "_max_flow_unit", counted)
    per_n = {}
    for g in (StarGraph(2), StarGraph(3), StarGraph(4), StarGraph(5), s6):
        runs = 0
        assert classical_connectivity(g) == (g.n - 1, g.n - 1)
        per_n[g.n] = runs
    assert per_n == {2: 1, 3: 5, 4: 11, 5: 21, 6: 35}


def test_exact_values_small():
    expected = {(2, 0): 1, (3, 0): 2, (3, 1): 2, (4, 0): 3, (4, 1): 4}
    for (n, k), value in expected.items():
        g = StarGraph(n)
        rv = exact_kappa_super(g, k)
        re = exact_lambda_super(g, k)
        assert (rv.kind, rv.value) == ("exact", value)
        assert (re.kind, re.value) == ("exact", value)


def test_exact_agrees_with_brute_force_on_s3(s3):
    edges = list(s3.edges())
    for k in (0, 1):
        brute = brute_min_k_cut(6, edges, k, "vertex")
        assert exact_kappa_super(s3, k).value == brute == 2
        brute_e = brute_min_k_cut(6, edges, k, "edge")
        assert exact_lambda_super(s3, k).value == brute_e == 2
    assert brute_min_k_cut(6, edges, 2, "vertex") is None
    assert exact_kappa_super(s3, 2).kind == "no-cut-exists"
    assert brute_min_k_cut(6, edges, 2, "edge") is None
    assert exact_lambda_super(s3, 2).kind == "no-cut-exists"


def test_witnesses_validate(s4):
    for k in (0, 1, 2):
        rv = exact_kappa_super(s4, k)
        assert is_k_vertex_cut(s4, rv.witness, k).valid
        re = exact_lambda_super(s4, k)
        assert is_k_edge_cut(s4, re.witness, k).valid


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_subset_walk_starts_at_the_classical_connectivity(n, mode):
    # the bound comes from the path family's flows; on S2, whose one path
    # per vertex refuses the family, the bound must stay
    g = StarGraph(n)
    bound = classical_connectivity(g)[mode == "edge"]
    search = exact_kappa_super if mode == "vertex" else exact_lambda_super
    for k in range(n - 1):
        st = search(g, k, SearchBudget(max_nodes=2000)).stats
        assert st.lower_bound == bound, k
        assert st.pruned_sizes == list(range(1, min(bound, cut_size_formula(n, k)))), k
        assert (f"sizes below {bound} pruned: smaller removals cannot disconnect "
                "(classical connectivity computed by max flow)") in st.notes, k


def test_kappa0_matches_classical():
    for n in range(2, 6):
        g = StarGraph(n)
        kappa, lam = classical_connectivity(g)
        assert exact_kappa_super(g, 0).value == kappa == n - 1
        assert exact_lambda_super(g, 0).value == lam == n - 1


def test_strategy_agreement_degenerate_complete_graph():
    # removing the one other vertex of the 2-dimensional star graph leaves a
    # single vertex, which both strategies must price at 1 for k = 0
    g2 = StarGraph(2)
    a = exact_kappa_super(g2, 0)
    b = exact_kappa_super(g2, 0, budget=SearchBudget(strategy="component-growth"))
    assert (a.kind, a.value) == (b.kind, b.value) == ("exact", 1)


def test_strategy_agreement(s3, s4):
    growth = SearchBudget(strategy="component-growth")
    for k in (0, 1):
        a = exact_kappa_super(s3, k)
        b = exact_kappa_super(s3, k, budget=growth)
        assert a.kind == b.kind == "exact" and a.value == b.value
        a = exact_lambda_super(s3, k)
        b = exact_lambda_super(s3, k, budget=growth)
        assert a.kind == b.kind == "exact" and a.value == b.value
    for k in (0, 1, 2):
        a = exact_kappa_super(s4, k)
        b = exact_kappa_super(s4, k, budget=growth)
        assert b.kind == "exact" and a.value == b.value
    a = exact_lambda_super(s4, 2)
    b = exact_lambda_super(s4, 2, budget=growth)
    assert b.kind == "exact" and a.value == b.value


def test_growth_witnesses_validate(s4):
    growth = SearchBudget(strategy="component-growth")
    rv = exact_kappa_super(s4, 2, budget=growth)
    assert is_k_vertex_cut(s4, rv.witness, 2).valid
    re = exact_lambda_super(s4, 2, budget=growth)
    assert is_k_edge_cut(s4, re.witness, 2).valid


def test_determinism_same_budget(s4):
    a = exact_kappa_super(s4, 2, budget=SearchBudget(max_nodes=20_000), seed=1)
    b = exact_kappa_super(s4, 2, budget=SearchBudget(max_nodes=20_000), seed=1)
    assert a == b  # includes node counts; wall time excluded from comparison


def test_workers_do_not_change_results(s4, monkeypatch):
    # S4 levels are too small to fork a pool for; force it
    monkeypatch.setattr(oracle, "_POOL_MIN_BASES", 0)
    for k in (1, 2):
        a = exact_kappa_super(s4, k, workers=1)
        b = exact_kappa_super(s4, k, workers=2)
        assert (a.kind, a.value, a.witness, a.stats.nodes) == (
            b.kind,
            b.value,
            b.witness,
            b.stats.nodes,
        )
    a = exact_lambda_super(s4, 2, workers=1, budget=SearchBudget(max_nodes=100_000))
    b = exact_lambda_super(s4, 2, workers=2, budget=SearchBudget(max_nodes=100_000))
    assert (a.kind, a.value, a.stats.nodes) == (b.kind, b.value, b.stats.nodes)


def test_budget_truncation_reports_upper_bound(s5):
    res = exact_kappa_super(s5, 1, budget=SearchBudget(max_nodes=5_000))
    assert res.kind == "upper-bound-only"
    assert res.value == cut_size_formula(5, 1) == 6
    assert not res.stats.completed
    assert is_k_vertex_cut(s5, res.witness, 1).valid


def test_node_budget_is_a_hard_cap(s5, monkeypatch):
    # the 2-worker arm forks a pool although its levels are small
    monkeypatch.setattr(oracle, "_POOL_MIN_BASES", 0)
    budget = SearchBudget(max_nodes=5_000)
    for search in (exact_kappa_super, exact_lambda_super):
        for workers in (1, 2):
            res = search(s5, 1, budget=budget, workers=workers)
            assert res.kind == "upper-bound-only"
            assert res.stats.nodes == 5_000, (search.__name__, workers)


def _raise_first_then_sleep(task):
    """A stand-in for oracle._run_task on S4 k=1 vertex, which walks size 3
    alone: the first task dispatched, the largest group (L = 22), fails, and
    the rest hang."""
    if task[1] == 22:
        raise RuntimeError("task failed")
    time.sleep(30)


def _sleep(task):
    time.sleep(30)


def test_failing_task_tears_the_pool_down(s4, monkeypatch):
    # workers are forked, so they see the patched module attribute; S4's
    # levels would run in-process, so the pool is forced
    monkeypatch.setattr(oracle, "_POOL_MIN_BASES", 0)
    monkeypatch.setattr(oracle, "_run_task", _raise_first_then_sleep)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="task failed"):
        exact_kappa_super(s4, 1, workers=2)
    assert time.monotonic() - t0 < 10
    assert not multiprocessing.active_children()


def test_interrupt_tears_the_pool_down(s4, monkeypatch):
    # Ctrl-C while every worker is busy: the walk must raise at once and
    # leave no worker behind
    monkeypatch.setattr(oracle, "_POOL_MIN_BASES", 0)
    monkeypatch.setattr(oracle, "_run_task", _sleep)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    t0 = time.monotonic()
    signal.alarm(1)
    try:
        with pytest.raises(KeyboardInterrupt):
            exact_kappa_super(s4, 1, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - t0 < 10
    assert not multiprocessing.active_children()


def test_small_levels_fork_no_pool(s4, s5, monkeypatch):
    # at 2M nodes no level plans enough bases to pay for a pool, so the
    # 2-worker walk forks nothing and equals the 1-worker walk
    def no_fork(*args):
        raise AssertionError("a pool was forked")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    budget = SearchBudget(max_nodes=2_000_000)
    for g in (s4, s5):
        for search in (exact_kappa_super, exact_lambda_super):
            a, b = (search(g, 1, budget=budget, workers=w) for w in (1, 2))
            assert (a.kind, a.value, a.witness, a.stats.nodes,
                    a.stats.candidates_checked) == (
                b.kind, b.value, b.witness, b.stats.nodes,
                b.stats.candidates_checked), (g.n, search.__name__)
            assert b.stats.workers == 2


def test_certification_levels_plan_enough_bases_for_the_pool():
    # the unbudgeted S5 k=1 walks (acceptance 2, the CI certification
    # steps) must keep their pool: vertex mode's level 5 and edge mode's
    # level 4 are where their time goes
    vertices = factorial(5)
    edges = vertices * 4 // 2
    for ground, s in ((vertices, 5), (edges, 4)):
        groups, _ = oracle._plan_level(ground, s, None)
        assert sum(group[2] for group in groups) >= oracle._POOL_MIN_BASES


def _decided_by_plan(monkeypatch, ground, s, budget):
    """Run `_run_task` over every task of one planned level, with every
    extension a candidate; returns (removals checked, nodes, truncated).
    The state has no edges, so k = 0, which no survivor falls short of,
    keeps the degree test from skipping every base."""
    decided = []
    monkeypatch.setattr(oracle, "_WS", oracle._WorkerState([()] * ground, ground, "edge"))
    monkeypatch.setattr(oracle, "_scan", lambda ws, base: (2, ()))
    monkeypatch.setattr(oracle, "_check_removal",
                        lambda ws, removal: decided.append(removal) or (False, 0))
    groups, truncated = oracle._plan_level(ground, s, budget)
    nodes = sum(oracle._run_task((s, *group, [0]))[0] for group in groups)
    return decided, nodes, truncated


@pytest.mark.parametrize("ground", range(1, 9))
def test_plan_decides_every_subset_once(monkeypatch, ground):
    for s in range(1, ground + 1):
        every = list(itertools.combinations(range(ground), s))
        decided, nodes, truncated = _decided_by_plan(monkeypatch, ground, s, None)
        assert sorted(decided) == every and nodes == len(every) and not truncated
        for budget in range(1, len(every) + 2):
            decided, nodes, truncated = _decided_by_plan(monkeypatch, ground, s, budget)
            want = min(budget, len(every))
            assert len(set(decided)) == len(decided) == nodes == want, (s, budget)
            assert set(decided) <= set(every)
            assert truncated == (budget < len(every)), (s, budget)


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_wall_time_truncation(s5, mode):
    # half a second of a walk that needs seconds (edge) to a minute (vertex)
    search, judge = ((exact_kappa_super, is_k_vertex_cut) if mode == "vertex"
                     else (exact_lambda_super, is_k_edge_cut))
    res = search(s5, 1, budget=SearchBudget(max_wall_time=0.5))
    assert res.kind == "upper-bound-only"
    assert res.value == 6
    assert judge(s5, res.witness, 1).valid


def test_growth_truncation(s5):
    res = exact_kappa_super(
        s5, 1, budget=SearchBudget(strategy="component-growth", max_nodes=2_000)
    )
    assert res.kind == "upper-bound-only"
    assert res.value == 6


@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_growth_deadline_checked_every_4096_nodes(s5, mode):
    # a deadline already passed stops the walk at its first clock check
    stats = oracle.SearchStats(strategy="component-growth", workers=1)
    proved, value, witness = oracle._growth_search(
        s5.adjacency_lists(), 1, mode, stats, None, time.monotonic() - 1)
    assert not proved and stats.nodes == 4096


def test_growth_walk_depth_is_not_bounded_by_the_recursion_limit():
    # on a path the first anchor's sets nest 1,500 deep, one vertex a level
    n = 3000
    path = [[u for u in (v - 1, v + 1) if 0 <= u < n] for v in range(n)]
    stats = oracle.SearchStats(strategy="component-growth", workers=1)
    proved, value, witness = oracle._growth_search(path, 0, "vertex", stats,
                                                   2000, None)
    assert not proved and stats.nodes == 2001
    assert (value, witness) == (1, [1])


def test_budget_validation():
    with pytest.raises(InputError):
        SearchBudget(max_nodes=0)
    with pytest.raises(InputError):
        SearchBudget(max_wall_time=-1)
    with pytest.raises(InputError):
        SearchBudget(max_wall_time=float("nan"))
    with pytest.raises(InputError):
        SearchBudget(strategy="quantum")


def test_oracle_input_validation(s4):
    with pytest.raises(InputError):
        exact_kappa_super(s4, -1)
    with pytest.raises(InputError):
        exact_kappa_super(StarGraph(1), 0)
    with pytest.raises(InputError):
        exact_kappa_super(s4, 1, workers=0)


def test_compare_formula_small():
    rows = compare_formula(range(2, 5))
    assert [(r.n, r.k) for r in rows] == [
        (2, 0), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)
    ]
    for r in rows:
        assert r.construction_ok
        assert r.oracle_kind == "exact"
        assert r.oracle_value == r.formula
        assert r.agree


def test_compare_formula_large_cells_are_bounds():
    rows = compare_formula([6], k_values=[4])
    (row,) = rows
    assert row.construction_ok
    assert row.oracle_kind == "upper-bound-only"
    assert row.oracle_value == row.formula == cut_size_formula(6, 4)
    assert row.agree


@pytest.mark.parametrize("make", [list, iter, lambda ks: (k for k in ks)],
                         ids=["list", "iterator", "generator"])
def test_compare_formula_reads_k_values_once(make):
    # a one-shot iterator must serve every n, not just the first
    rows = compare_formula(range(2, 5), k_values=make([0, 1]))
    assert [(r.n, r.k) for r in rows] == [(2, 0), (3, 0), (3, 1), (4, 0), (4, 1)]
    assert all(r.oracle_kind == "exact" and r.agree for r in rows)


def _shared_walk_cases():
    for n in (2, 3, 4, 5):
        for max_nodes in (2000, 500_000) if n == 5 else (None, 1, 50, 3000):
            yield n, max_nodes


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("n, max_nodes", list(_shared_walk_cases()))
def test_shared_walk_matches_solo_searches(n, max_nodes, mode):
    # one walk decides every k of a list; each k's result, stats and notes
    # included, must be what its solo search gives (wall time is not
    # compared).  The lists reach k = n - 1, the degree, where no cut
    # exists, and k = n, above it; neither has a formula
    g = StarGraph(n)
    search = exact_kappa_super if mode == "vertex" else exact_lambda_super
    budget = SearchBudget(max_nodes=max_nodes)
    k_lists = [range(n + 1), range(1, n - 1), [0, n - 1, n]]
    for workers in (1, 2):
        solo = {k: search(g, k, budget=budget, workers=workers) for k in range(n + 1)}
        for ks in filter(None, map(list, k_lists)):
            shared = oracle._oracle(g, ks, mode, budget, workers, None)
            assert [r.k for r in shared] == ks
            for res in shared:
                assert res == solo[res.k], (workers, ks, res.k)


@pytest.mark.parametrize("strategy", ["subset-enumeration", "component-growth"])
@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_searches_validate_the_construction_witness(s4, monkeypatch, strategy, mode):
    # a construction that misses one vertex of T (one edge of F) leaves X
    # attached, so neither strategy may report it as a witness
    real = oracle.substar_isolating_cut

    def short(n, k, graph=None):
        cut = real(n, k, graph=graph)
        return dataclasses.replace(cut, t=cut.t[1:], f=cut.f[1:])

    monkeypatch.setattr(oracle, "substar_isolating_cut", short)
    search = exact_kappa_super if mode == "vertex" else exact_lambda_super
    with pytest.raises(InvariantViolationError):
        search(s4, 1, budget=SearchBudget(strategy=strategy))


@pytest.mark.parametrize("mode, k, value, witness", [
    ("vertex", 1, 1, [0]),  # below the formula
    ("edge", 1, 1, [(0, 6)]),
    # not an edge: the fault is the search's, so no input error may blame
    # the caller
    ("edge", 1, 1, [(0, 1)]),
    ("vertex", 1, 4, [0, 1, 2, 3]),  # a tie with the formula
    ("vertex", 3, 1, [0]),  # no formula
])
def test_a_search_witness_the_verdict_refuses_is_never_reported(
        s4, monkeypatch, mode, k, value, witness):
    # every witness but the construction is judged by the public verdict
    monkeypatch.setattr(oracle, "_growth_search", lambda *a: (True, value, witness))
    search = exact_kappa_super if mode == "vertex" else exact_lambda_super
    with pytest.raises(InvariantViolationError):
        search(s4, k, budget=SearchBudget(strategy="component-growth"))


@pytest.mark.parametrize("mode", ["vertex", "edge"])
@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 4) for k in range(n - 1)]
                         + [(3, 2)])
def test_every_result_keeps_the_honesty_contract(n, k, mode):
    g = StarGraph(n)
    search = exact_kappa_super if mode == "vertex" else exact_lambda_super
    judge = is_k_vertex_cut if mode == "vertex" else is_k_edge_cut
    runs = [("subset-enumeration", 1), ("subset-enumeration", 2),
            ("component-growth", 1)]
    for (strategy, workers), max_nodes in itertools.product(runs, (None, 1, 50, 500)):
        res = search(g, k, budget=SearchBudget(strategy=strategy, max_nodes=max_nodes),
                     workers=workers)
        where = (strategy, workers, max_nodes, res.kind, res.value)
        assert res.stats.completed == (res.kind != "upper-bound-only"), where
        if res.kind == "no-cut-exists":
            assert (res.formula, res.value, res.witness) == (None, None, None), where
        if res.value is not None:
            assert len(res.witness) == res.value, where
            assert judge(g, res.witness, k).valid, where
            assert res.formula is None or res.value <= res.formula, where
        elif res.kind == "upper-bound-only":
            assert res.formula is None and res.witness is None, where
        if res.kind == "exact" and res.formula is not None:
            assert res.value == res.formula, where


# ---------------------------------------------------------------------------
# both strategies on plain adjacency lists
# ---------------------------------------------------------------------------


@st.composite
def small_graphs(draw, connected):
    """Adjacency lists of up to 7 vertices and 11 edges, from up to 3 blocks.

    Each block is a tree, a cycle, a complete graph or a random graph on up
    to 4 vertices.  Every block after the first is bridged to an earlier
    vertex by one edge, glued onto an earlier vertex (a cut vertex) or,
    unless `connected`, left apart as another component.  A random block in
    a connected graph is threaded on a path first.
    """
    adj: list[set] = []

    def new_vertex():
        adj.append(set())
        return len(adj) - 1

    def add_edge(u, v):
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    joins = ["bridge", "glue"] + ([] if connected else ["apart"])
    for _ in range(draw(st.integers(1, 3))):
        if len(adj) == 7:
            break
        join = draw(st.sampled_from(joins)) if adj else "apart"
        anchor = draw(st.integers(0, len(adj) - 1)) if adj else None
        glued = join == "glue"
        fresh = draw(st.integers(1, min(4 - glued, 7 - len(adj))))
        vs = ([anchor] if glued else []) + [new_vertex() for _ in range(fresh)]
        size = len(vs)
        if join == "bridge":
            add_edge(anchor, vs[0])
        shape = draw(st.sampled_from(["tree", "cycle", "complete", "random"]))
        if shape == "tree":
            for i in range(1, size):
                add_edge(vs[draw(st.integers(0, i - 1))], vs[i])
        elif shape == "cycle":
            for i in range(size):
                add_edge(vs[i], vs[(i + 1) % size])
        else:
            for i, a in enumerate(vs):
                if connected and i:
                    add_edge(vs[i - 1], a)
                for b in vs[i + 1:]:
                    if shape == "complete" or draw(st.booleans()):
                        add_edge(a, b)
    assume(sum(map(len, adj)) // 2 <= 11)
    return [sorted(row) for row in adj]


def _edge_list(adj):
    return [(u, w) for u, row in enumerate(adj) for w in row if u < w]


@settings(max_examples=200, deadline=None)
@given(small_graphs(connected=False), st.randoms(use_true_random=False))
def test_keyed_rows_match_the_global_edge_numbering(adj, rnd):
    # rows in any order: edge ids follow sorted (u, w), u < w, whatever the
    # order a row lists its neighbours in, and rows keep that order
    for row in adj:
        rnd.shuffle(row)
    assert oracle._keyed_rows(adj, "edge") == keyed_rows_reference(adj, "edge")


@pytest.mark.parametrize("n", range(2, 7))
def test_keyed_rows_of_star_graphs_match_the_global_edge_numbering(n):
    adj = StarGraph(n).adjacency_lists()
    assert oracle._keyed_rows(adj, "edge") == keyed_rows_reference(adj, "edge")


def _search(strategy, adj, k, mode):
    stats = oracle.SearchStats(strategy=strategy, workers=1)
    if strategy == "growth":
        return oracle._growth_search(adj, k, mode, stats, None, None)
    return oracle._subset_search(adj, [k], mode, [stats], None, None, 1, [None],
                                 None)[0]


def _assert_matches_brute_force(strategy, adj, k, mode):
    edges = _edge_list(adj)
    brute = brute_min_k_cut(len(adj), edges, k, mode)
    proved, value, witness = _search(strategy, adj, k, mode)
    where = (strategy, adj, k, mode, proved, value, brute)
    if strategy == "subset":
        assert proved, where  # no budget and no formula: every size is decided
    if proved:
        assert value == brute, where
    if value is None:
        assert witness is None, where
    else:
        assert brute is not None and value >= brute, where
        assert len(witness) == value, where
        assert brute_is_k_cut(len(adj), edges, k, mode, witness), where


@settings(max_examples=300, deadline=None)
@given(small_graphs(connected=False), st.integers(0, 3),
       st.sampled_from(["vertex", "edge"]))
def test_subset_enumeration_matches_brute_force(adj, k, mode):
    # k = 3 reaches the largest degree of many of these graphs, where a
    # connected graph has no cut and the search stops before any size
    _assert_matches_brute_force("subset", adj, k, mode)


@settings(max_examples=300, deadline=None)
@given(small_graphs(connected=True), st.integers(0, 3),
       st.sampled_from(["vertex", "edge"]))
def test_component_growth_matches_brute_force(adj, k, mode):
    # growth's lower bound needs a connected graph, so it gets only those
    _assert_matches_brute_force("growth", adj, k, mode)


def _assert_growth_matches_reference(adj, k, mode, max_nodes):
    got, want = (oracle.SearchStats(strategy="component-growth", workers=1)
                 for _ in range(2))
    outcome = oracle._growth_search(adj, k, mode, got, max_nodes, None)
    assert outcome == growth_search_reference(adj, k, mode, want, max_nodes, None)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)


@settings(max_examples=300, deadline=None)
@given(small_graphs(connected=True), st.integers(0, 3),
       st.sampled_from(["vertex", "edge"]), st.sampled_from([None, 1, 5, 40]),
       st.data())
def test_growth_walk_matches_the_recursive_reference(adj, k, mode, max_nodes, data):
    # shuffled rows change the order of states, which both walks must share
    adj = [data.draw(st.permutations(row)) for row in adj]
    _assert_growth_matches_reference(adj, k, mode, max_nodes)


# on S6 at 20,000 nodes and k <= 1 the walk reaches sides of over a hundred
# vertices, where the bound prune cuts off most states; the cap, 360, keeps
# the reference below the recursion limit
@pytest.mark.parametrize("n, max_nodes", [(2, None), (3, None), (4, None), (4, 50),
                                          (5, 1), (5, 2_000), (5, 60_000),
                                          (6, 20_000)])
@pytest.mark.parametrize("mode", ["vertex", "edge"])
def test_growth_walk_matches_the_recursive_reference_on_star_graphs(n, max_nodes,
                                                                    mode):
    adj = StarGraph(n).adjacency_lists()
    for k in range(n):
        _assert_growth_matches_reference(adj, k, mode, max_nodes)


def _walk(adj, ks, mode, formulas, max_nodes):
    stats = [oracle.SearchStats(strategy="subset-enumeration", workers=1) for _ in ks]
    outcomes = oracle._subset_search(adj, ks, mode, stats, max_nodes, None, 1,
                                     formulas, None)
    return list(zip(outcomes, stats))


@settings(max_examples=300, deadline=None)
@given(small_graphs(connected=False),
       st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True),
       st.sampled_from(["vertex", "edge"]), st.sampled_from([None, 1, 7, 40]),
       st.data())
def test_shared_subset_walk_matches_solo_walks_and_brute_force(adj, ks, mode,
                                                               max_nodes, data):
    # every k leaves the shared walk where its solo walk stops: at a cut, at
    # its own cap below a (made-up) formula, at the no-cut rule, or when the
    # node budget runs out
    ks = sorted(ks)
    formulas = [data.draw(st.one_of(st.none(), st.integers(1, 5))) for _ in ks]
    shared = _walk(adj, ks, mode, formulas, max_nodes)
    edges = _edge_list(adj)
    for k, formula, got in zip(ks, formulas, shared):
        assert got == _walk(adj, [k], mode, [formula], max_nodes)[0], (k, formula)
        (proved, value, witness), _ = got
        brute = brute_min_k_cut(len(adj), edges, k, mode)
        if max_nodes is None:
            assert proved, (k, formula)
        if value is not None:
            assert value == brute and brute_is_k_cut(len(adj), edges, k, mode, witness)
        elif proved:
            # no cut below the formula, or none at all without one
            assert brute is None or (formula is not None and brute >= formula)


def test_no_cut_once_k_reaches_the_largest_degree():
    path = [[1], [0, 2], [1]]
    for mode in ("vertex", "edge"):
        stats = oracle.SearchStats(strategy="subset", workers=1)
        assert oracle._subset_search(path, [2], mode, [stats], None, None, 1, [None],
                                     None) == [(True, None, None)]
        assert stats.nodes == 0 and stats.sizes_examined == []
    # on a disconnected graph a whole component may go: removing one of
    # three triangles leaves two, each vertex keeping degree 2
    triangles = [[3 * (v // 3) + (v + d) % 3 for d in (1, 2)] for v in range(9)]
    assert brute_min_k_cut(9, _edge_list(triangles), 2, "vertex") == 3
    proved, value, witness = _search("subset", triangles, 2, "vertex")
    assert (proved, value) == (True, 3)


def test_parity_rule_needs_a_connected_graph():
    # every degree is even, but the graph is already split: one edge of
    # either triangle is a 1-edge cut, and no size may be skipped for parity
    two_triangles = [[1, 2], [0, 2], [0, 1], [4, 5], [3, 5], [3, 4]]
    edges = _edge_list(two_triangles)
    assert brute_min_k_cut(6, edges, 1, "edge") == 1
    proved, value, witness = _search("subset", two_triangles, 1, "edge")
    assert (proved, value) == (True, 1)
    assert brute_is_k_cut(6, edges, 1, "edge", witness)


def test_parity_rule_skips_odd_sizes_of_the_bowtie():
    # two triangles sharing vertex 2: connected, every degree even, so every
    # odd edge size is pruned by the parity lemma and costs no nodes
    bowtie = [[1, 2], [0, 2], [0, 1, 3, 4], [2, 4], [2, 3]]
    edges = _edge_list(bowtie)
    for k in (1, 2):
        proved, value, witness = _search("subset", bowtie, k, "edge")
        assert proved and value == brute_min_k_cut(5, edges, k, "edge"), k
        if value is not None:
            assert brute_is_k_cut(5, edges, k, "edge", witness), k
    # every edge has an end of degree 2, so k = 2 has no cut and the walk
    # decides every even size: C(6, 2) + C(6, 4) + C(6, 6) nodes
    (outcome, stats), = _walk(bowtie, [2], "edge", [None], None)
    assert outcome == (True, None, None)
    assert stats.sizes_examined == [2, 4, 6]
    assert stats.pruned_sizes == [1, 3, 5]
    assert stats.nodes == 31
    # below a formula of 4 only size 2 needs deciding, and 15 nodes cover it
    (outcome, stats), = _walk(bowtie, [2], "edge", [4], 15)
    assert outcome == (True, None, None)
    assert stats.nodes == 15 and stats.pruned_sizes == [1, 3]


@st.composite
def even_degree_graphs(draw):
    """Connected graphs on at most 7 vertices and 12 edges whose degrees
    are all even: an edge-disjoint union of cycles, each new one through a
    vertex already used, so the union stays connected."""
    n = draw(st.integers(3, 7))
    edges: set = set()
    used = {0}
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.sampled_from(sorted(used)))
        rest = draw(st.lists(st.sampled_from([v for v in range(n) if v != start]),
                             min_size=2, max_size=n - 1, unique=True))
        cycle = [start] + rest
        new = {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
        if new & edges or len(edges | new) > 12:
            continue
        edges |= new
        used.update(cycle)
    label = {v: i for i, v in enumerate(sorted(used))}
    adj = [[] for _ in used]
    for u, w in edges:
        adj[label[u]].append(label[w])
        adj[label[w]].append(label[u])
    return [sorted(row) for row in adj]


@settings(max_examples=200, deadline=None)
@given(even_degree_graphs(), st.integers(0, 3))
def test_parity_rule_matches_brute_force_on_even_degree_graphs(adj, k):
    assert all(len(row) % 2 == 0 for row in adj)
    edges = _edge_list(adj)
    brute = brute_min_k_cut(len(adj), edges, k, "edge")
    proved, value, witness = _search("subset", adj, k, "edge")
    assert (proved, value) == (True, brute), (adj, k)
    if value is not None:
        assert brute_is_k_cut(len(adj), edges, k, "edge", witness), (adj, k)


def _hypercube(n):
    return [sorted(v ^ (1 << i) for i in range(n)) for v in range(2 ** n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_subset_enumeration_finds_the_hypercube_formula(n):
    # kappa^k(Q_n) = 2^k (n - k) for k <= n - 2 (Oh and Choi 1993; Latifi,
    # Hegde and Naraghi-Pour 1994); the edge analogue is asserted for k <= 1
    adj = _hypercube(n)
    edges = _edge_list(adj)
    for mode in ("vertex", "edge"):
        for k in range(n - 1) if mode == "vertex" else range(min(2, n - 1)):
            proved, value, witness = _search("subset", adj, k, mode)
            assert (proved, value) == (True, 2 ** k * (n - k)), (mode, k)
            assert brute_is_k_cut(len(adj), edges, k, mode, witness), (mode, k)
            if n <= 3 or mode == "vertex":
                assert brute_min_k_cut(len(adj), edges, k, mode) == value, (mode, k)


def test_component_growth_finds_the_q4_edge_formula():
    # subset enumeration takes about a minute here without a flow bound
    adj = _hypercube(4)
    proved, value, witness = _search("growth", adj, 2, "edge")
    assert (proved, value) == (True, 8)
    edges = _edge_list(adj)
    assert brute_is_k_cut(16, edges, 2, "edge", witness)
