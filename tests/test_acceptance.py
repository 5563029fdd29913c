"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The large n=5, k=1 search
runs under a wall budget of STRETCH_SECONDS per mode, and both modes must
exhaust their class within it.
"""

import contextlib
import os
import random
import time
from math import comb, factorial

from starcut import (
    SearchBudget,
    StarGraph,
    classical_connectivity,
    cut_size_formula,
    exact_kappa_super,
    exact_lambda_super,
    is_k_edge_cut,
    is_k_vertex_cut,
    sample_min_degree_subgraphs,
    substar_iso_ok,
    substar_isolating_cut,
    symbol_profile,
    unique_neighbor_report,
    validate_dimension_partition,
    validate_symbol_partition,
    verify_witness_exhaustive,
    witness_position,
)
from starcut.cli import main

STRETCH_SECONDS = 75.0  # wall budget per mode for the n=5, k=1 search


@contextlib.contextmanager
def criterion(num: int, desc: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"FAIL acceptance {num}: {desc} ({time.time() - t0:.1f}s)")
        raise
    print(f"PASS acceptance {num}: {desc} ({time.time() - t0:.1f}s)")


def test_acceptance_1_exact_values_small_instances():
    expected = {
        (2, 0): 1,
        (3, 0): 2,
        (3, 1): 2,
        (4, 0): 3,
        (4, 1): 4,
        (4, 2): 6,
    }
    with criterion(1, "exact oracle equals (k+1)!(n-k-1) on the six small instances"):
        for (n, k), value in sorted(expected.items()):
            g = StarGraph(n)
            rv = exact_kappa_super(g, k, workers=1)
            assert rv.kind == "exact" and rv.value == value, (n, k, rv)
            re = exact_lambda_super(g, k, workers=1)
            assert re.kind == "exact" and re.value == value, (n, k, re)
            assert value == cut_size_formula(n, k)
            if rv.witness and len(rv.witness) < g.num_vertices:
                assert is_k_vertex_cut(g, rv.witness, k).valid
            if re.witness:
                assert is_k_edge_cut(g, re.witness, k).valid


def test_acceptance_2_stretch_search_s5_k1(s5):
    # the CPUs this process may run on, as the CLI's default --threads
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(8, cpus)
    desc = (
        f"n=5 k=1 search reports exact 6 within {STRETCH_SECONDS:.0f}s per mode on "
        f"{workers} workers"
    )
    with criterion(2, desc):
        budget = SearchBudget(max_wall_time=STRETCH_SECONDS)
        rv = exact_kappa_super(s5, 1, budget=budget, workers=workers)
        assert rv.kind == "exact", rv.kind
        assert rv.value == 6, rv
        assert is_k_vertex_cut(s5, rv.witness, 1).valid
        budget = SearchBudget(max_wall_time=STRETCH_SECONDS)
        re = exact_lambda_super(s5, 1, budget=budget, workers=workers)
        assert re.kind == "exact", re.kind
        assert re.value == 6, re
        assert is_k_edge_cut(s5, re.witness, 1).valid
        # every degree of S5 is 4, so the parity lemma prunes size 5 and
        # only size 4 is walked, in full
        assert re.stats.sizes_examined == [4], re.stats
        assert re.stats.pruned_sizes == [1, 2, 3, 5], re.stats
        assert re.stats.nodes == comb(240, 4), re.stats
        print(f"  vertex: {rv.kind} (nodes={rv.stats.nodes})")
        print(f"  edge:   {re.kind} (nodes={re.stats.nodes})")


def test_acceptance_3_construction_validates_up_to_n8():
    with criterion(3, "constructed cuts for 2 <= n <= 8, 0 <= k <= n-2 all validate"):
        for n in range(2, 9):
            g = StarGraph(n)
            for k in range(0, n - 1):
                cut = substar_isolating_cut(n, k, graph=g)
                expected = cut_size_formula(n, k)
                assert len(cut.t) == len(cut.f) == expected, (n, k)
                assert len(cut.x) == factorial(k + 1)
                assert substar_iso_ok(g, cut.x, k), (n, k)
                vv = is_k_vertex_cut(g, cut.t, k)
                assert vv.valid, (n, k, vv.reason)
                ve = is_k_edge_cut(g, cut.f, k)
                assert ve.valid, (n, k, ve.reason)


def test_acceptance_4_partition_structures_up_to_n7():
    with criterion(4, "both partition validators pass for all n <= 7, all j and i"):
        for n in range(2, 8):
            g = StarGraph(n)
            for j in range(2, n + 1):
                rep = validate_dimension_partition(g, j)
                assert rep.ok, (n, j, rep.problems)
                assert all(
                    c == factorial(n - 2) for c in rep.pair_edge_counts.values()
                )
            for i in range(1, n + 1):
                rep = validate_symbol_partition(g, i)
                assert rep.ok, (n, i, rep.problems)
                assert all(s == factorial(n - 1) for s in rep.matching_sizes.values())
                assert rep.part_pair_edge_count == 0


def test_acceptance_5_classical_connectivity_up_to_n6():
    with criterion(5, "max-flow connectivity equals (n-1, n-1) for 2 <= n <= 6"):
        for n in range(2, 7):
            g = StarGraph(n)
            assert classical_connectivity(g) == (n - 1, n - 1), n


def test_acceptance_6_witness_property_suite(s4, s5, s6):
    desc = (
        "witness position: complete search over S4 (k=1,2), 1000 seeded "
        "samples each for S5/S6 (k=1..3), and the profile sum identity on "
        "10000 random sets"
    )
    with criterion(6, desc):
        # complete counterexample search: any connected subgraph with min
        # degree >= k whose position symbol sets all stay at size <= k would
        # appear as a nonempty k-core inside one symbol box
        for k in (1, 2):
            rep = verify_witness_exhaustive(s4, k)
            assert rep.ok, rep.violations

        # exercise the witness function itself on every small connected
        # subgraph; the box search above already covers the larger sizes
        from starcut.core import induced_min_degree
        from helpers import connected_induced_subgraphs

        adjacency = [set(row) for row in s4.adjacency_lists()]
        invoked = 0
        for xs in connected_induced_subgraphs(adjacency, max_size=6):
            delta = induced_min_degree(s4, xs)
            for k in (1, 2):
                if delta >= k:
                    assert 2 <= witness_position(s4, xs, k) <= 4
                    invoked += 1
        assert invoked > 1000

        rng = random.Random(20240)
        for g in (s5, s6):
            for k in (1, 2, 3):
                kept, draws = sample_min_degree_subgraphs(g, k, 1000, rng)
                assert draws >= 1000
                assert len(kept) >= 25, (g.n, k, len(kept))
                for xs in kept:
                    j = witness_position(g, xs, k)
                    assert 2 <= j <= g.n
                    profile = symbol_profile(g.n, xs)
                    for v in xs:
                        first = g.perm(v)[0] + 1
                        assert len(profile.W[first]) >= k

        checked = 0
        for n in range(2, 7):
            g = StarGraph(n)
            for _ in range(2000):
                size = rng.randrange(1, g.num_vertices + 1)
                xs = rng.sample(range(g.num_vertices), size)
                profile = symbol_profile(n, xs)
                assert profile.duality_ok()
                assert profile.position_sum() == profile.symbol_sum()
                checked += 1
        assert checked == 10000


def test_acceptance_7_unique_neighbor_property():
    with criterion(7, "every vertex outside X has at most one neighbor in X, "
                      "every cut vertex exactly one (2 <= n <= 6, all k)"):
        for n in range(2, 7):
            g = StarGraph(n)
            for k in range(0, n - 1):
                cut = substar_isolating_cut(n, k, graph=g)
                rep = unique_neighbor_report(g, cut.x)
                assert rep.outside_at_most_one, (n, k)
                assert rep.boundary_all_single, (n, k)
                assert set(rep.boundary_counts) == set(cut.t), (n, k)


def test_acceptance_8_table_determinism(tmp_path, capsys):
    with criterion(8, "table --max-n 5 is byte-identical across 3 runs and "
                      "across --threads 1 vs --threads 8"):
        outputs = []
        for run in range(3):
            path = tmp_path / f"t{run}.csv"
            code = main(["table", "--max-n", "5", "--seed", "0",
                         "--threads", "1", "-o", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

        path = tmp_path / "t8.csv"
        code = main(["table", "--max-n", "5", "--seed", "0",
                     "--threads", "8", "-o", str(path)])
        assert code == 0
        assert path.read_bytes() == outputs[0]

        lines = outputs[0].decode().splitlines()
        assert lines[0] == "n,k,formula,construction_ok,oracle_kind,oracle_value,agree"
        # exact cells at n <= 4 agree with the formula; n = 5 search cells
        # may be exact or budget-limited but must still agree on the value
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[3] == "true" and fields[6] == "true"
