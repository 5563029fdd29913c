"""Command line front door: exports, decomposition reports, cut construction
and verification, minimum-cut searches, formula tables, and a structural
property suite.

Exit codes: 0 success or verified, 1 verification failure, 2 usage or input
error, 3 search budget exhausted.  Output is byte-identical for identical
flags and seed; permutations are written as comma separated 1-based symbols
("3,4,1,2"), or as digit strings under --compact (n <= 9 only).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from math import factorial

from .core import (
    AUTO_MATERIALIZE_MAX_N,
    InputError,
    StarGraph,
    _perms,
    _rank,
    parse_perm,
)
from .cuts import (
    CutVerdict,
    cut_size_formula,
    is_k_edge_cut,
    is_k_vertex_cut,
    sample_min_degree_subgraphs,
    substar_isolating_cut,
    symbol_profile,
    unique_neighbor_report,
    verify_witness_exhaustive,
)
from .decomposition import (
    validate_dimension_partition,
    validate_symbol_partition,
)
from .oracle import (
    DEFAULT_TABLE_MAX_NODES,
    SearchBudget,
    classical_connectivity,
    compare_formula,
    exact_kappa_super,
    exact_lambda_super,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports Ctrl-C

TABLE_HEADER = "n,k,formula,construction_ok,oracle_kind,oracle_value,agree"


def _write(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vlabel(n: int, v: int, compact: bool = False) -> str:
    return _perms(n).label(v, compact)


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _add_threads(p):
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes for the search levels large enough "
                        "to pay for them; smaller levels run in-process "
                        "(default: the CPUs this process may run on)")


def _threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise InputError("--threads must be >= 1")
        return args.threads
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_info(args) -> int:
    n = args.n
    g = StarGraph(n)
    special = {1: "K1", 2: "K2", 3: "C6"}.get(n)
    rows = [
        {"k": k, "cut_size": cut_size_formula(n, k)}
        for k in range(0, max(0, n - 1))
    ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "vertices": g.num_vertices,
        "edges": g.num_edges,
        "degree": g.degree,
        "isomorphic_to": special,
        "min_cut_sizes": rows,
    }
    if args.format == "json":
        _write(args, _json(payload))
    else:
        lines = [
            f"star graph n={n}",
            f"  vertices: {g.num_vertices}",
            f"  edges:    {g.num_edges}",
            f"  degree:   {g.degree}",
        ]
        if special:
            lines.append(f"  isomorphic to {special}")
        for row in rows:
            lines.append(
                f"  min {row['k']}-super cut size: {row['cut_size']}"
            )
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_export(args) -> int:
    n = _walkable("export", args.n)
    g = StarGraph(n)
    compact = args.compact
    labels = [_vlabel(n, v, compact) for v in range(g.num_vertices)]
    if args.format == "dot":
        lines = [f"graph starcut_n{n} {{"]
        for v in range(g.num_vertices):
            lines.append(f'  "{labels[v]}";')
        for u, v in g.edges():
            lines.append(f'  "{labels[u]}" -- "{labels[v]}";')
        lines.append("}")
        _write(args, "\n".join(lines) + "\n")
    else:  # jsonl
        lines = [
            json.dumps({"u": labels[u], "v": labels[v]})
            for u, v in g.edges()
        ]
        _write(args, "\n".join(lines) + ("\n" if lines else ""))
    return EXIT_OK


def _parse_by(text: str) -> tuple[str, int]:
    kind, sep, idx = text.partition(":")
    if not sep or kind not in ("dimension", "symbol"):
        raise InputError("--by takes dimension:J or symbol:I")
    try:
        return kind, int(idx)
    except ValueError:
        raise InputError(f"bad index in --by: {idx!r}") from None


def _walkable(cmd: str, n: int) -> int:
    """n for a command that walks all n! vertices; refuses n > 9."""
    if n > AUTO_MATERIALIZE_MAX_N:
        raise InputError(f"{cmd} needs n <= {AUTO_MATERIALIZE_MAX_N}: it walks every "
                         f"vertex of the materialized graph, got n={n}")
    return n


def cmd_decompose(args) -> int:
    g = StarGraph(_walkable("decompose", args.n))
    kind, idx = _parse_by(args.by)
    if kind == "dimension":
        rep = validate_dimension_partition(g, idx)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "n": args.n,
            "by": "dimension",
            "index": idx,
            "ok": rep.ok,
            "part_sizes": {str(i): s for i, s in sorted(rep.part_sizes.items())},
            "parts_isomorphic_to_smaller_star": all(rep.iso_ok.values()),
            "pair_cross_edges": [
                {"parts": list(pair), "edges": cnt}
                for pair, cnt in sorted(rep.pair_edge_counts.items())
            ],
            "expected_cross_edges": factorial(args.n - 2),
            "problems": rep.problems,
        }
    else:
        rep = validate_symbol_partition(g, idx)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "n": args.n,
            "by": "symbol",
            "index": idx,
            "ok": rep.ok,
            "center_size": rep.center_size,
            "center_edges": rep.center_edge_count,
            "parts_isomorphic_to_smaller_star": all(rep.iso_ok.values()),
            "matchings": [
                {"part": j, "edges": rep.matching_sizes[j],
                 "saturates_both_sides": rep.matching_saturates[j]}
                for j in sorted(rep.matching_sizes)
            ],
            "edges_between_parts": rep.part_pair_edge_count,
            "problems": rep.problems,
        }
    if args.format == "json":
        _write(args, _json(payload))
    else:
        status = "pass" if rep.ok else "FAIL"
        lines = [f"{status} {kind} partition of n={args.n} at index {idx}"]
        for key, val in payload.items():
            if key in ("schema_version", "n", "by", "index", "ok"):
                continue
            lines.append(f"  {key}: {val}")
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if rep.ok else EXIT_FAIL


def _cut_payload(cut, compact: bool):
    n = cut.n
    return {
        "schema_version": SCHEMA_VERSION,
        "n": n,
        "k": cut.k,
        "formula": cut.formula,
        "x": [_vlabel(n, v, compact) for v in cut.x],
        "vertices": [_vlabel(n, v, compact) for v in cut.t],
        "edges": [
            [_vlabel(n, u, compact), _vlabel(n, v, compact)] for u, v in cut.f
        ],
        "sizes": {"x": len(cut.x), "vertices": len(cut.t), "edges": len(cut.f)},
    }


def cmd_cut(args) -> int:
    cut = substar_isolating_cut(args.n, args.k)
    _write(args, _json(_cut_payload(cut, args.compact)))
    return EXIT_OK


def _verdict_payload(verdict: CutVerdict):
    mind = verdict.min_surviving_degree
    return {
        "schema_version": SCHEMA_VERSION,
        "mode": verdict.mode,
        "n": verdict.n,
        "k": verdict.k,
        "valid": verdict.valid,
        "reason": verdict.reason,
        "component_sizes": verdict.component_sizes,
        "min_surviving_degree": None if mind == float("inf") else mind,
        "removed": verdict.removed,
    }


def cmd_verify_cut(args) -> int:
    path = args.vertices or args.edges
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path} must hold a JSON object")
    n = args.n if args.n is not None else data.get("n")
    k = args.k if args.k is not None else data.get("k")
    if type(n) is not int or type(k) is not int:
        raise InputError(f"n and k must be integers from the file or from "
                         f"--n/--k, got {n!r} and {k!r}")
    g = StarGraph(_walkable("verify-cut", n))

    def rank(text):
        if not isinstance(text, str):
            raise InputError(f"vertex label {text!r} is not a string")
        p = parse_perm(text)
        if len(p) != n:
            raise InputError(
                f"permutation {text!r} has length {len(p)}, expected {n}"
            )
        return _rank(p)  # parse_perm has validated p

    if args.vertices:
        if not isinstance(data.get("vertices"), list):
            raise InputError(f"{path} has no \"vertices\" list")
        verdict = is_k_vertex_cut(g, [rank(s) for s in data["vertices"]], k)
    else:
        if not isinstance(data.get("edges"), list):
            raise InputError(f"{path} has no \"edges\" list")
        for e in data["edges"]:
            if not isinstance(e, list) or len(e) != 2:
                raise InputError(f"edge {e!r} is not a pair of vertex labels")
        pairs = [(rank(u), rank(v)) for u, v in data["edges"]]
        verdict = is_k_edge_cut(g, pairs, k)
    _write(args, _json(_verdict_payload(verdict)))
    return EXIT_OK if verdict.valid else EXIT_FAIL


def cmd_oracle(args) -> int:
    g = StarGraph(_walkable("oracle", args.n))
    budget = SearchBudget(
        max_nodes=args.max_nodes,
        max_wall_time=args.max_seconds,
        strategy=args.strategy,
    )
    workers = _threads(args)
    fn = exact_kappa_super if args.mode == "vertex" else exact_lambda_super
    res = fn(g, args.k, budget=budget, workers=workers, seed=args.seed)
    if res.witness is None:
        witness = None
    elif res.mode == "vertex":
        witness = [_vlabel(args.n, v, args.compact) for v in res.witness]
    else:
        witness = [
            [_vlabel(args.n, u, args.compact), _vlabel(args.n, v, args.compact)]
            for u, v in res.witness
        ]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "mode": res.mode,
        "n": res.n,
        "k": res.k,
        "kind": res.kind,
        "value": res.value,
        "formula": res.formula,
        "witness": witness,
        "stats": {
            "strategy": res.stats.strategy,
            "workers": res.stats.workers,
            "nodes": res.stats.nodes,
            "candidates_checked": res.stats.candidates_checked,
            "sizes_examined": res.stats.sizes_examined,
            "pruned_sizes": res.stats.pruned_sizes,
            "completed": res.stats.completed,
            "lower_bound": res.stats.lower_bound,
            "seed": res.stats.seed,
            "notes": res.stats.notes,
        },
    }
    _write(args, _json(payload))
    return EXIT_OK if res.kind in ("exact", "no-cut-exists") else EXIT_BUDGET


def cmd_table(args) -> int:
    budget = SearchBudget(max_nodes=args.max_nodes)
    rows = compare_formula(
        range(2, _walkable("table", args.max_n) + 1),
        budget=budget,
        workers=_threads(args),
        seed=args.seed,
    )
    lines = [TABLE_HEADER]
    for r in rows:
        value = "" if r.oracle_value is None else str(r.oracle_value)
        lines.append(
            f"{r.n},{r.k},{r.formula},{str(r.construction_ok).lower()},"
            f"{r.oracle_kind},{value},{str(r.agree).lower()}"
        )
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _check_lines(g: StarGraph, seed: int, samples: int):
    """Run the structural property suite; yields (name, ok, detail)."""
    n = g.n
    checks = []

    for j in range(2, n + 1):
        rep = validate_dimension_partition(g, j)
        checks.append((f"dimension-partition j={j}", rep.ok,
                       f"parts={len(rep.part_sizes)} problems={len(rep.problems)}"))
    for i in range(1, n + 1):
        rep = validate_symbol_partition(g, i)
        checks.append((f"symbol-partition i={i}", rep.ok,
                       f"matchings={sorted(rep.matching_sizes.values())} "
                       f"stray={rep.part_pair_edge_count}"))

    if 2 <= n <= 7:
        kappa, lam = classical_connectivity(g)
        ok = kappa == n - 1 and lam == n - 1
        checks.append(("classical-connectivity", ok, f"kappa={kappa} lambda={lam}"))
    elif n > 7:
        checks.append(("classical-connectivity", True, "skipped (n > 7)"))

    for k in range(0, n - 1):
        cut = substar_isolating_cut(n, k, graph=g)
        vv = is_k_vertex_cut(g, cut.t, k)
        ve = is_k_edge_cut(g, cut.f, k)
        un = unique_neighbor_report(g, cut.x)
        ok = vv.valid and ve.valid and un.ok
        checks.append((f"substar-cut k={k}", ok,
                       f"|T|=|F|={len(cut.t)} expected={cut.formula} "
                       f"vertex={vv.reason} edge={ve.reason} unique={un.ok}"))

    rng = random.Random(seed)
    for k in range(1, min(3, n - 2) + 1):
        kept, draws = sample_min_degree_subgraphs(g, k, samples, rng)
        ok = True
        spread_ok = True
        # every kept sample has induced minimum degree >= k, witness
        # position's precondition, so its profile alone decides the rule
        for xs in kept:
            profile = symbol_profile(n, xs)
            if profile.witness(k) is None:
                ok = False
                break
            # U[1] holds the first symbols of X
            if any(len(profile.W[s]) < k for s in profile.U[1]):
                spread_ok = False
        checks.append((f"witness-position k={k} (sampled)", ok and spread_ok,
                       f"kept {len(kept)} of {draws} draws"))

    ident_ok = True
    for _ in range(samples):
        size = rng.randrange(1, g.num_vertices + 1)
        xs = rng.sample(range(g.num_vertices), size)
        profile = symbol_profile(n, xs)
        if not profile.duality_ok() or profile.position_sum() != profile.symbol_sum():
            ident_ok = False
            break
    checks.append(("profile-sum-identity (sampled)", ident_ok,
                   f"{samples} random vertex sets"))

    if 3 <= n <= 4:
        for k in range(1, n - 1):
            rep = verify_witness_exhaustive(g, k)
            checks.append((f"witness-position k={k} (exhaustive)", rep.ok,
                           f"{rep.boxes_checked} symbol boxes"))
    return checks


def cmd_check(args) -> int:
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    g = StarGraph(_walkable("check", args.n))
    checks = _check_lines(g, args.seed, args.samples)
    all_ok = all(ok for _, ok, _ in checks)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "n": args.n,
            "seed": args.seed,
            "samples": args.samples,
            "ok": all_ok,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in checks
            ],
        }
        _write(args, _json(payload))
    else:
        lines = []
        for name, ok, detail in checks:
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        lines.append(f"{'PASS' if all_ok else 'FAIL'} overall n={args.n}")
        _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcut",
        description="star graph decompositions, k-super cuts, and search oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="vertex/edge counts and cut-size formula rows")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("export", help="write the graph as DOT or JSON lines")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("dot", "jsonl"), default="dot")
    p.add_argument("--compact", action="store_true",
                   help="digit-string vertex labels (n <= 9)")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("decompose", help="partition report with validator verdicts")
    p.add_argument("n", type=int)
    p.add_argument("--by", required=True, metavar="dimension:J|symbol:I")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("cut", help="construct the minimum k-super cut")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--compact", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_cut)

    p = sub.add_parser("verify-cut", help="judge a removal set from a cut file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vertices", metavar="FILE")
    group.add_argument("--edges", metavar="FILE")
    p.add_argument("--n", type=int, default=None, help="override n from the file")
    p.add_argument("--k", type=int, default=None, help="override k from the file")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_verify_cut)

    p = sub.add_parser("oracle", help="search for the minimum k-super cut")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--mode", choices=("vertex", "edge"), default="vertex")
    p.add_argument("--strategy",
                   choices=("auto", "subset-enumeration", "component-growth"),
                   default="auto")
    p.add_argument("--max-nodes", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--compact", action="store_true")
    _add_threads(p)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("table", help="formula vs construction vs oracle, as CSV")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_TABLE_MAX_NODES)
    p.add_argument("--seed", type=int, default=None)
    _add_threads(p)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("check", help="run the structural property suite")
    p.add_argument("n", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
