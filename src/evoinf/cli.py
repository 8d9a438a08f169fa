"""Command-line interface.

Commands: gen, snapshot, diff, select, incinf, evaluate, analyze, bench.
Outputs go to stdout unless --out is given. Errors exit nonzero with a
one-line JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import analytics
from .bench import (_STATIC, parse_scenario, report_csv, report_json,
                    run_benchmark)
from .errors import EvoinfError, InvalidConfig
from .generate import GenConfig, generate_evolving
from .graph import (GraphBuilder, RemoveNode, Snapshot,
                    cascade_node_removal, diff, format_change,
                    read_change_stream, write_change_stream)
from .incremental import EvolutionContext, PruneConfig, _incinf
from .ingest import (load_temporal_edges, parse_prob_policy, snapshot_at,
                     write_id_map)
from .localize import _check_theta
from .select import _check_k
from .simulate import _check_runs, simulate_spread


def _add_graph_args(p: argparse.ArgumentParser, suffix: str = "") -> None:
    opt = suffix.replace("_", "-")
    p.add_argument(f"--edges{opt}", dest=f"edges{suffix}", metavar="FILE",
                   help="temporal edge list")
    p.add_argument(f"--streams{opt}", dest=f"streams{suffix}", metavar="DIR",
                   help="directory of stream_NNNN.txt files to replay")
    p.add_argument(f"--at{opt}", dest=f"at{suffix}", type=int, default=None,
                   help="timestamp (edge list) or snapshot index (streams)")


def _load_graph(args, suffix: str = "") -> Snapshot:
    opt = suffix.replace("_", "-")
    edges = getattr(args, f"edges{suffix}")
    streams = getattr(args, f"streams{suffix}")
    at = getattr(args, f"at{suffix}")
    if (edges is None) == (streams is None):
        raise EvoinfError(f"give exactly one of --edges{opt} / "
                          f"--streams{opt}")
    if at is None:
        raise EvoinfError(f"--at{opt} is required")
    if edges is not None:
        records, _ = load_temporal_edges(edges, undirected=args.undirected)
        policy = parse_prob_policy(args.prob_policy, args.prob_seed)
        return snapshot_at(records, at, policy)
    return _replay_streams(Path(streams), at,
                           cascade=getattr(args, "cascade", False))


def _replay_streams(stream_dir: Path, upto: int,
                    cascade: bool = False) -> Snapshot:
    b = GraphBuilder()
    for k in range(upto + 1):
        path = stream_dir / f"stream_{k:04d}.txt"
        if not path.exists():
            raise EvoinfError(f"missing stream file {path}")
        for c in read_change_stream(path):
            if cascade and isinstance(c, RemoveNode) and b.has_node(c.node) \
                    and (b.out_degree(c.node) or b.in_degree(c.node)):
                for cc in cascade_node_removal(b, c.node):
                    b.apply(cc)
            else:
                b.apply(c)
    return b.freeze(upto)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _parse_seed_list(spec: str | None, option: str) -> list[int]:
    """Node ids from `a,b,c`, or from `@FILE` holding a JSON list of ids or
    an object with a `seeds` list (what `select --out` writes)."""
    if spec is None:
        raise InvalidConfig(f"--{option} is required")
    if spec.startswith("@"):
        items = json.loads(Path(spec[1:]).read_text(encoding="utf-8"))
        items = items.get("seeds") if isinstance(items, dict) else items
    else:
        items = [s for s in spec.split(",") if s.strip()]
    # int() would truncate a float and accept a bool without complaint
    if isinstance(items, list) and all(type(s) in (int, str) for s in items):
        try:
            return [int(s) for s in items]
        except ValueError:
            pass
    raise InvalidConfig(f"--{option} must be node ids a,b,c or @FILE with "
                        f"a JSON list or a 'seeds' list, got {spec!r}")


def _write_edge_list(g: Snapshot, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# snapshot label={g.label} nodes={g.num_nodes} "
                 f"edges={g.num_edges}\n")
        for u, v, p in sorted(g.edges()):
            fh.write(f"{u}\t{v}\t{g.label}\t{p!r}\n")


def cmd_gen(args) -> int:
    cfg = GenConfig(**{f.name: getattr(args, f.name)
                       for f in fields(GenConfig)})
    snapshots, streams = generate_evolving(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # stream_0000 builds snapshot 0 from the empty graph
    write_change_stream(out_dir / "stream_0000.txt",
                        diff(Snapshot({}, {}, 0), snapshots[0]))
    for i, stream in enumerate(streams, start=1):
        write_change_stream(out_dir / f"stream_{i:04d}.txt", stream)
    if args.emit_edgelists:
        for g in snapshots:
            _write_edge_list(g, out_dir / f"snapshot_{g.label:04d}.tsv")
    meta = {
        "config": vars(cfg),
        "snapshots": [{"label": g.label, "nodes": g.num_nodes,
                       "edges": g.num_edges} for g in snapshots],
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2),
                                       encoding="utf-8")
    print(f"wrote {len(streams) + 1} stream files to {out_dir}")
    return 0


def cmd_snapshot(args) -> int:
    g = _load_graph(args)
    if args.out:
        _write_edge_list(g, Path(args.out))
        if args.edges and args.ids_out:
            _, ids = load_temporal_edges(args.edges,
                                         undirected=args.undirected)
            write_id_map(args.ids_out, ids)
    else:
        _emit(args, f"label={g.label} nodes={g.num_nodes} "
                    f"edges={g.num_edges}")
    return 0


def cmd_diff(args) -> int:
    a = _load_graph(args, "_old")
    b = _load_graph(args, "_new")
    stream = diff(a, b)
    text = "".join(format_change(c) + "\n" for c in stream)
    _emit(args, text)
    return 0


def cmd_select(args) -> int:
    g = _load_graph(args)
    res = _STATIC[args.algo](g, args.k, args.theta, args.runs, args.seed)
    _emit(args, json.dumps(res.to_dict(), indent=2))
    return 0


def cmd_incinf(args) -> int:
    g_old = _load_graph(args, "_old")
    if args.stream:
        ctx = EvolutionContext.from_stream(g_old,
                                           read_change_stream(args.stream))
    else:
        g_new = _load_graph(args, "_new")
        ctx = EvolutionContext.from_snapshots(g_old, g_new)
    prev = _parse_seed_list(args.prev_seeds, "prev-seeds")
    cfg = PruneConfig(args.eta, prev)
    res, table = _incinf(ctx, prev, args.k, args.theta, cfg,
                         prune_enabled=not args.no_prune, pad=args.pad)
    if args.emit_deltas:
        with open(args.emit_deltas, "w", encoding="utf-8") as fh:
            table.write_csv(fh)
    _emit(args, json.dumps(res.to_dict(), indent=2))
    return 0


def cmd_evaluate(args) -> int:
    g = _load_graph(args)
    seeds = _parse_seed_list(args.seeds, "seeds")
    est = simulate_spread(g, seeds, args.runs, args.seed)
    _emit(args, json.dumps({"mean": est.mean, "std_error": est.std_error,
                            "runs": est.runs}, indent=2))
    return 0


def cmd_analyze(args) -> int:
    lines: list[str] = []
    if args.what == "degrees":
        g = _load_graph(args)
        hist = analytics.degree_distribution(g, kind=args.degree_kind)
        lines.append("bin_low,count")
        lines.extend(f"{b},{c}" for b, c in sorted(hist.items()))
        try:
            slope = analytics.powerlaw_slope(hist)
            lines.append(f"# loglog_slope,{slope:.4f}")
        except ValueError:
            pass
    elif args.what == "pa":
        a = _load_graph(args, "_old")
        b = _load_graph(args, "_new")
        curve = analytics.pa_correlation(a, b)
        lines.append("degree,mean_new_in_edges,samples")
        lines.extend(f"{d},{m:.6f},{n}" for d, (m, n) in curve.items())
    elif args.what == "growth":
        if not args.at_list:
            raise InvalidConfig("analyze growth needs --at-list with at "
                                "least one snapshot time")
        snaps = []
        for at in args.at_list:
            ns = argparse.Namespace(**{**vars(args), "at": at})
            snaps.append(_load_graph(ns))
        lines.append("label,nodes,edges")
        lines.extend(f"{l},{n},{e}"
                     for l, n, e in analytics.growth_stats(snaps))
    else:  # rank
        g = _load_graph(args)
        seeds = _parse_seed_list(args.seeds, "seeds")
        ranks = analytics.influence_degree_rank(g, seeds,
                                                kind=args.degree_kind)
        lines.append("seed,degree_rank")
        lines.extend(f"{s},{r}" for s, r in zip(seeds, ranks))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    report = run_benchmark(parse_scenario(args.scenario))
    if args.out:
        base = Path(args.out)
        base.with_suffix(".csv").write_text(report_csv(report),
                                            encoding="utf-8")
        base.with_suffix(".json").write_text(report_json(report),
                                             encoding="utf-8")
        print(f"wrote {base.with_suffix('.csv')} and "
              f"{base.with_suffix('.json')}")
    else:
        sys.stdout.write(report_csv(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="evoinf",
        description="influence maximization on evolving directed graphs")
    sub = top.add_subparsers(dest="command", required=True)

    def common_graph_opts(p, suffixes=("",)):
        for s in suffixes:
            _add_graph_args(p, s)
        p.add_argument("--prob-policy", default="trivalency",
                       help="fill policy for missing probabilities: "
                            "trivalency | fixed:<p>")
        p.add_argument("--prob-seed", type=int, default=0)
        p.add_argument("--undirected", action="store_true",
                       help="ingest each record as two directed edges")
        p.add_argument("--cascade", action="store_true",
                       help="during stream replay, expand node removals "
                            "into their incident edge removals first")

    # each dest is a GenConfig field name; cmd_gen builds the config by them
    p = sub.add_parser("gen", help="generate an evolving network")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--nodes-per-step", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--prob-policy", default="trivalency")
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                   default=0)
    p.add_argument("--extra-edge-fraction", type=float, default=0.0)
    p.add_argument("--remove-edge-fraction", type=float, default=0.0)
    p.add_argument("--weight-change-fraction", type=float, default=0.0)
    p.add_argument("--remove-node-count", type=int, default=0)
    p.add_argument("--emit-edgelists", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("snapshot", help="extract a snapshot at a time point")
    common_graph_opts(p)
    p.add_argument("--ids-out", help="write the original-id mapping here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("diff", help="change stream between two snapshots")
    common_graph_opts(p, ("_old", "_new"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("select", help="static top-K selection")
    common_graph_opts(p)
    p.add_argument("--algo", choices=tuple(_STATIC), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("incinf", help="incremental top-K selection")
    common_graph_opts(p, ("_old", "_new"))
    p.add_argument("--stream", help="change stream file (overrides --*_new)")
    p.add_argument("--prev-seeds", required=True,
                   help="comma list, or @file (JSON list or select output)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--pad", action="store_true",
                   help="pad a short previous seed list")
    p.add_argument("--emit-deltas", metavar="CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_incinf)

    p = sub.add_parser("evaluate", help="Monte-Carlo spread of a seed set")
    common_graph_opts(p)
    p.add_argument("--seeds", required=True)
    p.add_argument("--runs", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="evolution analytics")
    p.add_argument("what", choices=("degrees", "pa", "growth", "rank"))
    common_graph_opts(p, ("", "_old", "_new"))
    p.add_argument("--at-list", type=int, nargs="*", default=[],
                   help="snapshot times for growth series")
    p.add_argument("--seeds", help="seed list for rank")
    p.add_argument("--degree-kind", choices=("in", "out", "total"),
                   default="total")
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="run a benchmark scenario")
    p.add_argument("scenario")
    p.add_argument("--out", help="output path base (.csv/.json)")
    p.set_defaults(func=cmd_bench)

    return top


def _check_ranges(args) -> None:
    theta = getattr(args, "theta", None)
    if theta is not None:
        _check_theta(theta, "--theta")
    ats = [(name, getattr(args, name, None))
           for name in ("at", "at_old", "at_new")]
    ats += [("at_list", at) for at in getattr(args, "at_list", None) or ()]
    for name, at in ats:
        if at is not None and at < 0:
            raise InvalidConfig(f"--{name.replace('_', '-')} must be >= 0, "
                                f"got {at}")
    for name, check in [("k", _check_k), ("runs", _check_runs)]:
        value = getattr(args, name, None)
        if value is not None:
            check(value, f"--{name}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args)
    except (EvoinfError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
