"""Command line interface.

One entry point with eight subcommands: run, eval, auprc, importance,
heatmap, simulate, gen-synthetic, summary.  Exit code 0 on success, 1 on
usage errors, 2 on data errors.  All randomness flows from --seed, so
identical invocations produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from typing import Iterable

import numpy as np

from . import analysis, buildsim, metrics, sampler, surrogate
from .configspace import load_graph, random_configurations, save_graph, space_size
from .dataset import Dataset, DatasetOracle, load_dataset, save_dataset
from .rng import derive_seed, substream

__all__ = ["dispatch", "main"]

_ENUMERATION_EMIT_LIMIT = 100_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _write_chunks(path: str | None, chunks: Iterable[str]) -> None:
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _write_text(path: str | None, text: str) -> None:
    _write_chunks(path, (text,))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _load_data(path: str, graph_path: str | None) -> Dataset:
    graph = load_graph(graph_path) if graph_path else None
    return load_dataset(path, graph=graph)


def _fit_or_load_model(args) -> surrogate.FactorModel:
    if args.model:
        given = [f"--{name}" for name in ("data", "graph", "smoothing")
                 if getattr(args, name) is not None]
        if given:
            raise _UsageError(f"--model cannot be combined with {', '.join(given)}")
        return surrogate.load_model(args.model)
    if args.data:
        dataset = _load_data(args.data, args.graph)
        return surrogate.fit(dataset, dataset.graph,
                             1.0 if args.smoothing is None else args.smoothing)
    raise _UsageError("either --model or --data is required")


def _cmd_run(args) -> int:
    if args.pool_size is not None and args.candidate_mode != "pool":
        raise _UsageError("--pool-size needs --candidate-mode pool")
    kind, _, path = args.oracle.partition(":")
    if kind == "dataset":
        dataset = _load_data(path, args.graph)
        graph = dataset.graph
        oracle: sampler.BuildOracle = DatasetOracle(dataset)
    elif kind == "synthetic":
        if not args.graph:
            raise _UsageError("synthetic oracle needs --graph")
        graph = load_graph(args.graph)
        rules = buildsim.load_rules(path)
        oracle = buildsim.SyntheticOracle(graph, rules, seed=args.seed)
    else:
        raise _UsageError(
            f"oracle must be dataset:<path> or synthetic:<path>, got {args.oracle!r}"
        )
    cfg = sampler.SamplerConfig(
        strategy=args.strategy,
        bootstrap_size=args.bootstrap,
        budget=args.budget,
        candidate_mode=args.candidate_mode,
        pool_size=sampler.SamplerConfig.pool_size if args.pool_size is None else args.pool_size,
        seed=args.seed,
        smoothing=args.smoothing,
    )
    result = sampler.run(oracle, graph, cfg)
    lines = [json.dumps(entry.to_dict(), sort_keys=True) for entry in result.trace]
    _write_text(args.out, "".join(line + "\n" for line in lines))
    if args.model_out:
        surrogate.save_model(result.model, args.model_out)
    return 0


def _comma_list(kind):
    """An argparse type: a comma list of kind values, blanks dropped; a list
    with no value is an error."""
    def parse(text: str) -> list:
        try:
            values = [kind(item.strip()) for item in text.split(",") if item.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"{text!r} is not a comma list of {kind.__name__}")
        return values
    return parse


def _cmd_eval(args) -> int:
    dataset = _load_data(args.data, None)
    try:
        reports = metrics.sweep_experiment(
            dataset,
            args.strategies,
            args.sizes,
            repetitions=args.reps,
            base_seed=args.seed,
            bootstrap_size=args.bootstrap,
            smoothing=args.smoothing,
        )
    except metrics.StrategyListError as exc:
        raise _UsageError(f"argument --strategies: {exc}") from exc
    payload = [row for strategy in args.strategies for row in reports[strategy].rows()]
    if args.format == "csv":
        header = ["strategy", "size", "mean_p", "sd_p", "mean_r", "sd_r"]
        _write_text(args.out, _csv_text([header, *(list(row.values()) for row in payload)]))
    else:
        _write_text(args.out, _json_text(payload))
    return 0


def _cmd_auprc(args) -> int:
    if args.reps < 1:
        raise ValueError("repetitions must be positive")
    dataset = _load_data(args.data, None)
    seeds = [derive_seed(args.seed, "auprc", i) for i in range(args.reps)]
    values = [
        metrics.auprc_experiment(
            dataset,
            args.strategy,
            seed,
            selections=args.selections,
            bootstrap_size=args.bootstrap,
            smoothing=args.smoothing,
        )
        for seed in seeds
    ]
    arr = np.asarray(values)
    payload = {
        "strategy": args.strategy,
        "seeds": seeds,
        "values": values,
        "mean": float(arr.mean()),
        "sd": metrics._spread(arr),
    }
    _write_text(args.out, _json_text(payload))
    return 0


def _cmd_importance(args) -> int:
    model = _fit_or_load_model(args)
    entries = analysis.importance_ranking(model, top_k=args.top)
    if args.format == "csv":
        rows = [["target", "score"]] + [[e.target, e.score] for e in entries]
        _write_text(args.out, _csv_text(rows))
    else:
        _write_text(args.out, _json_text([e.to_dict() for e in entries]))
    return 0


def _cmd_heatmap(args) -> int:
    model = _fit_or_load_model(args)
    graph = model.graph
    edges = [(graph.packages[p], graph.packages[c]) for p, c in graph.edges]
    # --edge selects by the name an edge's file takes; two edges may share
    # one, and are refused below.
    if args.edge:
        edges = [(parent, child) for parent, child in edges
                 if f"{parent}{analysis.EDGE_SEPARATOR}{child}" == args.edge]
        if not edges:
            raise ValueError(f"no edge {args.edge!r} in the graph")
    names = [f"{parent}{analysis.EDGE_SEPARATOR}{child}.csv" for parent, child in edges]
    for (parent, child), name in zip(edges, names):
        if any(sep and sep in name for sep in (os.sep, os.altsep, "\0")):
            raise ValueError(f"edge {parent!r} -> {child!r}: {name!r} is not one path component")
        if names.count(name) > 1:
            raise ValueError(f"edge {parent!r} -> {child!r}: another edge's file is {name!r} too")
    matrices = [analysis.pair_compatibility(model, edge) for edge in edges]
    constraints = [pair.to_dict() for matrix in matrices
                   for pair in analysis.extract_constraints(matrix, threshold=args.threshold)]
    # Extracting every edge's constraints checks the threshold; nothing is
    # written until it has passed.
    os.makedirs(args.out_dir, exist_ok=True)
    for name, matrix in zip(names, matrices):
        _write_text(os.path.join(args.out_dir, name), _csv_text(matrix.to_rows()))
    payload = {"threshold": args.threshold, "pairs": constraints}
    _write_text(os.path.join(args.out_dir, "constraints.json"), _json_text(payload))
    return 0


def _cmd_simulate(args) -> int:
    graph = load_graph(args.graph)
    rules = buildsim.load_rules(args.rules)
    rules.check_against(graph)
    if args.data and args.sample is not None:
        raise _UsageError("give either --data or --sample, not both")
    if args.latency_sigma is not None and args.latency != "lognormal":
        raise _UsageError("--latency-sigma needs --latency lognormal")
    sigma = 0.5 if args.latency_sigma is None else args.latency_sigma
    if args.workers < 1:
        raise ValueError(f"--workers {args.workers} must be at least 1")
    if args.latency == "lognormal" and not 0.0 <= sigma < math.inf:
        raise ValueError(f"latency sigma {sigma} (--latency-sigma) is not finite and >= 0")
    if args.data:
        configs = _load_data(args.data, args.graph).rows
    elif args.sample is not None:
        if args.sample < 1:
            raise ValueError("sample size must be positive")
        configs = random_configurations(graph, substream(args.seed, "simulate-sample"),
                                        args.sample)
    else:
        raise _UsageError("either --data or --sample is required")
    dag = buildsim.build_dag(configs, graph)
    builds = buildsim.planted_outcome(dag, rules, graph, seed=args.seed)
    latencies = None
    if args.latency == "lognormal":
        rng = substream(args.seed, "simulate-latency")
        latencies = rng.lognormal(mean=0.0, sigma=sigma, size=dag.node_count)
    report = buildsim.simulate(dag, builds, workers=args.workers, latencies=latencies)
    _write_chunks(args.out, report.json_chunks())
    return 0


def _cmd_gen_synthetic(args) -> int:
    versions = args.versions
    graph, rules = buildsim.generate_benchmark(
        n_packages=args.packages,
        domain_sizes=versions[0] if len(versions) == 1 else versions,
        rule_density=args.rule_density,
        target_rate=args.target_rate,
        seed=args.seed,
    )
    if args.emit_data and space_size(graph) > _ENUMERATION_EMIT_LIMIT:
        raise ValueError(
            f"space of {space_size(graph)} configurations is too large to "
            f"enumerate into a dataset (limit {_ENUMERATION_EMIT_LIMIT})"
        )
    save_graph(graph, args.out_graph)
    buildsim.save_rules(rules, args.out_rules)
    if args.emit_data:
        oracle = buildsim.SyntheticOracle(graph, rules, seed=args.seed)
        dataset = buildsim.enumerate_records(oracle)
        graph_rel = os.path.relpath(
            os.path.abspath(args.out_graph),
            os.path.dirname(os.path.abspath(args.emit_data)) or ".",
        )
        save_dataset(dataset, args.emit_data, graph_filename=graph_rel)
    return 0


def _cmd_summary(args) -> int:
    dataset = _load_data(args.data, None)
    # Dependencies are the packages other than the root.
    counts = {"configs": len(dataset), "good": dataset.good_count,
              "deps": dataset.graph.n_packages - 1}
    if args.format == "json":
        _write_text(args.out, _json_text(counts))
    else:
        width = max(map(len, counts))
        lines = [f"{k:<{width}}  {v}" for k, v in counts.items()]
        _write_text(args.out, "".join(line + "\n" for line in lines))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="buildtuner",
                     description="Autotuning toolkit for package build configurations")
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=_Parser)

    p = commands.add_parser("run", help="adaptive sampling run; writes a trace")
    p.add_argument("--oracle", required=True,
                   help="dataset:<data.jsonl> or synthetic:<rules.json>")
    p.add_argument("--graph", help="graph JSON (required for synthetic oracles)")
    p.add_argument("--strategy", choices=sampler.STRATEGIES, default="bayesian")
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--bootstrap", type=int, default=20)
    p.add_argument("--candidate-mode", choices=sampler.CANDIDATE_MODES,
                   default="exhaustive")
    p.add_argument("--pool-size", type=int, help="draws per selection in pool mode (default 1000)")
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", help="trace JSONL path (default stdout)")
    p.add_argument("--model-out", help="also export the final model JSON")
    p.set_defaults(func=_cmd_run)

    p = commands.add_parser("eval", help="precision/recall sweep over strategies")
    p.add_argument("--data", required=True)
    p.add_argument("--strategies", type=_comma_list(str), default="bayesian,crowd,random")
    p.add_argument("--sizes", type=_comma_list(int), default="20,40,60,80,100")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--bootstrap", type=int, default=20)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = commands.add_parser("auprc", help="split/train/rank evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--strategy", choices=sampler.STRATEGIES, default="bayesian")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--selections", type=int, default=100)
    p.add_argument("--bootstrap", type=int, default=20)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_auprc)

    p = commands.add_parser("importance",
                            help="rank packages and edges by outcome divergence")
    p.add_argument("--model", help="model JSON from run --model-out")
    p.add_argument("--data", help="fit a model from this dataset instead")
    p.add_argument("--graph", help="graph override when fitting from --data")
    p.add_argument("--smoothing", type=float, help="when fitting from --data (default 1.0)")
    p.add_argument("--top", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_importance)

    p = commands.add_parser("heatmap",
                            help="per-edge compatibility matrices and constraints")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--graph")
    p.add_argument("--smoothing", type=float, help="when fitting from --data (default 1.0)")
    p.add_argument("--edge", help="restrict to the edge named parent+child, e.g. root+dep01")
    p.add_argument("--threshold", type=float, default=0.25)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_heatmap)

    p = commands.add_parser("simulate", help="farmer-worker build DAG simulation")
    p.add_argument("--graph", required=True)
    p.add_argument("--rules", required=True)
    p.add_argument("--data", help="take configurations from this dataset")
    p.add_argument("--sample", type=int, help="or draw this many at random")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--latency", choices=("unit", "lognormal"), default="unit")
    p.add_argument("--latency-sigma", type=float, help="lognormal spread (default 0.5)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = commands.add_parser("gen-synthetic",
                            help="random benchmark graph with planted rules")
    p.add_argument("--packages", type=int, required=True)
    p.add_argument("--versions", type=_comma_list(int), default="3",
                   help="versions per package: one int or a comma list")
    p.add_argument("--rule-density", type=float, default=0.3)
    p.add_argument("--target-rate", type=float, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-graph", required=True)
    p.add_argument("--out-rules", required=True)
    p.add_argument("--emit-data", help="also enumerate a labeled dataset JSONL")
    p.set_defaults(func=_cmd_gen_synthetic)

    p = commands.add_parser("summary", help="dataset size/good/deps counts")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_summary)

    return parser


def dispatch(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())
