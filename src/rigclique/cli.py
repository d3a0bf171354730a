"""Command-line interface.

Subcommands: gen, solve, oracle, from-labels, chordal, reconstruct,
experiment. Exit codes: 0 success, 1 runtime failure (malformed file,
refused search), 2 usage error. All options come from flags; there are no
config files or environment variables.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from .experiments import KINDS, ExperimentConfig, run_experiment
from .graph import induced_graph, is_chordal
from .io import decode_graph, decode_labels, encode_graph, encode_labels
from .oracle import DEFAULT_NODE_BUDGET, exact_max_clique
from .quotient import find_max_clique
from .reconstruct import reconstruct_labels, reps_equivalent
from .rig import (RigParams, max_clique_from_labels, resolve_params,
                  sample_label_representation)


class UsageError(Exception):
    """Bad flag combination that argparse alone cannot express."""


def _add_model_flags(sp: argparse.ArgumentParser, with_n: bool = True) -> None:
    if with_n:
        sp.add_argument("--n", type=int, required=True, help="number of vertices")
    size = sp.add_mutually_exclusive_group(required=True)
    size.add_argument("--m", type=int, help="number of labels")
    size.add_argument("--alpha", type=float, help="label count exponent: m = ceil(n**alpha)")
    prob = sp.add_mutually_exclusive_group(required=True)
    prob.add_argument("--p", type=float, help="label pick probability")
    prob.add_argument("--mp2", type=float, help="m*p**2 product: p = sqrt(mp2/m)")


def _params(args: argparse.Namespace, n: int) -> RigParams:
    return resolve_params(n=n, m=args.m, p=args.p, alpha=args.alpha, mp2=args.mp2)


def _read(path: str) -> str:
    return Path(path).read_text()


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, newline="\n")


def _print_clique(vertices: tuple[int, ...]) -> None:
    print(f"size {len(vertices)}")
    print(" ".join(str(v) for v in vertices))


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.out_graph is None and args.out_labels is None:
        raise UsageError("gen needs --out-graph and/or --out-labels")
    params = _params(args, args.n)
    rep = sample_label_representation(params, args.seed, trial=0)
    if args.out_labels is not None:
        _write(args.out_labels, encode_labels(rep))
    if args.out_graph is not None:
        _write(args.out_graph, encode_graph(induced_graph(rep)))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = decode_graph(_read(args.graph))
    _print_clique(find_max_clique(g, node_budget=args.budget))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = decode_graph(_read(args.graph))
    _print_clique(exact_max_clique(g, node_budget=args.budget))
    return 0


def _cmd_from_labels(args: argparse.Namespace) -> int:
    rep = decode_labels(_read(args.labels))
    _print_clique(max_clique_from_labels(rep))
    return 0


def _cmd_chordal(args: argparse.Namespace) -> int:
    g = decode_graph(_read(args.graph))
    ok, order = is_chordal(g)
    print(f"chordal {1 if ok else 0}")
    if ok:
        assert order is not None
        print(" ".join(str(v) for v in order))
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    g = decode_graph(_read(args.graph))
    params = _params(args, g.n)
    result = reconstruct_labels(g, params.m, params.p)
    print(f"valid {1 if result.valid else 0}")
    if args.labels is not None:
        truth = decode_labels(_read(args.labels))
        equivalent = (result.valid and result.rep is not None
                      and reps_equivalent(result.rep, truth))
        print(f"equivalent {1 if equivalent else 0}")
    if args.out_labels is not None and result.rep is not None:
        _write(args.out_labels, encode_labels(result.rep))
    return 0


def _progress(total: int) -> Callable[[int], None] | None:
    if not sys.stderr.isatty():
        return None

    def tick(done: int) -> None:
        end = "\n" if done == total else ""
        print(f"\rtrial {done}/{total}", end=end, file=sys.stderr, flush=True)

    return tick


def _cmd_experiment(args: argparse.Namespace) -> int:
    params = _params(args, args.n)
    budgets = {}
    if args.budget is not None:
        budgets = {"node_budget": args.budget, "cycle_budget": args.budget}
    cfg = ExperimentConfig(kind=args.kind, params=params, trials=args.trials,
                           seed=args.seed, **budgets)
    stats = run_experiment(cfg, jobs=args.jobs, progress=_progress(args.trials))
    if args.csv is None:
        sys.stdout.write(stats.to_csv())
    else:
        _write(args.csv, stats.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rigclique",
        description="Maximum cliques via closed-neighborhood quotients, plus a "
                    "random intersection graph model and experiment harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample an instance and write graph/label files")
    _add_model_flags(gen)
    gen.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    gen.add_argument("--out-graph", help="write the induced graph here")
    gen.add_argument("--out-labels", help="write the label sets here")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="maximum clique via the quotient solver")
    solve.add_argument("--graph", required=True, help="graph file to solve")
    solve.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                       help=f"quotient search node budget (default {DEFAULT_NODE_BUDGET})")
    solve.set_defaults(func=_cmd_solve)

    oracle = sub.add_parser("oracle", help="maximum clique via branch and bound")
    oracle.add_argument("--graph", required=True, help="graph file to solve")
    oracle.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET,
                        help=f"search node budget (default {DEFAULT_NODE_BUDGET})")
    oracle.set_defaults(func=_cmd_oracle)

    from_labels = sub.add_parser("from-labels",
                                 help="clique from the largest label member set")
    from_labels.add_argument("--labels", required=True, help="label file")
    from_labels.set_defaults(func=_cmd_from_labels)

    chordal = sub.add_parser("chordal", help="chordality test with elimination order")
    chordal.add_argument("--graph", required=True, help="graph file to test")
    chordal.set_defaults(func=_cmd_chordal)

    reconstruct = sub.add_parser("reconstruct", help="recover label sets from a graph")
    reconstruct.add_argument("--graph", required=True, help="graph file to explain")
    _add_model_flags(reconstruct, with_n=False)
    reconstruct.add_argument("--labels", help="ground-truth label file to compare against")
    reconstruct.add_argument("--out-labels", help="write recovered label sets here")
    reconstruct.set_defaults(func=_cmd_reconstruct)

    experiment = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    experiment.add_argument("kind", choices=KINDS, help="experiment kind")
    _add_model_flags(experiment)
    experiment.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    experiment.add_argument("--trials", type=int, required=True, help="number of trials")
    experiment.add_argument("--jobs", type=int, default=1,
                            help="worker processes (default 1), at most one per "
                                 "trial and per CPU; results are identical at "
                                 "any job count")
    experiment.add_argument("--csv", help="write the CSV here instead of stdout")
    experiment.add_argument("--budget", type=int,
                            help="per-trial search budget override: quotient-search "
                                 "nodes for single_label, cycle-search steps "
                                 "for sparse")
    experiment.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
