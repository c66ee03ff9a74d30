"""Command-line harness: assign, walk, oracle, embed.

Every command is deterministic given its flags; ``--seed`` (default: the
``ASSIGN_SEED`` environment variable, else 0) fixes all randomness, and JSONL
output is identical across reruns except for the wall-time field. Exit
codes: 0 success, 1 detected invariant violation, 2 usage or parse error,
141 (128 + SIGPIPE) when the reader closed standard output early.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import combinations
from math import comb
from random import Random

import numpy as np

from .assigner import AssignResult, build_schedule
from .core import TaskMultiset
from .embed import SparseVector, distortion_audit
from .harness import ALGORITHMS, make_assigner, run_walk
from .hashing import derive
from .oracle import (
    SearchBudget,
    disperser_search,
    exact_feasible,
    exhaustive_max_switching,
    ramsey_witness,
)

# Documented CLI-side instance caps for the exact engines; the library itself
# is bounded only by the search budget. oracle exact: w <= 5 and at most
# 20 000 states (137 MB peak RSS at w=2, t=200 sets, 108 MB at w=5, t=20).
# oracle audit: at most 100 000 states (328 MB at w=2, t=447 sets; Python
# 3.11, numpy 2.4). oracle ramsey: at most 10**6 (w+1)-subsets. exact's and
# audit's memory follows the adjacent pairs, not the states, and at w=1
# every state is adjacent to every other: the audit takes about 2 * t**2
# bytes (2 GB at t=32 000), and exact at t=20 000 runs out of memory
# building 4e8 neighbor entries. These caps do not bound that.
_MAX_ORACLE_STATES = 20_000
_MAX_ORACLE_WORKERS = 5
_MAX_AUDIT_EVALS = 100_000
_MAX_RAMSEY_SUBSETS = 1_000_000
# Documented caps on the size arguments of assign, walk, oracle audit, oracle
# ramsey and embed (whose --k and --n are a w and t). 16384 workers is the
# largest scale tests and benchmarks run. A schedule has c * ceil(log2 wt) *
# ceil(log_1.1 w) rounds of 40 bytes: 14 MB at the caps, 100+ GiB at c = 10**9.
# walk prints each step as it is measured and randperm builds its keys a block
# of rows at a time, so neither needs a cap of its own. oracle disperser draws
# an N x D table, one Python int at a time, into a numpy array on every
# restart; the library bounds N by 32.
_CAPS = {
    "--w": 1 << 14, "--t": 1 << 40, "--c": 64, "--steps": 1 << 20, "--k": 1 << 14, "--n": 1 << 40, "--pairs": 1 << 20,
    "--seeds": 4096,
}


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r} (from --seed or ASSIGN_SEED)") from None


def _default_seed() -> str:
    # Returned unparsed: argparse converts a string default with the
    # argument's type while parsing, so a bad ASSIGN_SEED exits 2 like a bad
    # --seed instead of raising while the parser is built.
    return os.environ.get("ASSIGN_SEED", "0")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w", type=int, required=True,
                   help=f"worker count (at most {_CAPS['--w']})")
    p.add_argument("--t", type=int, required=True, help=f"task universe size (at most {_CAPS['--t']})")
    p.add_argument("--c", type=int, default=4, help=f"repetition constant (default 4, at most {_CAPS['--c']})")
    p.add_argument("--seed", type=_seed, default=_default_seed(), help="master seed")
    p.set_defaults(capped=("w", "t", "c"))


def _check_caps(args: argparse.Namespace) -> None:
    """Reject a size argument past its documented cap (see ``_CAPS``)."""
    for name in getattr(args, "capped", ()):
        value, cap = getattr(args, name), _CAPS[f"--{name}"]
        if value is not None and value > cap:
            raise ValueError(f"--{name} {value} over the documented cap {cap}")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def cmd_assign(args: argparse.Namespace) -> int:
    T = TaskMultiset.parse(args.multiset, args.t)
    if args.explain and args.alg != "mrbb":
        raise ValueError(f"--explain needs --alg mrbb: {args.alg} runs no rounds")
    assigner = make_assigner(args.alg, args.w, args.t, args.c, args.seed)
    out = assigner(T)
    mapping = out.assignment.mapping
    for worker in range(1, args.w + 1):
        task = mapping.get(worker)
        print(f"worker {worker} -> {'task ' + str(task) if task is not None else 'unassigned'}")
    print(f"fallback: {'yes' if out.fallback_used else 'no'}")
    if args.explain:
        _explain(out.result, build_schedule(args.w, args.t, args.c, args.seed).total_rounds)
    return 0


def _explain(result: AssignResult, scheduled: int) -> None:
    """Each assigned worker's match round or ``fallback``, the residual after each round that matched, and rounds run."""
    rounds = result.rounds
    for worker, r in zip(result.assignment.workers.tolist(), rounds.tolist()):
        print(f"round of worker {worker}: {r if r >= 0 else 'fallback'}")
    matched = np.bincount(rounds + 1, minlength=1)[1:]  # bin 0 counts the fallback's -1
    left = rounds.size - np.cumsum(matched)
    for r in np.flatnonzero(matched).tolist():
        print(f"residual after round {r}: {left[r]}")
    print(f"rounds executed: {result.rounds_executed} of {scheduled} scheduled")


def cmd_walk(args: argparse.Namespace) -> int:
    for item in run_walk(args.w, args.t, args.c, args.seed, args.alg, args.steps, args.size_varying):
        _emit(item if isinstance(item, dict) else asdict(item))
    return 0


def _comb(n: int, k: int) -> int:
    """``comb(n, k)``, or 0 for a negative size, which the oracle then refuses naming its argument."""
    return comb(n, k) if n >= 0 and k >= 0 else 0


def _oracle_state_count(w: int, t: int, multisets: bool) -> int:
    return _comb(t + w - 1, w) if multisets else _comb(t, w)


def _budget(limit_flag: str, limit: int, time_limit: float | None) -> SearchBudget:
    """``SearchBudget(limit, time_limit)``; a limit below 1 is refused naming ``limit_flag``, the user's flag for it.

    A NaN time limit is refused naming ``--time-limit``.
    """
    if limit < 1:
        raise ValueError(f"{limit_flag} must be >= 1")
    if time_limit != time_limit:
        raise ValueError("--time-limit must not be NaN")
    return SearchBudget(node_limit=limit, time_limit=time_limit)


def cmd_oracle_exact(args: argparse.Namespace) -> int:
    multisets = bool(args.multisets)
    if args.w > _MAX_ORACLE_WORKERS:
        raise ValueError(
            f"instance over documented limit: w={args.w} > {_MAX_ORACLE_WORKERS}"
        )
    states = _oracle_state_count(args.w, args.t, multisets)
    if states > _MAX_ORACLE_STATES:
        raise ValueError(
            f"instance over documented limit: {states} states > {_MAX_ORACLE_STATES}"
        )
    budget = _budget("--node-limit", args.node_limit, args.time_limit)
    res = exact_feasible(args.w, args.t, args.k, multisets=multisets, budget=budget)
    print(res.verdict)
    _emit(
        {
            "mode": "exact",
            "w": args.w,
            "t": args.t,
            "target_k": args.k,
            "multisets": multisets,
            "verdict": res.verdict,
            "nodes": res.nodes,
        }
    )
    return 0


def cmd_oracle_audit(args: argparse.Namespace) -> int:
    multisets = bool(args.multisets)
    states = _oracle_state_count(args.w, args.t, multisets)
    if states > _MAX_AUDIT_EVALS:
        raise ValueError(
            f"instance over documented limit: {states} states > {_MAX_AUDIT_EVALS}"
        )
    assigner = make_assigner(args.alg, args.w, args.t, args.c, args.seed)
    best, witness = exhaustive_max_switching(
        lambda T: assigner(T).assignment, args.w, args.t, multisets=multisets
    )
    print(f"max_switching_cost: {best}")
    _emit(
        {
            "mode": "audit",
            "algorithm": args.alg,
            "w": args.w,
            "t": args.t,
            "c": args.c,
            "seed": args.seed,
            "multisets": multisets,
            "max_switching_cost": best,
            "witness": [witness[0].format(), witness[1].format()] if witness else None,
        }
    )
    return 0


def cmd_oracle_ramsey(args: argparse.Namespace) -> int:
    if _comb(args.t, args.w + 1) > _MAX_RAMSEY_SUBSETS:
        raise ValueError("instance over documented limit for ramsey search")
    assigner = make_assigner(args.alg, args.w, args.t, args.c, args.seed)
    witness = ramsey_witness(lambda T: assigner(T).assignment, args.w, args.t)
    if witness is None:
        print("none")
    else:
        print(f"witness: {','.join(map(str, witness.vertices))}")
    _emit(
        {
            "mode": "ramsey",
            "algorithm": args.alg,
            "w": args.w,
            "t": args.t,
            "c": args.c,
            "seed": args.seed,
            "vertices": list(witness.vertices) if witness else None,
            "pattern": list(witness.pattern) if witness else None,
        }
    )
    return 0


def cmd_oracle_disperser(args: argparse.Namespace) -> int:
    budget = _budget("--restarts", args.restarts, args.time_limit)
    family = disperser_search(
        args.domain, args.seeds, args.bins, args.k_param, args.epsilon, budget, seed=args.seed
    )
    print("found" if family is not None else "none")
    _emit(
        {
            "mode": "disperser",
            "domain": args.domain,
            "seeds": args.seeds,
            "bins": args.bins,
            "k_param": args.k_param,
            "epsilon": args.epsilon,
            "verdict": "found" if family is not None else "none",
            "table": [list(row) for row in family.table] if family is not None else None,
        }
    )
    return 0


def _load_vectors(path: str, k: int, n: int) -> list[SparseVector]:
    vectors = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vec = SparseVector.parse(line)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if vec.n != n:
                raise ValueError(f"line {lineno}: dimension {vec.n} != --n {n}")
            if vec.weight != k:
                raise ValueError(f"line {lineno}: weight {vec.weight} != --k {k}")
            vectors.append(vec)
    return vectors


def cmd_embed(args: argparse.Namespace) -> int:
    vectors = _load_vectors(args.input, args.k, args.n)
    if len(set(vectors)) < 2:
        print("no distinct pairs")
        return 0
    if args.all_pairs:
        index_pairs = list(combinations(range(len(vectors)), 2))
    else:
        rng = Random(derive(args.seed, 0xE3BED))
        index_pairs = [
            tuple(sorted(rng.sample(range(len(vectors)), 2))) for _ in range(args.pairs)
        ]
    schedule = build_schedule(args.k, args.n, args.c, args.seed)
    report = distortion_audit(schedule, [(vectors[i], vectors[j]) for i, j in index_pairs])
    for row in report.pairs:
        _emit(
            {
                "pair": list(index_pairs[row.index]),
                "input_distance": row.input_distance,
                "code_distance": row.code_distance,
                "ratio": row.ratio,
                "fallback": row.fallback,
            }
        )
    _emit(
        {
            "summary": True,
            "pairs_audited": len(report.pairs),
            "min_ratio": report.min_ratio,
            "max_ratio": report.max_ratio,
            "structural_ceiling": report.structural_ceiling,
            "fallback_pairs": report.fallback_pairs,
            "skipped_identical": report.skipped_identical,
        }
    )
    if not report.lower_bound_ok:
        print("distortion lower bound violated: min_ratio < 0.5", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowchurn",
        description="Low-churn worker-task assignment: run assigners, walks, exact oracles, and embedding audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_assign = sub.add_parser("assign", help="assign workers to one task multiset")
    _add_common(p_assign)
    p_assign.add_argument("--alg", choices=ALGORITHMS, default="mrbb")
    p_assign.add_argument("--multiset", required=True, help='e.g. "1,2,2,5"')
    p_assign.add_argument("--explain", action="store_true",
                          help="mrbb only: also print each worker's match round, the residual after each round "
                               "that matched, and rounds executed of scheduled")
    p_assign.set_defaults(func=cmd_assign)

    p_walk = sub.add_parser("walk", help="random adjacent walk, one JSONL record per step")
    _add_common(p_walk)
    p_walk.add_argument("--alg", choices=ALGORITHMS, default="mrbb")
    p_walk.add_argument("--steps", type=int, required=True, help=f"at most {_CAPS['--steps']}")
    p_walk.add_argument("--size-varying", action="store_true", dest="size_varying")
    p_walk.set_defaults(func=cmd_walk, capped=("w", "t", "c", "steps"))

    p_oracle = sub.add_parser("oracle", help="exact searches and audits")
    oracle_sub = p_oracle.add_subparsers(dest="mode", required=True)

    p_exact = oracle_sub.add_parser("exact", help="decide optimal switching cost <= k")
    p_exact.add_argument("--w", type=int, required=True)
    p_exact.add_argument("--t", type=int, required=True)
    p_exact.add_argument("--k", type=int, required=True)
    p_exact.add_argument("--multisets", action="store_true", default=False)
    p_exact.add_argument("--node-limit", type=int, default=50_000_000)
    p_exact.add_argument("--time-limit", type=float, default=None)
    p_exact.set_defaults(func=cmd_oracle_exact)

    p_audit = oracle_sub.add_parser("audit", help="exhaustive worst adjacent transition")
    _add_common(p_audit)
    p_audit.add_argument("--alg", choices=ALGORITHMS, default="mrbb")
    p_audit.add_argument("--multisets", action="store_true", default=False)
    p_audit.set_defaults(func=cmd_oracle_audit)

    p_ramsey = oracle_sub.add_parser("ramsey", help="monochromatic-witness scan")
    _add_common(p_ramsey)
    p_ramsey.add_argument("--alg", choices=ALGORITHMS, default="sorted")
    p_ramsey.set_defaults(func=cmd_oracle_ramsey)

    p_disp = oracle_sub.add_parser("disperser", help="random-restart search for a tiny verified disperser")
    p_disp.add_argument("--domain", type=int, required=True, help="N, table rows (at most 32)")
    p_disp.add_argument("--seeds", type=int, required=True, help=f"D, seeds per element (at most {_CAPS['--seeds']})")
    p_disp.add_argument("--bins", type=int, required=True, help="M, output bins")
    p_disp.add_argument("--k-param", type=int, required=True, dest="k_param")
    p_disp.add_argument("--epsilon", type=float, default=0.25)
    p_disp.add_argument("--restarts", type=int, default=20_000)
    p_disp.add_argument("--time-limit", type=float, default=None)
    p_disp.add_argument("--seed", type=_seed, default=_default_seed())
    p_disp.set_defaults(func=cmd_oracle_disperser, capped=("seeds",))

    p_embed = sub.add_parser("embed", help="embed sparse vectors and audit distortion")
    p_embed.add_argument("--k", type=int, required=True,
                         help=f"vector weight = worker count (at most {_CAPS['--k']})")
    p_embed.add_argument("--n", type=int, required=True,
                         help=f"vector dimension = task universe (at most {_CAPS['--n']})")
    p_embed.add_argument("--c", type=int, default=4,
                         help=f"repetition constant (default 4, at most {_CAPS['--c']})")
    p_embed.add_argument("--seed", type=_seed, default=_default_seed())
    p_embed.add_argument("--input", required=True, help="one vector per line: 'n k p1,p2,...'")
    pairs_group = p_embed.add_mutually_exclusive_group(required=True)
    pairs_group.add_argument("--all-pairs", action="store_true", dest="all_pairs")
    pairs_group.add_argument("--pairs", type=int, default=None,
                             help=f"sample this many random pairs (at most {_CAPS['--pairs']})")
    p_embed.set_defaults(func=cmd_embed, capped=("k", "n", "c", "pairs"))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_caps(args)
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed early is met here, not at exit
        return code
    except BrokenPipeError:  # ``| head``: stop quietly, with nothing left to flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, OverflowError) as exc:  # OverflowError: sizes past what Python can index
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
