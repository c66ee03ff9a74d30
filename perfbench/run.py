"""Benchmark of the lowchurn library, described by BENCHMARK.json at the repository root.

Run from the repository root:

    python3 perfbench/run.py --workload walk-1k --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

One process, one closed-loop caller. Inputs are made from ``--seed``; the
library receives only those inputs and is timed from outside the package.
Every output is checked. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, scaled to the reference loop's nominal speed
(see reference.py), and the per-layer metrics with ``--trace 1``. The lines
before it print the same numbers, raw ones too, and the workload's own named
metrics, as a table. ``--self-check`` runs every workload at toy size and shows that
each correctness check fires on a corrupted output.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy

import reference
import tracer
from instances import ALL_LABELS, EXACT_LABELS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 200
SETUP_SECONDS = 1.0


def import_library():
    """Import lowchurn from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "lowchurn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lowchurn sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    lowchurn = importlib.import_module("lowchurn")
    if Path(lowchurn.__file__).resolve().parent != (SRC / "lowchurn").resolve():
        sys.exit(f"perfbench: imported lowchurn from {lowchurn.__file__}, not from {SRC}")


END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
)

PER_LAYER = (
    ("binhash.match.calls", "count", "lower"),
    ("binhash.match.elements", "count", "lower"),
    ("binhash.match.empty_calls", "count", "lower"),
    ("binhash.match.head_ms", "ms", "lower"),
    ("binhash.match.mid_ms", "ms", "lower"),
    ("binhash.match.tail_ms", "ms", "lower"),
    ("binhash.match.ns_per_element", "ns", "lower"),
    ("assigner.rounds_scheduled", "count", "lower"),
    ("assigner.rounds_executed", "count", "lower"),
    ("assigner.rounds_nonempty", "count", "lower"),
    ("assigner.nonempty_ratio", "ratio", "higher"),
    ("assigner.assign_ms", "ms", "lower"),
    ("assigner.assign.self_ms", "ms", "lower"),
    ("assigner.assign_set.self_ms", "ms", "lower"),
    ("assigner.fallback_pairs", "count", "lower"),
    ("assigner.build_schedule_s", "s", "lower"),
    ("reduction.lift_ms", "ms", "lower"),
    ("reduction.lift.elements", "count", "lower"),
    ("core.switching_cost_ms", "ms", "lower"),
    ("baselines.sorted_order_ms", "ms", "lower"),
    ("baselines.random_permutation_assign_ms", "ms", "lower"),
    ("embed.embed_with_result.self_ms", "ms", "lower"),
    ("embed.hamming_ms", "ms", "lower"),
    *((f"oracle.exact_feasible.nodes.{label}", "count", "lower") for label in EXACT_LABELS),
    *((f"oracle.exact_feasible_s.{label}", "s", "lower") for label in ALL_LABELS),
    ("oracle.exhaustive_max_switching_s", "s", "lower"),
    *((f"harness.make_assigner_s.{alg}", "s", "lower") for alg in ("sorted", "randperm", "mrbb")),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.ns_per_span", "ns", "lower"),
    ("trace.assign_gap", "ratio", "lower"),
)
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}

MATCH_BANDS = ("binhash.match.head", "binhash.match.mid", "binhash.match.tail")


def match_band(args, kwargs) -> str:
    residual = len(args[1])  # unmatched workers; the pipeline keeps |W| == |T|
    return MATCH_BANDS[0] if residual > 128 else MATCH_BANDS[1] if residual > 8 else MATCH_BANDS[2]


def count_match(args, kwargs, counts) -> None:
    counts["binhash.match.elements"] += len(args[1]) + len(args[2])


def count_empty(result, counts) -> None:
    if not result:
        counts["binhash.match.empty_calls"] += 1


def count_fallback(result, counts) -> None:
    counts["assigner.fallback_pairs"] += result.fallback_pairs


def count_lift(args, kwargs, counts) -> None:
    counts["reduction.lift.elements"] += len(args[0])


def instance_label(args, kwargs) -> str:
    """The label of an ``exact_feasible`` call, as in ``instances.EXACT``."""
    w, t, k = args
    label = f"w{w}t{t}k{k}"
    if kwargs.get("multisets"):
        label += "-multi"
    if kwargs.get("budget") is not None:
        label += "-budget"
    return label


def make_tracer():
    """A tracer with a span at every layer boundary, patched where each name is looked up."""
    lib = {
        m: importlib.import_module(f"lowchurn.{m}")
        for m in ("assigner", "baselines", "binhash", "core", "embed", "harness", "oracle")
    }
    tr = tracer.Tracer()
    tr.patch(lib["harness"], "make_assigner", "harness.make_assigner",
             label=lambda a, k: f"harness.make_assigner.{a[0]}")
    tr.patch(lib["harness"], "build_schedule", "assigner.build_schedule")
    tr.patch(lib["assigner"], "build_schedule", "assigner.build_schedule")
    tr.patch(lib["harness"], "pipeline_assign", "assigner.assign", count_result=count_fallback)
    tr.patch(lib["embed"], "assign", "assigner.assign", count_result=count_fallback)
    tr.patch(lib["assigner"], "lift", "reduction.lift", count=count_lift)
    tr.patch(lib["baselines"], "lift", "reduction.lift", count=count_lift)
    tr.patch(lib["assigner"], "assign_set", "assigner.assign_set")
    tr.patch(lib["binhash"].BinHash, "match", "binhash.match",
             label=match_band, count=count_match, count_result=count_empty)
    tr.patch(lib["harness"], "sorted_order", "baselines.sorted_order")
    tr.patch(lib["harness"], "random_permutation_assign", "baselines.random_permutation_assign")
    tr.patch(lib["core"], "switching_cost", "core.switching_cost")
    tr.patch(lib["embed"], "embed_with_result", "embed.embed_with_result")
    tr.patch(lib["embed"], "hamming", "embed.hamming")
    tr.patch(lib["oracle"], "exact_feasible", "oracle.exact_feasible",
             label=lambda a, k: "oracle.exact_feasible." + instance_label(a, k))
    tr.patch(lib["oracle"], "exhaustive_max_switching", "oracle.exhaustive_max_switching")
    return tr


def run(name, seed, seconds, trace, *, toy=False, golden=None, setup_seconds=SETUP_SECONDS, tamper=None):
    """Run one workload; returns (result dict for the JSON line, table rows, notes, digest)."""
    import workloads  # imports lowchurn, so only after import_library()

    wl = workloads.make(name, seed, toy)
    if tamper is not None:
        tamper(wl)
    tr = make_tracer() if trace else None
    if tr is not None:
        wl.spans = lambda: len(tr.name)

    def set_traced(on):
        if tr is not None:
            tr.install() if on else tr.uninstall()

    speed = reference.SpeedLog()
    setups = []  # (start, end) of each set-up
    t_setup = perf_counter()
    while len(setups) < SETUP_MIN_REPS or (
        perf_counter() - t_setup < setup_seconds and len(setups) < SETUP_MAX_REPS
    ):
        set_traced(len(setups) % 2 == 0)
        # Each set-up starts from the same heap: without this, collections
        # that walk the previous build make set-up time vary by a third.
        wl.built = None
        gc.collect()
        speed.maybe_sample()
        t0 = perf_counter()
        built = wl.setup()
        setups.append((t0, perf_counter()))
        wl.built = built
    set_traced(False)
    wl.prepare()

    ops = {False: [], True: []}  # (start, end, Op) of each timed operation, untraced and traced
    span_ns = []  # a traced run's span cost, probed once per four speed samples
    attempted = failed = known = prefix_attempted = 0
    errors = []
    stream = wl.inputs()
    gc.collect()
    start = perf_counter()
    i = 0
    min_ops = wl.prefix + (2 if tr is not None else 0)  # a traced run needs both kinds of operation
    n_ops = wl.op_count(seconds)
    while i < min_ops or (perf_counter() - start < seconds if n_ops is None else i < n_ops):
        speed.maybe_sample()
        if tr is not None and len(span_ns) <= len(speed.times) // 4:
            span_ns.append(tracer.span_overhead_ns())
        inp = next(stream)
        traced = tr is not None and i % 2 == 0
        set_traced(traced)
        t0 = perf_counter()
        try:
            out, op = wl.call(i, inp)
        except Exception as exc:  # a raising call is a failed operation, never a crash
            set_traced(False)
            errors.append(f"op {i}: {exc!r}")
            attempted += wl.calls_per_op
            failed += wl.calls_per_op
            prefix_attempted += wl.calls_per_op if i < wl.prefix else 0
            wl.reset()
            i += 1
            continue
        t1 = perf_counter()
        set_traced(False)
        try:
            wl.check(i, inp, out, op)
        except Exception as exc:
            errors.append(f"check {i}: {exc!r}")
            op.failed = op.attempted
            wl.reset()
        attempted += op.attempted
        failed += op.failed
        known += op.known
        if i < wl.prefix:
            prefix_attempted += op.attempted
        if op.latency is not None:
            ops[traced].append((t0, t1, op))
        i += 1
    speed.sample()

    digest = wl.digest.hexdigest()
    pinned = (golden or {}).get(name, {})
    if not pinned:
        golden_note = "no digests pinned"
    else:
        check_seed, check_digest, check_ok = seed, digest, True
        if str(seed) not in pinned:
            # This seed is not pinned, so the prefix of a pinned seed is
            # replayed, untimed, to keep outputs bit-identical for every seed.
            check_seed = seed % len(pinned)
            replay, _, _, check_digest = run(name, check_seed, 0.0, False, toy=toy, setup_seconds=0.0)
            check_ok = replay["correct"]
        expected = pinned[str(check_seed)]
        of = "" if check_seed == seed else f" of replayed seed {check_seed}"
        if not check_ok:
            golden_note = f"replayed seed {check_seed} FAILED its checks"
        elif check_digest != expected:
            golden_note = f"digest{of} MISMATCH, pinned {expected}, got {check_digest}"
        else:
            golden_note = f"digest{of} matches the pinned one"
        if not check_ok or check_digest != expected:
            failed += prefix_attempted  # every output of the prefix is unverified
            errors.append("golden digest mismatch")

    measured = bool(ops[False]) and (bool(ops[True]) or not trace)
    if not measured:
        errors.append("no operation completed, so nothing was measured")
        failed = max(failed, known + 1)
    rows = []
    notes = [f"params: {wl.params()}", f"golden_sha256: {digest}; {golden_note}"]
    if getattr(wl, "known_defect", None):
        notes.append(f"known defect probe: {wl.known_defect}")
    notes += [f"error: {e}" for e in errors[:10]]

    if not trace:
        # Timings scaled to the reference loop's nominal speed; raw ones in the table.
        units = dict(END_TO_END)
        raw_setup = [t1 - t0 for t0, t1 in setups]
        setup_s = statistics.median((t1 - t0) * speed.scale(t0, t1) for t0, t1 in setups)
        metrics = {"setup_s": setup_s, "latency_p50_ms": 0.0, "throughput_per_s": 0.0}
        notes.append(f"machine ran at {speed.factor():.3f} x the reference loop's nominal time")
        rows.append(("setup_s", setup_s, "s", f"median of {len(setups)}; raw {statistics.median(raw_setup):.6g}"))
    if not trace and measured:
        done = ops[False]
        lat = [op.latency * speed.scale(t0, t1) for t0, t1, op in done]
        raw_lat = [op.latency for _, _, op in done]
        metrics["latency_p50_ms"] = latency_ms = statistics.median(lat) * 1e3
        work = sum(op.work for _, _, op in done)
        metrics["throughput_per_s"] = throughput = work / sum(op.busy * speed.scale(t0, t1) for t0, t1, op in done)
        raw_throughput = work / sum(op.busy for _, _, op in done)
        raw_ms = statistics.median(raw_lat) * 1e3
        if name == "oracle-small":
            rows.append(("oracle_s", latency_ms / 1e3, "s", f"median of {len(lat)} passes; raw {raw_ms / 1e3:.6g}"))
        else:
            rows.append(("assign_p50_ms", latency_ms, "ms", f"median of {len(lat)}; raw {raw_ms:.6g}"))
        if len(lat) >= 200:
            p95 = statistics.quantiles(lat, n=20)[-1] * 1e3
            raw_p95 = statistics.quantiles(raw_lat, n=20)[-1] * 1e3
            rows.append(("assign_p95_ms", p95, "ms", f"of {len(lat)}; raw {raw_p95:.6g}"))
        rows.append((wl.throughput_name, throughput, "1/s", f"{len(lat)} ops; raw {raw_throughput:.6g}"))
        rows += [(n, v, u, f"first {wl.prefix} ops") for n, v, u in wl.quality()]
    if trace:
        units = PER_LAYER_UNITS
        if measured:
            metrics = layer_metrics(tr, wl, ops, statistics.median(span_ns))
        else:
            metrics = {n: 0.0 for n in PER_LAYER_UNITS}
        rows += [(n, v, PER_LAYER_UNITS[n], "") for n, v in metrics.items()]
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        tr.write(traces / f"{name}.npz")
        notes.append(f"spans: {len(tr.name)} written to {(traces / f'{name}.npz').relative_to(ROOT)}")

    result = {
        "correct": failed == known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(v), "unit": units[n]} for n, v in metrics.items()},
    }
    return result, rows, notes, digest


def layer_metrics(tr, wl, ops, ns_per_span):
    agg = tr.aggregate()
    lat = {k: [op.latency for _, _, op in v] for k, v in ops.items()}
    busy = {k: [op.busy for _, _, op in v] for k, v in ops.items()}
    spans_in_headline = [op.spans for _, _, op in ops[True]]
    n_ops = max(len(lat[True]), 1)

    def total(name):
        return agg.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return agg.get(name, (0, 0.0, 0.0))[2]

    def per_call_s(name):
        calls, tot, _ = agg.get(name, (0, 0.0, 0.0))
        return tot / calls / 1e9 if calls else 0.0

    def ms(ns):
        return ns / n_ops / 1e6

    match_calls = sum(agg.get(b, (0, 0, 0))[0] for b in MATCH_BANDS)
    match_ns = sum(total(b) for b in MATCH_BANDS)
    elements = tr.counts["binhash.match.elements"]
    m = {
        "binhash.match.calls": match_calls / n_ops,
        "binhash.match.elements": elements / n_ops,
        "binhash.match.empty_calls": tr.counts["binhash.match.empty_calls"] / n_ops,
        "binhash.match.head_ms": ms(total(MATCH_BANDS[0])),
        "binhash.match.mid_ms": ms(total(MATCH_BANDS[1])),
        "binhash.match.tail_ms": ms(total(MATCH_BANDS[2])),
        "binhash.match.ns_per_element": match_ns / elements if elements else 0.0,
    }
    m.update(wl.layer_metrics())
    m.update({
        "assigner.assign_ms": ms(total("assigner.assign")),
        "assigner.assign.self_ms": ms(own("assigner.assign")),
        "assigner.assign_set.self_ms": ms(own("assigner.assign_set")),
        "assigner.fallback_pairs": tr.counts["assigner.fallback_pairs"] / n_ops,
        "assigner.build_schedule_s": per_call_s("assigner.build_schedule"),
        "reduction.lift_ms": ms(total("reduction.lift")),
        "reduction.lift.elements": tr.counts["reduction.lift.elements"] / n_ops,
        "core.switching_cost_ms": ms(total("core.switching_cost")),
        "baselines.sorted_order_ms": ms(total("baselines.sorted_order")),
        "baselines.random_permutation_assign_ms": ms(total("baselines.random_permutation_assign")),
        "embed.embed_with_result.self_ms": ms(own("embed.embed_with_result")),
        "embed.hamming_ms": ms(total("embed.hamming")),
    })
    for label in ALL_LABELS:
        m[f"oracle.exact_feasible_s.{label}"] = per_call_s(f"oracle.exact_feasible.{label}")
    m["oracle.exhaustive_max_switching_s"] = per_call_s("oracle.exhaustive_max_switching")
    for alg in ("sorted", "randperm", "mrbb"):
        m[f"harness.make_assigner_s.{alg}"] = per_call_s(f"harness.make_assigner.{alg}")

    # Traced and untraced operations alternate, so both sample the same stretch of time.
    m["trace.overhead_ratio"] = statistics.mean(busy[True]) / statistics.mean(busy[False]) - 1
    m["trace.ns_per_span"] = ns_per_span
    corrected = statistics.median(lat[True]) - statistics.mean(spans_in_headline) * ns_per_span / 1e9
    m["trace.assign_gap"] = corrected / statistics.median(lat[False]) - 1
    return {name: m.get(name, 0.0) for name, _, _ in PER_LAYER}


def machine() -> str:
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"{os.cpu_count()} cpus, {platform.machine()}"
    )


def print_report(name, seed, seconds, trace, result, rows, notes) -> None:
    print(f"perfbench {name} seed={seed} seconds={seconds} trace={trace}")
    print(f"machine: {machine()}")
    for note in notes:
        print(note)
    for metric, value, unit, detail in rows:
        print(f"  {metric:<42} {value:>16.6g} {unit:<9} {detail}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))


def load_golden():
    path = HERE / "golden.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("walk-1k", "embed-16k", "walk-64-mix", "oracle-small"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="run the toy-size self-check and exit")
    args = parser.parse_args(argv)
    import_library()
    if args.self_check:
        import selfcheck

        return selfcheck.main(sys.modules[__name__])
    if args.workload is None:
        parser.error("--workload is required")
    result, rows, notes, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), golden=load_golden())
    print_report(args.workload, args.seed, args.seconds, args.trace, result, rows, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
