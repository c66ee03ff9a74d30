"""Toy-size self-check: every workload runs clean, and every check fires on a corrupted output.

Run as ``python3 perfbench/run.py --self-check``; exits 0 when all is well.
Corruptions are applied to copies of real outputs after the library returns
them, so no library code is changed.
"""
from __future__ import annotations

import dataclasses
import json

import checks
import workloads
from instances import EXACT

SEED = 1


def _step(wl, until):
    """Set ``wl`` up and run operations, checking each, until ``until(wl, i, output)`` holds.

    Returns that operation's (i, input, output), unchecked.
    """
    wl.built = wl.setup()
    wl.prepare()
    stream = wl.inputs()
    for i in range(1000):
        inp = next(stream)
        out, op = wl.call(i, inp)
        if until(wl, i, out):
            return i, inp, out
        wl.check(i, inp, out, op)
    raise AssertionError(f"{wl.name}: no operation of the kind the self-check needs")


def _fires(wl, i, inp, out, **state) -> bool:
    """Whether ``wl.check`` counts a failure for ``out``, with ``state`` set on ``wl``; leaves ``wl`` as it was."""
    saved = dict(wl.__dict__)
    wl.__dict__.update(state)
    op = workloads.Op(attempted=wl.calls_per_op)
    try:
        wl.check(i, inp, out, op)
    finally:
        wl.__dict__.clear()
        wl.__dict__.update(saved)
    return op.failed > 0


def _churned(wl, i, out) -> bool:
    """An ``mrbb`` step that moved some worker, with no fallback on either side."""
    outs, costs = out
    return costs.get("mrbb", 0) > 0 and not (outs["mrbb"].fallback_used or wl.prev["mrbb"].fallback_used)


def _other_task(task, t):
    return task % t + 1


def corruption_cases():
    """(description, fired) for each check, on real toy outputs."""
    cases = []

    wl = workloads.make("walk-64-mix", SEED, toy=True)
    i, T, (outs, costs) = _step(wl, _churned)
    cases.append(("walk: clean output passes", not _fires(wl, i, T, (outs, costs))))
    mrbb = outs["mrbb"]
    w, first = mrbb.assignment.pairs[0]
    bad = dataclasses.replace(
        mrbb,
        assignment=type(mrbb.assignment)(
            mrbb.assignment.w, ((w, _other_task(first, T.t)),) + mrbb.assignment.pairs[1:]
        ),
    )
    cases.append(("walk: assignment that does not realize T", _fires(wl, i, T, ({**outs, "mrbb": bad}, costs))))
    cases.append(("walk: switching cost off by one", _fires(wl, i, T, (outs, {**costs, "sorted": costs["sorted"] + 1}))))
    # 4R exceeds w at every size here, so R is set to 0 to make a real step's churn exceed it.
    cases.append(("walk: churn above 4R on a fallback-free pair", _fires(wl, i, T, (outs, costs), rounds_scheduled=0)))
    fell_back = {**outs, "mrbb": dataclasses.replace(mrbb, fallback_used=True)}
    cases.append(("walk: churn above 4R exempt when a fallback fired", not _fires(wl, i, T, (fell_back, costs), rounds_scheduled=0)))

    wl = workloads.make("embed-16k", SEED, toy=True)
    i, x, (code, res, distance) = _step(wl, lambda wl, i, out: i >= 1)
    cases.append(("embed: clean output passes", not _fires(wl, i, x, (code, res, distance))))
    coords = code.coords
    outside = next(p for p in range(1, x.n + 1) if p not in set(coords))
    bad_code = type(code)((outside,) + coords[1:])
    cases.append(("embed: code not a permutation of the support", _fires(wl, i, x, (bad_code, res, distance))))
    cases.append(("embed: hamming result off by one", _fires(wl, i, x, (code, res, distance + 1))))
    # Codes of equal-weight vectors always meet the pair bound, so the previous
    # support is widened, outside the universe, until |T(x) \ T(y)| exceeds the distance.
    prev_support, prev_code = wl.prev
    widened = prev_support | frozenset(range(x.n + 1, x.n + 2 + distance))
    cases.append(("embed: code distance below |T(x) \\ T(y)|", _fires(wl, i, x, (code, res, distance), prev=(widened, prev_code))))

    wl = workloads.make("oracle-small", SEED, toy=True)
    i, kind, (verdicts, exhaustive) = _step(wl, lambda wl, i, out: True)
    cases.append(("oracle: clean pass passes", not _fires(wl, i, kind, (verdicts, exhaustive))))
    label = EXACT[0][0]
    flipped = {**verdicts, label: dataclasses.replace(verdicts[label], verdict="feasible")}
    cases.append(("oracle: wrong verdict", _fires(wl, i, kind, (flipped, exhaustive))))
    cases.append(("oracle: exhaustive maximum not attained by its witness", _fires(wl, i, kind, (verdicts, (exhaustive[0] + 1, exhaustive[1])))))
    budget = next(v for v in EXACT if v[3] is not None)
    result = workloads.oracle.exact_feasible(*budget[1], budget=workloads.oracle.SearchBudget(node_limit=budget[3]))
    cases.append(("oracle: budget verdict with the wrong node count", not checks.verdict_ok(dataclasses.replace(result, nodes=result.nodes - 1), budget[4], budget[3] + 1)))
    wl.check(i, kind, (verdicts, exhaustive), workloads.Op(attempted=wl.calls_per_op))
    changed = {**verdicts, label: dataclasses.replace(verdicts[label], nodes=verdicts[label].nodes + 1)}
    cases.append(("oracle: a later pass that differs from the first", _fires(wl, i + 1, kind, (changed, exhaustive))))
    return cases


def main(run_mod) -> int:
    problems = []
    bench = json.loads((run_mod.ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
        "workloads": [w["name"] for w in bench["workloads"]],
    }
    emitted = {
        "end_to_end": list(run_mod.END_TO_END),
        "per_layer": list(run_mod.PER_LAYER),
        "workloads": list(workloads.NAMES),
    }
    for key in declared:
        if declared[key] != emitted[key]:
            problems.append(f"BENCHMARK.json {key} differs from what run.py emits")

    for name in workloads.NAMES:
        for trace in (False, True):
            result, _, notes, _ = run_mod.run(name, SEED, 0.1, trace, toy=True, setup_seconds=0.01)
            expected = run_mod.PER_LAYER_UNITS if trace else dict(run_mod.END_TO_END)
            ok = (
                result["correct"]
                and result["failed"] == 0
                and set(result["metrics"]) == set(expected)
                and (trace or all(m["value"] > 0 for m in result["metrics"].values()))
            )
            print(f"{'ok ' if ok else 'BAD'} toy {name} trace={int(trace)}: attempted {result['attempted']}, failed {result['failed']}")
            if not ok:
                problems.append(f"toy {name} trace={int(trace)}: {result} {notes}")

    for description, fired in corruption_cases():
        print(f"{'ok ' if fired else 'BAD'} {description}")
        if not fired:
            problems.append(description)

    # Seed 0 is the one replayed for SEED when SEED itself is not pinned.
    for wrong, what in (({str(SEED): "0" * 64}, "this seed's"), ({"0": "0" * 64}, "a replayed seed's")):
        golden = {"walk-1k": wrong}
        result, _, notes, _ = run_mod.run("walk-1k", SEED, 0.0, False, toy=True, golden=golden, setup_seconds=0.01)
        fired = not result["correct"] and result["failed"] > 0 and any("MISMATCH" in n for n in notes)
        print(f"{'ok ' if fired else 'BAD'} {what} golden digest mismatch counts failed operations ({result['failed']})")
        if not fired:
            problems.append(f"{what} golden digest mismatch not counted")

    def raising(wl):
        def boom(T):
            raise ValueError("corrupted assigner")

        real_setup = wl.setup

        def setup():
            return {**real_setup(), "mrbb": boom}

        wl.setup = setup

    result, _, _, _ = run_mod.run("walk-1k", SEED, 0.0, False, toy=True, setup_seconds=0.01, tamper=raising)
    fired = not result["correct"] and result["failed"] == result["attempted"] > 0
    print(f"{'ok ' if fired else 'BAD'} a raising call counts as a failed operation ({result['failed']}/{result['attempted']})")
    if not fired:
        problems.append("raising call not counted")

    wl = workloads.make("oracle-small", SEED)
    op = workloads.Op(attempted=1)
    wl.check(0, "defect", RecursionError("probe"), op)
    fired = op.failed == op.known == 1
    print(f"{'ok ' if fired else 'BAD'} the known RecursionError defect counts as one failed operation")
    if not fired:
        problems.append("known defect not counted")

    for p in problems:
        print(f"self-check problem: {p}")
    print("self-check passed" if not problems else f"self-check FAILED ({len(problems)} problems)")
    return 0 if not problems else 1
