"""The benchmark's workloads: inputs made from a seed, timed library calls, checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. An operation is split in two. ``call``
makes the library calls and times them; ``check`` verifies the outputs with
the tracer removed, so checking is neither timed nor traced. The first
``prefix`` operations of a run are the same for every run length: they feed
the golden digest and every output-derived (deterministic) metric.
"""
from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from random import Random
from time import perf_counter

import checks
from instances import DEFECT, EXACT

assigner = importlib.import_module("lowchurn.assigner")
core = importlib.import_module("lowchurn.core")
embed = importlib.import_module("lowchurn.embed")
harness = importlib.import_module("lowchurn.harness")
oracle = importlib.import_module("lowchurn.oracle")

C = 4  # schedule repetition constant; the library's default


@dataclass
class Op:
    """What one operation cost and how it fared."""

    latency: float | None = None  # seconds in the headline call; None for an untimed probe
    busy: float = 0.0  # seconds spent on ``work``
    work: float = 1.0  # units of throughput: steps, vectors or search nodes
    spans: int = 0  # spans the tracer recorded inside the headline call
    attempted: int = 0
    failed: int = 0
    known: int = 0  # failures that are the documented known defect


class Workload:
    """Inputs made from a seed, a timed set-up, timed calls and their checks."""

    name = ""
    throughput_name = ""
    prefix = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = Random(f"perfbench/{self.name}/{seed}")
        self.digest = hashlib.sha256()
        self.spans = lambda: 0  # set by a traced run to the tracer's span count
        self.built = None  # what setup() returned: the assigners or the schedule
        self.calls_per_op = 1
        self.rounds_scheduled = 0
        self.mrbb_calls = 0
        self.rounds_executed = 0
        self.rounds_nonempty = 0

    def count_rounds(self, per_round_pairs) -> None:
        self.mrbb_calls += 1
        self.rounds_executed += len(per_round_pairs)
        self.rounds_nonempty += sum(1 for p in per_round_pairs if p)

    def headline(self, fn, *args):
        """Time one headline call; returns (result, seconds, spans recorded inside it)."""
        s0 = self.spans()
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        return out, dt, self.spans() - s0

    def reset(self) -> None:
        """Forget the previous output after an operation raised."""

    def op_count(self, seconds: float) -> int | None:
        """Operations a run of ``seconds`` makes, or None to run until they have passed."""
        return None

    def layer_metrics(self) -> dict[str, float]:
        executed = self.rounds_executed / max(self.mrbb_calls, 1)
        nonempty = self.rounds_nonempty / max(self.mrbb_calls, 1)
        return {
            "assigner.rounds_scheduled": self.rounds_scheduled,
            "assigner.rounds_executed": executed,
            "assigner.rounds_nonempty": nonempty,
            "assigner.nonempty_ratio": nonempty / executed if executed else 0.0,
        }


class Walk(Workload):
    """An adjacent walk over task multisets, assigned by each algorithm in turn.

    A size-varying walk restarts every ``w`` steps from a fresh multiset, and
    the restart sizes run through seeded permutations of ``0..w``. A single
    such walk wanders: over the 50k steps of a run its mean size ranged from
    26 to 40 between seeds, and the cost per step with it. The restarts give
    every seed the same spread of sizes.
    """

    throughput_name = "steps_per_s"

    def __init__(self, name, seed, *, w, t, size_varying, algorithms, prefix):
        self.name = name
        super().__init__(seed)
        self.w, self.t, self.size_varying = w, t, size_varying
        self.algorithms = algorithms
        self.calls_per_op = len(algorithms)
        self.prefix = prefix
        self.prev = None
        self.churn = {alg: [] for alg in algorithms}
        self.fallbacks = 0

    def params(self) -> str:
        kind = f"size-varying walk, restarted every {self.w} steps" if self.size_varying else "fixed-size walk"
        return f"w={self.w} t={self.t} {kind}; {', '.join(self.algorithms)}"

    def setup(self):
        return {alg: harness.make_assigner(alg, self.w, self.t, C, self.seed) for alg in self.algorithms}

    def prepare(self) -> None:
        self.rounds_scheduled = assigner.build_schedule(self.w, self.t, C, self.seed).total_rounds

    def inputs(self):
        if not self.size_varying:
            T = core.random_multiset(self.w, self.t, self.rng)
            while True:
                yield T
                T = core.adjacent_step(T, self.rng, w=self.w)
        while True:
            for size in self.rng.sample(range(self.w + 1), self.w + 1):
                T = core.random_multiset(size, self.t, self.rng)
                for _ in range(self.w):
                    yield T
                    T = core.adjacent_step(T, self.rng, w=self.w, size_varying=True)

    def call(self, i, T):
        op = Op(attempted=self.calls_per_op)
        outs = {}
        for alg in self.algorithms:
            outs[alg], dt, spans = self.headline(self.built[alg], T)
            op.busy += dt
            if alg == "mrbb":
                op.latency, op.spans = dt, spans
        costs = {}
        if self.prev is not None:
            for alg in self.algorithms:
                t0 = perf_counter()
                costs[alg] = core.switching_cost(self.prev[alg].assignment, outs[alg].assignment)
                op.busy += perf_counter() - t0
        return (outs, costs), op

    def check(self, i, T, result, op) -> None:
        outs, costs = result
        for alg in self.algorithms:
            out = outs[alg]
            ok = out.assignment.realizes(T)
            if alg in costs:
                ok = ok and costs[alg] == checks.churn(self.prev[alg].assignment, out.assignment)
            if alg == "mrbb" and alg in costs:
                fallback_free = not (out.fallback_used or self.prev[alg].fallback_used)
                ok = ok and checks.churn_ok(costs[alg], self.rounds_scheduled, fallback_free)
            op.failed += not ok
        self.count_rounds(outs["mrbb"].round_pairs)
        if i < self.prefix:
            for alg in self.algorithms:
                self.digest.update(repr((alg, outs[alg].assignment.pairs)).encode())
                if alg in costs:
                    self.churn[alg].append(costs[alg])
            self.fallbacks += outs["mrbb"].fallback_used
        restarts = self.size_varying and (i + 1) % self.w == 0  # input i + 1 is not adjacent to input i
        self.prev = None if restarts else outs

    def reset(self) -> None:
        self.prev = None

    def quality(self) -> list[tuple[str, float, str]]:
        mrbb = self.churn["mrbb"]
        rows = [
            ("churn_mean", sum(mrbb) / max(len(mrbb), 1), "switches"),
            ("churn_max", max(mrbb, default=0), "switches"),
        ]
        for alg in self.algorithms:
            if alg != "mrbb":
                rows.append((f"{alg}_churn_mean", sum(self.churn[alg]) / max(len(self.churn[alg]), 1), "switches"))
        rows.append(("fallback_rate", self.fallbacks / self.prefix, "ratio"))
        return rows


class Embed(Workload):
    """Hamming densification of independent random binary vectors."""

    throughput_name = "vectors_per_s"

    def __init__(self, name, seed, *, w, t, prefix):
        self.name = name
        super().__init__(seed)
        self.w, self.t = w, t
        self.prefix = prefix
        self.prev = None
        self.ratios: list[float] = []
        self.fallbacks = 0

    def params(self) -> str:
        return f"w={self.w} weight over n=t={self.t}; independent binary vectors"

    def setup(self):
        return assigner.build_schedule(self.w, self.t, C, self.seed)

    def prepare(self) -> None:
        self.rounds_scheduled = self.built.total_rounds

    def inputs(self):
        universe = range(1, self.t + 1)
        while True:
            yield embed.SparseVector.from_support(self.t, self.rng.sample(universe, self.w))

    def call(self, i, x):
        (code, res), dt, spans = self.headline(embed.embed_with_result, self.built, x)
        op = Op(latency=dt, busy=dt, spans=spans, attempted=1)
        distance = None
        if self.prev is not None:
            t0 = perf_counter()
            distance = embed.hamming(self.prev[1], code)
            op.busy += perf_counter() - t0
        return (code, res, distance), op

    def check(self, i, x, result, op) -> None:
        code, res, distance = result
        support = tuple(p for p, _ in x.entries)
        ok = checks.code_ok(code.coords, support)
        support_set = frozenset(support)
        if distance is not None:
            prev_support, prev_code = self.prev
            own = sum(a != b for a, b in zip(prev_code.coords, code.coords))
            ok = ok and distance == own and checks.embed_pair_ok(distance, prev_support, support_set)
            if i < self.prefix:
                self.ratios.append(distance / len(prev_support ^ support_set))
        op.failed += not ok
        self.count_rounds(res.per_round_pairs)
        if i < self.prefix:
            self.digest.update(repr(code.coords).encode())
            self.fallbacks += res.used_fallback
        self.prev = (support_set, code)

    def reset(self) -> None:
        self.prev = None

    def quality(self) -> list[tuple[str, float, str]]:
        return [
            ("distortion_min_ratio", min(self.ratios, default=0.0), "ratio"),
            ("fallback_rate", self.fallbacks / self.prefix, "ratio"),
        ]


class Oracle(Workload):
    """The exact engines; only the exhaustive audit runs the hashing pipeline, at toy size."""

    throughput_name = "oracle_nodes_per_s"
    # A run makes a fixed number of passes, about one per this many seconds of
    # the requested run, so that the known-defect probe is always one failure
    # out of the same number of attempts.
    PASS_SECONDS = 1.6

    def __init__(self, name, seed, *, exact, defect, exhaustive):
        self.name = name
        super().__init__(seed)
        self.exact = exact
        self.defect = defect
        self.calls_per_op = len(exact) + 1
        self.w, self.t = exhaustive
        self.prefix = 2 if defect else 1
        self.first = None
        self.nodes = {label: 0 for label, *_ in exact}
        self.known_defect = "not run"

    def params(self) -> str:
        labels = [label for label, *_ in self.exact] + ([self.defect[0]] if self.defect else [])
        return f"exact_feasible {', '.join(labels)}; exhaustive mrbb w={self.w} t={self.t} multisets"

    def setup(self):
        return harness.make_assigner("mrbb", self.w, self.t, C, self.seed)

    def prepare(self) -> None:
        self.schedule = assigner.build_schedule(self.w, self.t, C, self.seed)
        self.rounds_scheduled = self.schedule.total_rounds

    def op_count(self, seconds: float) -> int:
        return (1 if self.defect else 0) + max(1, round(seconds / self.PASS_SECONDS))

    def inputs(self):
        if self.defect:
            yield "defect"
        while True:
            yield "pass"

    @staticmethod
    def _solve(args, multisets, limit):
        kwargs = {"multisets": multisets}
        if limit is not None:
            kwargs["budget"] = oracle.SearchBudget(node_limit=limit)
        return oracle.exact_feasible(*args, **kwargs)

    def call(self, i, kind):
        if kind == "defect":
            _, args, multisets, limit, _ = self.defect
            try:
                return self._solve(args, multisets, limit), Op(attempted=1)
            except RecursionError as exc:
                return exc, Op(attempted=1)
        op = Op(attempted=self.calls_per_op)
        s0 = self.spans()
        t0 = perf_counter()
        verdicts = {}
        op.work = 0
        for label, args, multisets, limit, _ in self.exact:
            t1 = perf_counter()
            verdicts[label] = self._solve(args, multisets, limit)
            op.busy += perf_counter() - t1
            op.work += verdicts[label].nodes
        assign_fn = lambda T: self.built(T).assignment  # noqa: E731
        exhaustive = oracle.exhaustive_max_switching(assign_fn, self.w, self.t, multisets=True)
        op.latency = perf_counter() - t0
        op.spans = self.spans() - s0
        return (verdicts, exhaustive), op

    def check(self, i, kind, result, op) -> None:
        if kind == "defect":
            expected = self.defect[4]
            if isinstance(result, RecursionError):
                op.failed = op.known = 1
                self.known_defect = f"exact_feasible{self.defect[1]}: RecursionError (known defect)"
            else:
                op.failed = not checks.verdict_ok(result, expected, None)
                self.known_defect = f"exact_feasible{self.defect[1]}: {result.verdict}, {result.nodes} nodes"
            return
        verdicts, (max_cost, witness) = result
        for label, _, _, limit, expected in self.exact:
            op.failed += not checks.verdict_ok(verdicts[label], expected, None if limit is None else limit + 1)
        summary = (
            tuple((label, verdicts[label].verdict, verdicts[label].nodes) for label, *_ in self.exact),
            max_cost,
        )
        if self.first is None:
            reference = lambda T: assigner.assign(self.schedule, T).assignment  # noqa: E731
            op.failed += not checks.witness_ok(max_cost, witness, reference)
            self.first = summary
            self.nodes = {label: nodes for label, _, nodes in summary[0]}
            self.digest.update(repr(tuple((label, v) for label, v, _ in summary[0]) + (max_cost,)).encode())
        elif summary != self.first:
            # Every pass runs the same instances, so any difference is a fault.
            op.failed += op.attempted

    def quality(self) -> list[tuple[str, float, str]]:
        rows = [(f"oracle.exact_feasible.nodes.{label}", n, "count") for label, n in self.nodes.items()]
        if self.first is not None:
            rows.append(("exhaustive_max_switching", self.first[1], "switches"))
        return rows

    def layer_metrics(self) -> dict[str, float]:
        out = super().layer_metrics()
        out.update({f"oracle.exact_feasible.nodes.{label}": n for label, n in self.nodes.items()})
        return out


def make(name: str, seed: int, toy: bool = False) -> Workload:
    """The named workload; ``toy`` shrinks it to run in well under a second."""
    if name == "walk-1k":
        if toy:
            return Walk(name, seed, w=16, t=64, size_varying=False, algorithms=("mrbb",), prefix=20)
        return Walk(name, seed, w=1024, t=65536, size_varying=False, algorithms=("mrbb",), prefix=100)
    if name == "walk-64-mix":
        algorithms = ("sorted", "randperm", "mrbb")
        if toy:
            return Walk(name, seed, w=8, t=32, size_varying=True, algorithms=algorithms, prefix=40)
        return Walk(name, seed, w=64, t=256, size_varying=True, algorithms=algorithms, prefix=1000)
    if name == "embed-16k":
        if toy:
            return Embed(name, seed, w=32, t=128, prefix=4)
        return Embed(name, seed, w=16384, t=65536, prefix=4)
    if name == "oracle-small":
        if toy:
            return Oracle(name, seed, exact=EXACT[:2], defect=None, exhaustive=(2, 5))
        return Oracle(name, seed, exact=EXACT, defect=DEFECT, exhaustive=(4, 10))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("walk-1k", "embed-16k", "walk-64-mix", "oracle-small")
