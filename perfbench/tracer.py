"""In-memory span tracer that wraps lowchurn's callables where they are looked up.

A span is (name, parent, start, end) in ``perf_counter_ns`` units, stored in
four flat integer arrays so a traced run of a million calls stays a few tens
of megabytes. The tracer patches module and class attributes in place; the
patches can be installed and removed between operations, which lets one run
alternate traced and untraced operations and so measure its own overhead.
"""
from __future__ import annotations

import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

_now = time.perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        self.installed = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        label: Callable[[tuple, dict], str] | None = None,
        count: Callable[[tuple, dict, dict], None] | None = None,
        count_result: Callable[[object, dict], None] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``label`` picks the span name from the arguments, ``count`` adds
        argument-derived counts before the clock starts and ``count_result``
        adds result-derived counts after it stops, so neither is billed to the
        wrapped call.
        """
        fixed = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, name_id = self._stack, self.counts, self.name_id

        def traced(*args, **kwargs):
            nid = fixed if label is None else name_id(label(args, kwargs))
            if count is not None:
                count(args, kwargs, counts)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count_result is not None:
                count_result(result, counts)
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` by a traced wrapper while the tracer is installed."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, self.wrap(original, name, **hooks)))

    def install(self) -> None:
        if not self.installed:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self.installed = True

    def uninstall(self) -> None:
        if self.installed:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.installed = False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def aggregate(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total ns, self ns), where self excludes child spans."""
        a = self.arrays()
        n = len(a["name"])
        if n == 0:
            return {}
        dur = (a["end"] - a["start"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        return {nm: (int(calls[i]), float(total[i]), float(own[i])) for i, nm in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def span_overhead_ns() -> float:
    """Measured cost of one labelled, counted span around a trivial call; takes about 30 ms."""
    calls = 2000

    def noop(*args):
        return args

    def label(args, kwargs):
        return "probe.big" if len(args[0]) > 128 else "probe"

    def count(args, kwargs, counts):
        counts["n"] += len(args[0])

    def count_result(result, counts):
        counts["empty"] += not result

    traced = Tracer().wrap(noop, "probe", label=label, count=count, count_result=count_result)
    arg = (1, 2, 3)
    best = float("inf")
    for _ in range(5):
        t0 = _now()
        for _ in range(calls):
            noop(arg)
        plain = _now() - t0
        t0 = _now()
        for _ in range(calls):
            traced(arg)
        best = min(best, (_now() - t0 - plain) / calls)
    return max(best, 0.0)
