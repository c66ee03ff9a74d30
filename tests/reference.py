"""The plain reference the engine is tested against: seeded stages composed on Python sets.

``stages(rounds)`` gives each round of a ``SeededRounds`` as a ``BinHash``
stage, and ``run_stages`` threads a worker set and a task set through
them with ``BinHash.match``, one round after another, with no arrays and
no engine code. ``assigner._run_arrays`` must give the same pairs in the
same rounds, bit for bit.
"""
from __future__ import annotations

from typing import Sequence

from lowchurn.assigner import SeededRounds
from lowchurn.binhash import BinHash


def stages(rounds: SeededRounds) -> tuple[BinHash, ...]:
    """Each round of ``rounds`` as its ``BinHash`` stage, in order."""
    return tuple(map(BinHash, rounds.ks.tolist(), *rounds.seeds.tolist()))


def run_stages(stages: Sequence[BinHash], workers: set[int], tasks: set[int]) -> list[frozenset[tuple[int, int]]]:
    """The scalar reference loop: each run stage's pairs, until the sets empty; mutates the given sets."""
    per_round: list[frozenset[tuple[int, int]]] = []
    for stage in stages:
        if not workers and not tasks:
            break
        matched = stage.match(workers, tasks)
        per_round.append(frozenset(matched))
        for worker, task in matched:
            workers.discard(worker)
            tasks.discard(task)
    return per_round
