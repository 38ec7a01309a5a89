"""The one measurement kit: every clock read, garbage-collector toggle
and client thread of ``repro.bench`` and ``repro serve`` lives here.

A *measurement* is a zero-argument callable returning ``(seconds,
out)``, such as ``lambda: seconds(fn)`` or ``lambda: closed_loop(call,
n, k)``; :func:`paired` compares two of them.
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np


def seconds(fn: Callable, setup: Optional[Callable[[], Any]] = None):
    """``(elapsed seconds, result)`` of one call: ``fn()``, or
    ``fn(setup())`` with ``setup`` run before the clock starts.  The
    collector stays on: a long fit builds autograd graphs, and holding
    collection off for its whole length would only move the cost."""
    args = () if setup is None else (setup(),)
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def closed_loop(call: Callable[[int], Any], n: int, clients: int):
    """``(elapsed seconds, out)`` of ``out[i] = call(i)`` for ``i < n``:
    client thread ``k`` sends requests ``k, k + clients, ...``, each
    after the previous one returned.  A barrier keeps thread start-up
    off the clock.  The first exception a client raises is re-raised
    here once every client has stopped."""
    out: List[Any] = [None] * n
    errors: List[BaseException] = []
    # clients + 1: this thread waits too, so the clock starts only once
    # every client is running.
    barrier = threading.Barrier(clients + 1)

    def client(offset: int) -> None:
        barrier.wait()
        try:
            for i in range(offset, n, clients):
                out[i] = call(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(offset,))
               for offset in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return elapsed, out


@dataclass(frozen=True)
class Pairs:
    """The median over pairs of a's time over b's, its quartiles
    ``[q1, q3]`` (as the perf-v1 records store them), the per-pair
    ratios, and each side's best time over every run."""

    ratio: float
    iqr: List[float]
    ratios: List[float]
    a_seconds: float
    b_seconds: float


def paired(a: Callable, b: Callable, pairs: int = 5, rounds: int = 2) -> Pairs:
    """Time measurement ``a`` against ``b``: one untimed warm-up run of
    each, then ``pairs`` pairs, a first in even pairs and b first in odd
    ones, so drift in the machine's speed hits both sides and cancels.
    Each side of a pair is its best of ``rounds`` runs, which discards
    scheduler preemptions.  The collector is collected, then held off
    until the last run returns or raises, so no sweep lands inside one
    side of a pair, and left as it was."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        a()
        b()
        times = []
        for index in range(pairs):
            order = (a, b) if index % 2 == 0 else (b, a)
            best = [min(m()[0] for _ in range(rounds)) for m in order]
            times.append(best if index % 2 == 0 else best[::-1])
    finally:
        if enabled:
            gc.enable()
    ratios = [a_s / b_s for a_s, b_s in times]
    q1, median, q3 = np.percentile(ratios, [25, 50, 75])
    return Pairs(
        ratio=float(median), iqr=[float(q1), float(q3)], ratios=ratios,
        a_seconds=min(a_s for a_s, _ in times),
        b_seconds=min(b_s for _, b_s in times),
    )
