"""The measurement kit: protocol and bookkeeping, checked on a fake clock."""

import gc
import itertools
import threading
from types import SimpleNamespace

import pytest

from repro.bench import timing


@pytest.fixture
def clock(monkeypatch):
    """A clock that advances one second per read."""
    ticks = itertools.count()
    monkeypatch.setattr(timing, "time",
                        SimpleNamespace(perf_counter=lambda: next(ticks)))
    return ticks


def scripted(log, name, durations):
    """A measurement that logs its name and reports the next duration."""
    durations = iter(durations)

    def measure():
        log.append(name)
        return next(durations), name
    return measure


def test_seconds_times_one_call_and_returns_its_result(clock):
    assert timing.seconds(lambda: "out") == (1, "out")


def test_setup_runs_outside_the_timed_region(clock):
    # Setup reads the clock three times; only fn's one second is timed.
    def setup():
        for _ in range(3):
            next(clock)
        return 21

    assert timing.seconds(lambda value: 2 * value, setup) == (1, 42)


def test_paired_alternates_order_and_keeps_each_sides_best():
    log = []
    # Warm-up first, then each side's two rounds per pair.
    a = scripted(log, "a", [99, 4, 3, 6, 9, 2, 8])
    b = scripted(log, "b", [99, 1, 2, 1, 3, 2, 1])
    result = timing.paired(a, b, pairs=3, rounds=2)
    assert log == ["a", "b",
                   "a", "a", "b", "b",
                   "b", "b", "a", "a",
                   "a", "a", "b", "b"]
    # Pairs: a 3 / b 1, a 6 / b 1, a 2 / b 1.
    assert result.ratios == [3.0, 6.0, 2.0]
    assert result.ratio == 3.0
    assert (result.a_seconds, result.b_seconds) == (2, 1)


def test_paired_median_and_quartiles():
    a = scripted([], "a", [1, 2, 4, 6, 8, 10])
    b = scripted([], "b", [1] * 6)
    result = timing.paired(a, b, pairs=5, rounds=1)
    assert result.ratios == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert result.ratio == 6.0
    assert result.iqr == [4.0, 8.0]


def test_paired_restores_gc_after_a_measurement_raises():
    assert gc.isenabled()
    seen = []

    def boom():
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        timing.paired(lambda: (1.0, None), boom)
    assert seen == [False]
    assert gc.isenabled()


def test_closed_loop_fills_every_index_once_when_clients_do_not_divide_n():
    calls = []
    lock = threading.Lock()

    def call(i):
        with lock:
            calls.append(i)
        return i * i

    elapsed, out = timing.closed_loop(call, 10, 3)
    assert sorted(calls) == list(range(10))
    assert out == [i * i for i in range(10)]
    assert elapsed >= 0.0


def test_closed_loop_reraises_a_client_error():
    def call(i):
        if i == 4:
            raise ValueError(i)
        return i

    with pytest.raises(ValueError):
        timing.closed_loop(call, 6, 2)
