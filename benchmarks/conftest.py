"""Benchmark configuration.

Scale selection: set ``REPRO_BENCH_SCALE`` to ``smoke`` (CI-sized, the
default), ``default`` (laptop-scale), or ``paper`` (the paper's full
sizes; hours).  Each benchmark regenerates one of the paper's tables or
figures, times the end-to-end run via pytest-benchmark, prints the result
table, and writes it to ``benchmarks/results/<scale>/<experiment>.txt``.
"""

import os

import pytest

from repro.bench import resolve_scale

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _active_scale():
    name = os.environ.get("REPRO_BENCH_SCALE", "smoke")
    try:
        return resolve_scale(name)
    except ValueError as exc:
        raise ValueError(f"REPRO_BENCH_SCALE: {exc}") from None


def pytest_report_header(config):
    return f"bench scale: {_active_scale().name} (REPRO_BENCH_SCALE)"


@pytest.fixture(scope="session")
def bench_scale():
    return _active_scale()


@pytest.fixture(scope="session")
def write_result(bench_scale):
    # Results are namespaced by scale so a smoke run never overwrites the
    # default-scale numbers EXPERIMENTS.md records.  A benchmark that runs
    # at a scale other than the requested one passes the scale it ran at.
    def _write(experiment: str, table: str, scale=None) -> None:
        directory = os.path.join(RESULTS_DIR, (scale or bench_scale).name)
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{experiment}.txt")
        with open(path, "w") as handle:
            handle.write(table + "\n")
        print(f"\n{table}\n[written to {path}]")

    return _write
