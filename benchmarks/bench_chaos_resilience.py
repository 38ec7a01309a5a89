"""Chaos guard — serving must degrade gracefully, never raise."""

from repro.bench import chaos_resilience


def test_chaos_resilience(benchmark, bench_scale, write_result):
    result = benchmark.pedantic(
        lambda: chaos_resilience(bench_scale, fault_rate=0.1),
        rounds=1, iterations=1,
    )
    write_result("chaos_resilience", result["table"])
    assert result["table"]
    # The resilience contract: with 10% injected faults the replay
    # finishes with zero unhandled exceptions and only finite
    # predictions, and the wrapper is bit-transparent at 0% faults.
    assert result["unhandled"] == 0
    assert result["finite_fraction"] == 1.0
    assert result["identical_at_zero"]
    # Faults actually fired: some predictions came from the fallback.
    assert result["degraded_fraction"] > 0.0
