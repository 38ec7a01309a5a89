"""The ``machine`` axis: M1/M2 routing from spec to workload collection.

End-to-end the axis travels: ``--axis machine=M1,M2`` → matrix expansion
→ ``dataclasses.replace`` onto ``BenchScale.machine`` → the cell's scale
→ ``repro.bench.cache`` picking the collection profiles (workloads 1/3
on the primary machine, workload 2 always on the *other* one).  The
workload builders are stubbed here — profile routing is the contract,
not executor output.
"""

import pytest

from repro.bench import cache
from repro.bench.config import SMOKE, BenchScale
from repro.engine.machines import M1, M2, MACHINES, MachineProfile, \
    other_machine, resolve_machine
from repro.experiments import (
    load_results_from_dir,
    ExperimentSpec,
    ResultsStore,
    Runner,
    register_cell,
)
from repro.experiments.registry import _CELLS

SEEN = []


def machine_probe(scale: BenchScale) -> dict:
    SEEN.append(scale.machine)
    return {"table": f"machine={scale.machine}", "machine": scale.machine}


@pytest.fixture(autouse=True)
def registered_probe():
    register_cell("machine-probe", machine_probe)
    SEEN.clear()
    yield
    _CELLS.pop("machine-probe", None)
    cache.clear_caches()


class TestResolution:
    def test_resolve_by_name_case_insensitive(self):
        assert resolve_machine("M1") is M1
        assert resolve_machine("m2") is M2
        assert resolve_machine(" m1 ") is M1

    def test_resolve_profile_passthrough(self):
        assert resolve_machine(M2) is M2

    def test_unknown_machine_is_actionable(self):
        with pytest.raises(ValueError, match="valid machines: M1, M2"):
            resolve_machine("M3")

    def test_other_machine_pairing(self):
        assert other_machine("M1") is M2
        assert other_machine(M2) is M1

    def test_registry_covers_both(self):
        assert set(MACHINES) == {"M1", "M2"}
        assert all(
            isinstance(profile, MachineProfile)
            for profile in MACHINES.values()
        )


class TestMatrixExpansion:
    def test_machine_axis_expands_and_routes(self, tmp_path):
        spec = ExperimentSpec(
            "machine-probe", scale="smoke",
            axes={"machine": ["M1", "M2"]},
        )
        configs = spec.expand()
        assert len(configs) == 2
        assert {c.config["machine"] for c in configs} == {"M1", "M2"}

        store = ResultsStore(root=str(tmp_path), scale="smoke")
        summary = Runner(store).run(spec)
        assert len(summary.ran) == 2 and not summary.failed
        assert sorted(SEEN) == ["M1", "M2"]
        assert {
            cell.results["machine"]
            for cell in load_results_from_dir(store.cells_dir)
        } == {"M1", "M2"}

    def test_default_scale_machine_is_m1(self):
        assert SMOKE.machine == "M1"
        assert cache.primary_machine(SMOKE) is M1


class TestWorkloadPairing:
    @pytest.fixture
    def recorded(self, monkeypatch):
        calls = {}

        def fake_w1(machine=None, **kwargs):
            calls["w1"] = machine
            return {}

        def fake_w2(machine=None, **kwargs):
            calls["w2"] = machine
            return {}

        monkeypatch.setattr(cache, "workload1", fake_w1)
        monkeypatch.setattr(cache, "workload2", fake_w2)
        cache.clear_caches()
        return calls

    def test_m1_primary_keeps_paper_pairing(self, recorded):
        cache.get_workload1(SMOKE)
        cache.get_workload2(SMOKE)
        assert recorded["w1"] is M1
        assert recorded["w2"] is M2

    def test_m2_primary_flips_the_pairing(self, recorded):
        import dataclasses

        flipped = dataclasses.replace(SMOKE, machine="M2")
        cache.get_workload1(flipped)
        cache.get_workload2(flipped)
        assert recorded["w1"] is M2
        assert recorded["w2"] is M1

    def test_machine_in_cache_key(self):
        import dataclasses

        flipped = dataclasses.replace(SMOKE, machine="M2")
        assert cache._w1_key(SMOKE) != cache._w1_key(flipped)


class TestCliAxis:
    def test_cli_machine_axis_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "exp", "run", "machine-probe", "--scale", "smoke",
            "--axis", "machine=M1,M2",
            "--results-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "(ran 2, skipped 0, failed 0)" in out
        assert sorted(SEEN) == ["M1", "M2"]
