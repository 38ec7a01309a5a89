"""Matrix expansion: cartesian product, axes, scales."""

from dataclasses import replace

import pytest

from repro.bench.config import SMOKE
from repro.experiments import Axis, ExperimentSpec


class TestExpansion:
    def test_cartesian_product(self):
        spec = ExperimentSpec(
            "chaos", scale="smoke",
            axes={"fault_rate": [0.0, 0.2], "n_plans": [120, 240]},
        )
        configs = spec.expand()
        assert len(configs) == 4
        assert len({c.id for c in configs}) == 4
        combos = {
            (c.config["fault_rate"], c.config["n_plans"]) for c in configs
        }
        assert combos == {(0.0, 120), (0.0, 240), (0.2, 120), (0.2, 240)}
        for config in configs:
            assert config.experiment == "chaos"
            assert config.scale == "smoke"
            assert config.label.startswith("chaos@smoke ")

    def test_multiple_experiments(self):
        spec = ExperimentSpec(["fig07", "chaos"], axes={"seed": [0, 1]})
        assert len(spec) == 4
        assert {c.experiment for c in spec} == {"fig07", "chaos"}

    def test_expansion_order_deterministic(self):
        spec = ExperimentSpec(
            "chaos", axes={"b": [1, 2], "a": [3, 4]},
        )
        ids = [c.id for c in spec.expand()]
        assert ids == [c.id for c in spec.expand()]

    def test_scalar_axis_value(self):
        spec = ExperimentSpec("fig04", axes={"exclude": "tpc_h"})
        configs = spec.expand()
        assert len(configs) == 1
        assert configs[0].config["exclude"] == "tpc_h"

    def test_axis_objects(self):
        spec = ExperimentSpec(
            "chaos", axes=[Axis("fault_rate", (0.0, 0.5))]
        )
        assert len(spec) == 2

    def test_base_is_pinned_into_every_cell(self):
        spec = ExperimentSpec(
            "chaos", axes={"fault_rate": [0.0, 0.2]},
            base={"n_plans": 99},
        )
        assert all(c.config["n_plans"] == 99 for c in spec)


class TestScales:
    def test_scale_name_resolution(self):
        spec = ExperimentSpec("chaos", scale="smoke")
        assert spec.scale_name == "smoke"
        assert spec.resolve_scale() is SMOKE

    def test_scale_instance(self):
        tiny = replace(SMOKE, name="tiny", queries_per_db=10)
        spec = ExperimentSpec("chaos", scale=tiny)
        assert spec.scale_name == "tiny"
        assert spec.resolve_scale() is tiny
        assert spec.expand()[0].scale == "tiny"


class TestValidation:
    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ExperimentSpec("chaos", axes={"fault_rate": []})

    def test_reserved_axis_names_rejected(self):
        with pytest.raises(ValueError, match="managed by the spec"):
            ExperimentSpec("chaos", axes={"scale": ["smoke", "paper"]})

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec("chaos", axes=[Axis("a", (1,)), Axis("a", (2,))])

    def test_no_experiments_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentSpec([])
