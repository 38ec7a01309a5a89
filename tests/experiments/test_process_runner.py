"""Process-backend semantics: byte-identity, resume, crash containment.

The cell functions here live at module level so a spawned child can
re-import them by ``(module, qualname)`` reference — exactly the
contract production cells must meet (and the ``<locals>`` counter-case
is tested explicitly via :func:`repro.experiments.worker.fn_reference`).

Every pool spawn on a cold interpreter costs seconds, so the suite
keeps the number of process-backed runs small and pushes breadth into
the hypothesis battery (3 examples) and the cheap in-process helpers.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.config import SMOKE, BenchScale
from repro.experiments import (
    ExperimentSpec,
    ResultsStore,
    Runner,
    register_cell,
)
from repro.experiments.registry import _CELLS
from repro.experiments.worker import fn_reference, resolve_cell
from repro.metrics.tables import format_table

_REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Cell-file fields that legitimately differ between two runs.
TIMING_FIELDS = ("wall_seconds", "created_unix")


# --------------------------------------------------------------------- #
# Module-level cells (importable from a spawned child)
# --------------------------------------------------------------------- #
def proc_cell(scale: BenchScale, gain: float = 1.0) -> dict:
    value = scale.seed + gain
    table = format_table(
        ["seed", "gain", "value"], [[scale.seed, gain, value]],
        title=f"proc @ {scale.name}",
    )
    return {"table": table, "value": value, "pid_independent": True}


def crasher_cell(scale: BenchScale) -> dict:
    os._exit(3)


def sleeper_cell(scale: BenchScale, naptime: float = 120.0) -> dict:
    import time

    time.sleep(naptime)
    return {"table": "slept"}


def erroring_cell(scale: BenchScale) -> dict:
    raise RuntimeError("child says no")


@dataclasses.dataclass(frozen=True)
class WeirdScale(BenchScale):
    """A scale that cannot be pickled (callable field)."""

    hook: object = None


WEIRD = WeirdScale(
    **dict(dataclasses.asdict(SMOKE), name="weird"),
    hook=lambda: None,
)


@pytest.fixture(autouse=True)
def registered_cells():
    register_cell("proc", proc_cell)
    register_cell("crasher", crasher_cell)
    register_cell("sleeper", sleeper_cell)
    register_cell("erroring", erroring_cell)
    yield
    for name in ("proc", "crasher", "sleeper", "erroring"):
        _CELLS.pop(name, None)


def normalized_cells(root) -> dict:
    """config-id → canonical cell JSON with timing fields stripped."""
    cells_dir = os.path.join(str(root), "smoke", "cells")
    out = {}
    for name in sorted(os.listdir(cells_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(cells_dir, name)) as handle:
            payload = json.load(handle)
        for field in TIMING_FIELDS:
            payload.pop(field, None)
        out[payload["config_id"]] = json.dumps(payload, sort_keys=True)
    return out


def make_runner(tmp_path, sub, **kwargs) -> Runner:
    store = ResultsStore(root=str(tmp_path / sub), scale="smoke")
    return Runner(store, **kwargs)


SPEC = ExperimentSpec(
    "proc", scale="smoke", axes={"seed": [0, 7], "gain": [1.0, 2.5]},
)


# --------------------------------------------------------------------- #
# Identity and resume
# --------------------------------------------------------------------- #
class TestByteIdentity:
    def test_process_matches_serial_and_resumes(self, tmp_path):
        serial = make_runner(tmp_path, "serial")
        process = make_runner(
            tmp_path, "process", workers=2, backend="process"
        )
        assert len(serial.run(SPEC).ran) == 4
        summary = process.run(SPEC)
        assert len(summary.ran) == 4 and not summary.failed

        assert normalized_cells(tmp_path / "serial") \
            == normalized_cells(tmp_path / "process")

        # Run-twice resume parity: the second process run skips every
        # cell and rewrites nothing (raw bytes unchanged, timing
        # fields included).
        cells_dir = tmp_path / "process" / "smoke" / "cells"
        before = {
            path.name: path.read_bytes()
            for path in cells_dir.iterdir()
        }
        again = make_runner(
            tmp_path, "process", workers=2, backend="process"
        ).run(SPEC)
        assert len(again.skipped) == 4 and not again.ran
        assert before == {
            path.name: path.read_bytes()
            for path in cells_dir.iterdir()
        }

    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seeds=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1, max_size=3, unique=True,
        ),
        gains=st.lists(
            st.floats(min_value=0.25, max_value=8.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=2, unique=True,
        ),
    )
    def test_identity_battery(self, tmp_path_factory, seeds, gains):
        spec = ExperimentSpec(
            "proc", scale="smoke", axes={"seed": seeds, "gain": gains},
        )
        root = tmp_path_factory.mktemp("battery")
        serial = make_runner(root, "serial")
        process = make_runner(root, "process", workers=2, backend="process")
        assert not serial.run(spec).failed
        assert not process.run(spec).failed
        assert normalized_cells(root / "serial") \
            == normalized_cells(root / "process")

    def test_identity_across_hash_seeds(self, tmp_path):
        """PYTHONHASHSEED must not leak into process-backend cells."""
        script = (
            "import json, os, sys, tempfile\n"
            "sys.path.insert(0, os.path.join(sys.argv[1], 'tests'))\n"
            "from experiments import test_process_runner as tpr\n"
            "from repro.experiments import ExperimentSpec, register_cell\n"
            "def main():\n"
            "    register_cell('proc', tpr.proc_cell)\n"
            "    spec = ExperimentSpec('proc', scale='smoke',\n"
            "                          axes={'seed': [0, 3]})\n"
            "    with tempfile.TemporaryDirectory() as root:\n"
            "        import pathlib\n"
            "        runner = tpr.make_runner(pathlib.Path(root), 'p',\n"
            "                                 workers=2, backend='process')\n"
            "        assert not runner.run(spec).failed\n"
            "        cells = tpr.normalized_cells(\n"
            "            pathlib.Path(root) / 'p')\n"
            "        print(json.dumps(cells, sort_keys=True))\n"
            "if __name__ == '__main__':\n"
            "    main()\n"
        )
        outputs = []
        for seed in ("1", "2"):
            path = tmp_path / f"hashseed-{seed}.py"
            path.write_text(script)
            proc = subprocess.run(
                [sys.executable, str(path), _REPO_ROOT],
                capture_output=True, text=True,
                env={"PYTHONPATH": os.path.join(_REPO_ROOT, "src"),
                     "PYTHONHASHSEED": seed,
                     "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
                cwd=_REPO_ROOT,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.strip())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])


# --------------------------------------------------------------------- #
# Failure modes: each isolates to one failed cell
# --------------------------------------------------------------------- #
class TestFailureModes:
    def test_crashed_child_fails_one_cell(self, tmp_path):
        spec = ExperimentSpec(["crasher", "proc"], scale="smoke")
        runner = make_runner(tmp_path, "r", workers=2, backend="process")
        summary = runner.run(spec)
        assert len(summary.ran) == 1
        assert summary.ran[0]["experiment"] == "proc"
        assert len(summary.failed) == 1
        failure = summary.failed[0]
        assert failure["experiment"] == "crasher"
        assert "child process died" in failure["error"]
        assert runner.metrics.counter("experiments.cells_failed").value == 1
        assert runner.metrics.counter("experiments.cells_run").value == 1

    def test_timeout_kills_child_and_fails_one_cell(self, tmp_path):
        spec = ExperimentSpec(["sleeper", "proc"], scale="smoke")
        runner = make_runner(
            tmp_path, "r", workers=2, backend="process", timeout_s=20.0
        )
        summary = runner.run(spec)
        assert len(summary.ran) == 1
        assert summary.ran[0]["experiment"] == "proc"
        assert len(summary.failed) == 1
        failure = summary.failed[0]
        assert failure["experiment"] == "sleeper"
        assert "timeout_s=20.0" in failure["error"]
        assert "killed" in failure["error"]
        assert runner.metrics.counter("experiments.cells_failed").value == 1

    def test_unpicklable_payload_fails_fast(self, tmp_path):
        spec = ExperimentSpec(["proc"], scale=WEIRD)
        runner = make_runner(tmp_path, "r", workers=2, backend="process")
        summary = runner.run(spec)
        assert not summary.ran
        assert len(summary.failed) == 1
        error = summary.failed[0]["error"]
        assert "cannot be shipped to a child process" in error
        assert "backend='thread'" in error
        assert runner.metrics.counter("experiments.cells_failed").value == 1

    def test_child_exception_reported_not_fatal(self, tmp_path):
        spec = ExperimentSpec(["erroring", "proc"], scale="smoke")
        runner = make_runner(tmp_path, "r", workers=2, backend="process")
        summary = runner.run(spec)
        assert len(summary.ran) == 1
        assert len(summary.failed) == 1
        assert "child says no" in summary.failed[0]["error"]


# --------------------------------------------------------------------- #
# Cheap in-process pieces
# --------------------------------------------------------------------- #
class TestWorkerHelpers:
    def test_fn_reference_module_function(self):
        module, qualname = fn_reference(proc_cell)
        assert module == proc_cell.__module__
        assert qualname == "proc_cell"

    def test_fn_reference_rejects_locals(self):
        def local_cell(scale):
            return {"table": ""}

        assert fn_reference(local_cell) is None
        assert fn_reference(lambda scale: {}) is None

    def test_resolve_cell_unknown_is_actionable(self):
        with pytest.raises(KeyError) as info:
            resolve_cell("never-registered-cell", None)
        message = str(info.value)
        assert "backend='thread'" in message
        assert "never-registered-cell" in message

    def test_backend_validation(self, tmp_path):
        with pytest.raises(ValueError, match="valid backends"):
            make_runner(tmp_path, "x", backend="fork")
        with pytest.raises(ValueError, match="backend='process'"):
            make_runner(tmp_path, "x", backend="thread", timeout_s=5.0)
        with pytest.raises(ValueError, match="positive"):
            make_runner(
                tmp_path, "x", backend="process", timeout_s=0.0
            )
