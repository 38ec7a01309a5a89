"""Declarative experiment matrices.

An :class:`ExperimentSpec` names one or more registered experiments, a
bench scale, and a set of axes — each axis a named sequence of values.
``expand()`` takes the cartesian product and yields one content-hashed
:class:`~repro.experiments.config.ExperimentConfig` per cell.  Axes may
be any :class:`~repro.bench.config.BenchScale` field (``seed``,
``drift_factors``, ``lora_epochs``, …) or any keyword the cell function
accepts (``fault_rate``, ``exclude``, ``databases``, …); the
:class:`~repro.experiments.runner.Runner` validates the split before
anything executes::

    spec = ExperimentSpec(
        "chaos", scale="smoke",
        axes={"fault_rate": (0.0, 0.1, 0.3), "seed": (0, 1)},
    )
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple, \
    Union

from repro.experiments.config import ExperimentConfig


@dataclass(frozen=True)
class Axis:
    """One named dimension of the matrix."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")


def _as_axes(
    axes: Union[None, Mapping[str, Sequence], Iterable[Axis]]
) -> Dict[str, Tuple[Any, ...]]:
    if axes is None:
        return {}
    if isinstance(axes, Mapping):
        pairs = [Axis(name, _axis_values(values))
                 for name, values in axes.items()]
    else:
        pairs = [axis if isinstance(axis, Axis) else Axis(*axis)
                 for axis in axes]
    out: Dict[str, Tuple[Any, ...]] = {}
    for axis in pairs:
        if axis.name in out:
            raise ValueError(f"duplicate axis {axis.name!r}")
        out[axis.name] = axis.values
    return out


def _axis_values(values: Any) -> Tuple[Any, ...]:
    # A bare scalar (including a string) is a single-value axis; tuples
    # are ambiguous — ``(1.0, 2.0)`` as one *value* (e.g. drift_factors)
    # must be wrapped in a list/tuple of tuples by the caller.
    if isinstance(values, (str, bytes)) or not isinstance(
        values, (list, tuple)
    ):
        return (values,)
    return tuple(values)


class ExperimentSpec:
    """The declarative cartesian product of experiments × axes.

    ``scale`` is a preset name (``"smoke"``/``"default"``/``"paper"``)
    or a :class:`~repro.bench.config.BenchScale` instance (its ``name``
    is recorded in each config; custom instances can only be re-run
    through the spec that carries them).
    """

    def __init__(
        self,
        experiments: Union[str, Sequence[str]],
        scale: Any = "smoke",
        axes: Union[None, Mapping[str, Sequence], Iterable[Axis]] = None,
        base: Mapping[str, Any] = None,
    ) -> None:
        if isinstance(experiments, str):
            experiments = (experiments,)
        self.experiments: Tuple[str, ...] = tuple(experiments)
        if not self.experiments:
            raise ValueError("spec needs at least one experiment")
        self.scale = scale
        self.axes = _as_axes(axes)
        for reserved in ("experiment", "scale"):
            if reserved in self.axes:
                raise ValueError(
                    f"{reserved!r} is managed by the spec, not an axis"
                )
        self.base = dict(base or {})

    # ------------------------------------------------------------------ #
    # Scale resolution
    # ------------------------------------------------------------------ #
    @property
    def scale_name(self) -> str:
        if isinstance(self.scale, str):
            return self.scale
        return self.scale.name

    def resolve_scale(self):
        """The :class:`BenchScale` this spec runs at."""
        if isinstance(self.scale, str):
            from repro.bench.config import resolve_scale

            return resolve_scale(self.scale)
        return self.scale

    # ------------------------------------------------------------------ #
    # Expansion
    # ------------------------------------------------------------------ #
    def expand(self) -> List[ExperimentConfig]:
        """One content-hashed config per matrix cell.

        Expansion order is deterministic: experiments in declaration
        order, then axes in sorted-name order, each axis in declared
        value order.
        """
        axis_names = sorted(self.axes)
        value_grid = [self.axes[name] for name in axis_names]
        configs: List[ExperimentConfig] = []
        for experiment in self.experiments:
            for combo in itertools.product(*value_grid):
                config = dict(self.base)
                config["experiment"] = experiment
                config["scale"] = self.scale_name
                config.update(zip(axis_names, combo))
                label = f"{experiment}@{self.scale_name}"
                if axis_names:
                    label += " " + ",".join(
                        f"{name}={value}"
                        for name, value in zip(axis_names, combo)
                    )
                configs.append(ExperimentConfig(label=label, config=config))
        return configs

    def __len__(self) -> int:
        return len(self.expand())

    def __iter__(self):
        return iter(self.expand())

    def __repr__(self) -> str:
        axes = ", ".join(
            f"{name}x{len(values)}" for name, values in self.axes.items()
        )
        return (f"ExperimentSpec({list(self.experiments)}, "
                f"scale={self.scale_name!r}, axes=[{axes}])")

