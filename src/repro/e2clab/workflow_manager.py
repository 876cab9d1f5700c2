"""Workflow manager: bind configured workloads to deployed services.

A workload is registered under a name and instantiated from the workflow
config's ``parameters`` mapping.  Two shapes exist:

* *per-device* workloads run once on every device of the selected
  services (synthetic, sensors, imaging); device ``i`` of an entry runs
  with the configured seed plus ``i``, so devices draw different data;
* *group* workloads run once with all selected devices together
  (federated learning needs every client in one training loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..workloads import (
    FederatedConfig,
    ImagingConfig,
    SensorConfig,
    SyntheticWorkloadConfig,
    federated_training,
    imaging_pipeline,
    sensor_pipeline,
    synthetic_workload,
)

__all__ = ["WorkloadSpec", "WorkflowManager", "UnknownWorkload"]


class UnknownWorkload(KeyError):
    """The workflow config references an unregistered workload."""


@dataclass(frozen=True)
class WorkloadSpec:
    """A registered workload factory."""

    name: str
    #: per-device: fn(env, capture_client, parameters, result, index) ->
    #: generator, ``index`` the device's position in the entry
    #: group: fn(env, capture_clients, parameters, result) -> generator
    factory: Callable
    group: bool = False


def _seeded(parameters: Dict[str, Any], default: int, index: int) -> Dict[str, Any]:
    """``parameters`` with ``seed`` (``default`` when unset) plus ``index``."""
    return dict(parameters, seed=int(parameters.get("seed", default)) + index)


def _synthetic(env, capture_client, parameters: Dict[str, Any], result: Dict,
               index: int):
    params = _seeded(parameters, 0, index)
    seed = params.pop("seed")
    config = SyntheticWorkloadConfig(**params)
    return synthetic_workload(
        env, capture_client, config,
        rng=np.random.default_rng(seed), result=result,
    )


def _sensors(env, capture_client, parameters: Dict[str, Any], result: Dict,
             index: int):
    config = SensorConfig(**_seeded(parameters, SensorConfig.seed, index))
    return sensor_pipeline(env, capture_client, config, result)


def _imaging(env, capture_client, parameters: Dict[str, Any], result: Dict,
             index: int):
    config = ImagingConfig(**_seeded(parameters, ImagingConfig.seed, index))
    return imaging_pipeline(env, capture_client, config, result)


def _federated(env, capture_clients, parameters: Dict[str, Any], result: Dict):
    params = dict(parameters)
    params.setdefault("n_clients", len(capture_clients))
    return federated_training(env, capture_clients, FederatedConfig(**params), result)


class WorkflowManager:
    """Registry + instantiation of workloads."""

    def __init__(self) -> None:
        self._specs: Dict[str, WorkloadSpec] = {}
        for spec in (
            WorkloadSpec("synthetic", _synthetic),
            WorkloadSpec("sensors", _sensors),
            WorkloadSpec("imaging", _imaging),
            WorkloadSpec("federated", _federated, group=True),
        ):
            self.register(spec)

    def register(self, spec: WorkloadSpec) -> None:
        """Register (or replace) a workload by name."""
        self._specs[spec.name] = spec

    def register_function(self, name: str, factory: Callable, group: bool = False) -> None:
        self.register(WorkloadSpec(name, factory, group=group))

    def spec(self, name: str) -> WorkloadSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise UnknownWorkload(
                f"unknown workload {name!r}; registered: {sorted(self._specs)}"
            )
        return spec

    @property
    def names(self) -> List[str]:
        return sorted(self._specs)

    def instantiate(
        self,
        name: str,
        env,
        capture_clients: List[Any],
        parameters: Optional[Dict[str, Any]] = None,
    ) -> List[tuple]:
        """Build the generator(s) for a workload over capture clients.

        Returns a list of ``(label, generator, result_dict)`` triples —
        one per device for per-device workloads, a single one for group
        workloads.
        """
        spec = self.spec(name)
        parameters = dict(parameters or {})
        if spec.group:
            result: Dict[str, Any] = {}
            return [(name, spec.factory(env, capture_clients, parameters, result), result)]
        out = []
        for i, client in enumerate(capture_clients):
            result = {}
            out.append(
                (f"{name}[{i}]", spec.factory(env, client, parameters, result, i), result)
            )
        return out
