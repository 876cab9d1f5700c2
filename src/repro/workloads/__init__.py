"""Instrumented workloads: the paper's synthetic grid (Table I) plus the
three application classes it mimics — federated learning training,
sensor data aggregation and image pre-processing.

Every workload takes any capture client through the uniform capture
interface (``setup()`` / ``capture()`` / ``flush_groups()`` /
``drain()`` generators + ``close()``): a
:class:`repro.capture.CaptureClient` built by
:func:`repro.capture.create_client` for any registered transport, a
blocking baseline, or the null client.  Swapping the capture system is
therefore a one-line config change, never a workload change.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "FederatedConfig": ".federated",
    "LogisticModel": ".federated",
    "federated_training": ".federated",
    "make_client_datasets": ".federated",
    "ImagingConfig": ".imaging",
    "imaging_pipeline": ".imaging",
    "mean_filter": ".imaging",
    "SensorConfig": ".sensors",
    "sensor_pipeline": ".sensors",
    "PAPER_ATTRIBUTE_COUNTS": ".synthetic",
    "PAPER_TASK_DURATIONS": ".synthetic",
    "SyntheticWorkloadConfig": ".synthetic",
    "paper_workload_grid": ".synthetic",
    "synthetic_workload": ".synthetic",
}

__all__ = [
    "SyntheticWorkloadConfig",
    "synthetic_workload",
    "paper_workload_grid",
    "PAPER_TASK_DURATIONS",
    "PAPER_ATTRIBUTE_COUNTS",
    "FederatedConfig",
    "LogisticModel",
    "federated_training",
    "make_client_datasets",
    "SensorConfig",
    "sensor_pipeline",
    "ImagingConfig",
    "imaging_pipeline",
    "mean_filter",
]


__getattr__ = lazy_exports(__name__, _EXPORTS)
