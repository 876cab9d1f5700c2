"""E2Clab-style experiment framework (paper Sections II-C, V).

Configuration-driven deployment of Edge-to-Cloud experiments on simulated
testbeds: layers & services, network constraints, workflow execution, the
Provenance Manager (ProvLight + DfAnalyzer) — mirroring the architecture
of the paper's Fig. 4.
"""

from . import miniyaml
from .config import (
    ConfigError,
    EnvironmentConfig,
    LayerConfig,
    LayersServicesConfig,
    NetworkConfig,
    NetworkRule,
    ServiceConfig,
    WorkflowConfig,
    WorkflowEntry,
    parse_layers_services,
    parse_network,
    parse_workflow,
)
from .experiment import Experiment, ExperimentResults
from .layers import DeployedService, LayersServicesManager
from .miniyaml import MiniYamlError, load_file, loads
from .network_manager import NetworkManager
from .provenance_manager import ProvenanceManager
from .testbeds import TESTBEDS, ProvisionError, Testbed, testbed_by_name
from .workflow_manager import UnknownWorkload, WorkflowManager, WorkloadSpec

__all__ = [
    "miniyaml",
    "loads",
    "load_file",
    "MiniYamlError",
    "ConfigError",
    "EnvironmentConfig",
    "LayerConfig",
    "LayersServicesConfig",
    "ServiceConfig",
    "NetworkConfig",
    "NetworkRule",
    "WorkflowConfig",
    "WorkflowEntry",
    "parse_layers_services",
    "parse_network",
    "parse_workflow",
    "Testbed",
    "TESTBEDS",
    "testbed_by_name",
    "ProvisionError",
    "LayersServicesManager",
    "DeployedService",
    "NetworkManager",
    "ProvenanceManager",
    "WorkflowManager",
    "WorkloadSpec",
    "UnknownWorkload",
    "Experiment",
    "ExperimentResults",
]
