"""Dubins TSP with neighborhoods: heuristic expert, MDP environment, and
privileged-information policy learning."""

from .dubins import Pose, DubinsPath, shortest_path, path_length, sample_path
from .instance import Instance, generate
from .expert import ExpertPath, plan
from .env import DtspnEnv, EnvConfig, Observation
from .demos import Demonstration, DemoDataset, collect, collect_batch
from .learn import ModelBundle, TrainConfig, init_bundle, act
from .evaluate import Metrics, evaluate, benchmark_speed
from .svg import emit_trajectory_svg

__version__ = "0.1.0"

__all__ = [
    "Pose",
    "DubinsPath",
    "shortest_path",
    "path_length",
    "sample_path",
    "Instance",
    "generate",
    "ExpertPath",
    "plan",
    "DtspnEnv",
    "EnvConfig",
    "Observation",
    "Demonstration",
    "DemoDataset",
    "collect",
    "collect_batch",
    "ModelBundle",
    "TrainConfig",
    "init_bundle",
    "act",
    "Metrics",
    "evaluate",
    "benchmark_speed",
    "emit_trajectory_svg",
]
