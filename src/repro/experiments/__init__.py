"""One experiment module per paper table/figure.  See README's "Reproducing
the paper" (``python -m repro.experiments --list`` is the index)."""

from .ablation import run_ablation
from .artifacts import TrainedArtifacts, get_artifacts
from .common import PAPER, SMOKE, ResultTable, Scale
from .compression_eval import run_compression_rd
from .design_ablations import (
    run_bins_sweep,
    run_dilation_sweep,
    run_downsampling_ablation,
    run_octree_depth_sweep,
)
from .fig4_uniformity import run_fig4
from .fleet_cdn import run_fleet_cdn
from .fleet_chaos import run_fleet_chaos
from .fleet_obs import run_fleet_obs
from .fleet_policies import run_fleet_policies
from .fleet_scaling import run_fleet_scaling, run_population_fleet
from .interp_speed import run_fig11_device, run_fig11_measured
from .memory_usage import run_memory_usage
from .multivideo import run_multivideo_eval
from .runtime_breakdown import run_breakdown_device, run_breakdown_measured
from .scenario import Scenario, ScenarioReport, run_scenario
from .sr_quality import run_sr_quality
from .sr_runtime import run_fig17_device, run_fig17_measured, run_fig18_device
from .streaming_eval import run_streaming_eval
from .table1 import run_table1

__all__ = [
    "ResultTable",
    "Scale",
    "SMOKE",
    "PAPER",
    "TrainedArtifacts",
    "get_artifacts",
    "run_table1",
    "run_fig4",
    "run_sr_quality",
    "run_fig11_measured",
    "run_fig11_device",
    "run_streaming_eval",
    "run_fleet_scaling",
    "run_population_fleet",
    "run_fleet_cdn",
    "run_fleet_chaos",
    "run_fleet_obs",
    "run_fleet_policies",
    "Scenario",
    "ScenarioReport",
    "run_scenario",
    "run_ablation",
    "run_dilation_sweep",
    "run_bins_sweep",
    "run_downsampling_ablation",
    "run_octree_depth_sweep",
    "run_compression_rd",
    "run_multivideo_eval",
    "run_memory_usage",
    "run_breakdown_device",
    "run_breakdown_measured",
    "run_fig17_device",
    "run_fig17_measured",
    "run_fig18_device",
]
