"""Network substrate: traces, links, multi-hop paths, throughput estimation."""

from .estimator import HarmonicMeanEstimator
from .link import Completion, Link, SharedLink
from .topology import NetworkPath, PathScheduler
from .traces import MBPS, PAPER_LTE_PROFILES, NetworkTrace, lte_trace, stable_trace

__all__ = [
    "NetworkTrace",
    "stable_trace",
    "lte_trace",
    "PAPER_LTE_PROFILES",
    "MBPS",
    "Link",
    "SharedLink",
    "Completion",
    "NetworkPath",
    "PathScheduler",
    "HarmonicMeanEstimator",
]
