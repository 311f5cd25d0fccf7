"""Spatial indexing: kNN backends, two-layer octree, neighbor reuse."""

from .knn import (
    CLIENT_BACKEND,
    BruteBackend,
    KDTreeBackend,
    KnnBackend,
    brute_force_knn,
    get_backend,
    kdtree_knn,
    ordered_query,
    self_neighbors,
)
from .octree import TwoLayerOctree
from .reuse import merge_and_prune

__all__ = [
    "CLIENT_BACKEND",
    "KnnBackend",
    "BruteBackend",
    "KDTreeBackend",
    "TwoLayerOctree",
    "brute_force_knn",
    "kdtree_knn",
    "get_backend",
    "ordered_query",
    "self_neighbors",
    "merge_and_prune",
]
