"""Kernel micro-benchmarks: the measured speed-ups behind the figures.

These time the actual Python implementations (not the device model):

* octree / kd-tree / brute-force kNN — the Fig 11 mechanism, on a raw frame
  and on a 6,000-point decoded frame (the client benchmark's regime);
* LUT lookup vs network inference per refinement — the Fig 17 mechanism;
* neighbor-relationship reuse vs fresh kNN — paper Eq. 2's saving.
"""

import pytest

from repro.pointcloud import make_video
from repro.spatial import TwoLayerOctree, brute_force_knn, get_backend, merge_and_prune
from repro.sr import LUTRefiner, NNRefiner, gather_refinement_neighborhoods, interpolate
from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed


@pytest.fixture(scope="module")
def cloud():
    return make_video("longdress", n_points=5000, n_frames=1).frame(0)


@pytest.fixture(scope="module")
def decoded():
    """What the client searches: ~6,000 voxel centres out of the codec."""
    frame = make_video("longdress", n_points=12_000, n_frames=1).frame(0)
    payload = encode_frame_compressed(frame, 0.5, depth=10, seed=0)
    return decode_frame_compressed(payload).positions


def test_knn_octree(benchmark, cloud):
    pts = cloud.positions
    index = TwoLayerOctree(pts)
    benchmark(index.query, pts, 9)


def test_knn_kdtree(benchmark, cloud):
    pts = cloud.positions
    index = get_backend("kdtree", pts)
    benchmark(index.query, pts, 9)


def test_knn_brute(benchmark, cloud):
    pts = cloud.positions
    benchmark(brute_force_knn, pts, pts, 9)


@pytest.mark.parametrize("backend", ["octree", "kdtree", "brute"])
def test_knn_decoded_frame(benchmark, decoded, backend):
    index = get_backend(backend, decoded)
    benchmark(index.query, decoded, 9)


def test_refine_lut_lookup(benchmark, cloud, artifacts):
    interp = interpolate(cloud, 2.0, seed=0)
    nb = gather_refinement_neighborhoods(cloud.positions, interp, 4)
    refiner = LUTRefiner(artifacts.lut)
    benchmark(refiner.refine, interp.new_positions, nb)


def test_refine_nn_inference(benchmark, cloud, artifacts):
    interp = interpolate(cloud, 2.0, seed=0)
    nb = gather_refinement_neighborhoods(cloud.positions, interp, 4)
    refiner = NNRefiner(artifacts.net, artifacts.encoder)
    benchmark(refiner.refine, interp.new_positions, nb)


def test_neighbor_reuse(benchmark, cloud):
    interp = interpolate(cloud, 2.0, seed=0)
    benchmark(
        merge_and_prune,
        interp.new_positions,
        cloud.positions,
        interp.parent_a,
        interp.parent_b,
        interp.neighbor_idx,
        3,
    )


def test_neighbor_fresh_search(benchmark, cloud):
    # Fresh search on the same substrate the client uses (the two-layer
    # octree), which is what relationship reuse actually replaces.
    interp = interpolate(cloud, 2.0, seed=0)
    index = TwoLayerOctree(cloud.positions)
    benchmark(index.query, interp.new_positions, 3)
