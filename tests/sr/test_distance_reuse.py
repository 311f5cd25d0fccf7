"""Neighbour *distances* reuse: Eq. 3's radius is ``merge_and_prune``'s
k-th distance, and the nearer parent is chosen from per-axis sums.

``reference_distances`` holds the ``np.linalg.norm`` formulas production
replaced; on the bench's frame shapes, and on generated clouds full of
duplicate points, the production values equal them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pointcloud import PointCloud
from repro.pointcloud.datasets import make_video
from repro.spatial import merge_and_prune
from repro.sr import PositionEncoder, interpolate
from repro.sr.colorize import nearer_parent
from repro.streaming.encoder import decode_frame_compressed, encode_frame_compressed

from .reference_distances import reference_nearer_parent, reference_radius

#: a content seed the per-axis formulas were not tuned on
SEED = 23
VIDEOS = ("longdress", "loot", "haggle", "lab")
#: the two client workloads' shapes: (ratio, density) of 12,000-point frames
SHAPES = ((2.0, 0.5), (8.0, 0.125))
RF = 4


@pytest.fixture(scope="module")
def bench_frames():
    """The eight bench frame shapes, decoded, interpolated and pruned."""
    out = []
    for vi, video in enumerate(VIDEOS):
        frame = make_video(video, n_points=12_000, n_frames=1, seed=SEED).frame(0)
        for ratio, density in SHAPES:
            payload = encode_frame_compressed(
                frame, density, depth=10, seed=SEED * 1000 + vi * 100
            )
            cloud = decode_frame_compressed(payload)
            interp = interpolate(cloud, ratio, k=4, dilation=2, seed=SEED)
            idx, dist = merge_and_prune(
                interp.new_positions, cloud.positions, interp.parent_a,
                interp.parent_b, interp.neighbor_idx, RF - 1,
            )
            out.append((f"{video}-x{ratio:g}", cloud, interp, idx, dist))
    return out


def test_radius_is_the_prunes_last_distance_on_bench_frames(bench_frames):
    encoder = PositionEncoder(rf_size=RF, bins=128)
    for name, cloud, interp, idx, dist in bench_frames:
        new, neighbors = interp.new_positions, cloud.positions[idx]
        want = reference_radius(new, neighbors)
        measured = encoder.encode(new, neighbors)
        given_r = encoder.encode(new, neighbors, radius=dist[:, -1])
        assert np.array_equal(measured.radius, want), name
        assert np.array_equal(dist[:, -1], want), name
        assert np.array_equal(given_r.normalized, measured.normalized), name


def test_nearer_parent_matches_the_norm_formula_on_bench_frames(bench_frames):
    for name, cloud, interp, _, _ in bench_frames:
        got = nearer_parent(cloud.positions, interp)
        assert np.array_equal(got, reference_nearer_parent(cloud.positions, interp)), name


def test_nearer_parent_keeps_the_square_root():
    """Off the codec's lattice a midpoint's squared distances differ in the
    last bit more often than not, and some of those round to one distance:
    that tie goes to ``parent_a``, as the norm formula had it."""
    g = np.random.default_rng(SEED)
    pts = g.uniform(-1, 1, (20_000, 3))
    pa = np.arange(10_000)
    pb = pa + 10_000
    pts[pb] = pts[pa] + g.normal(0, 0.01, (10_000, 3))
    new = 0.5 * (pts[pa] + pts[pb])

    class Interp:
        parent_a, parent_b, new_positions = pa, pb, new

    want = reference_nearer_parent(pts, Interp)
    assert np.array_equal(nearer_parent(pts, Interp), want)
    squared = [((pts[p] - new) ** 2).sum(axis=1) for p in (pa, pb)]
    assert (np.where(squared[0] <= squared[1], pa, pb) != want).any()


@given(
    seed=st.integers(0, 10_000),
    copies=st.integers(1, 6),
    ratio=st.sampled_from([1.5, 2.0, 3.3, 8.0]),
)
@settings(max_examples=30, deadline=None)
def test_parity_on_clouds_with_duplicate_points(seed, copies, ratio):
    """Every site ``copies`` times: neighbourhoods of coincident points have
    ``R = 0`` and normalise through the ``safe_r`` branch.  The sites are
    jittered off the lattice so the sums' rounding order matters."""
    g = np.random.default_rng(seed)
    lattice = np.unique(g.integers(0, 4, (24, 3)), axis=0) / 4.0
    sites = lattice + g.normal(0, 0.05, lattice.shape)
    pts = np.repeat(sites, copies, axis=0)
    if len(pts) < 10:
        pts = np.vstack([pts, g.uniform(0, 1, (10, 3))])
    cloud = PointCloud(pts, g.integers(0, 256, (len(pts), 3)).astype(np.uint8))
    interp = interpolate(cloud, ratio, k=4, dilation=2, backend="kdtree", seed=seed)
    idx, dist = merge_and_prune(
        interp.new_positions, pts, interp.parent_a, interp.parent_b,
        interp.neighbor_idx, RF - 1,
    )
    new, neighbors = interp.new_positions, pts[idx]
    encoder = PositionEncoder(rf_size=RF, bins=128)
    measured = encoder.encode(new, neighbors)
    given_r = encoder.encode(new, neighbors, radius=dist[:, -1])
    want = reference_radius(new, neighbors)
    assert np.array_equal(measured.radius, want)
    assert np.array_equal(dist[:, -1], want)
    assert np.array_equal(given_r.normalized, measured.normalized)
    zero = want == 0
    assert np.isfinite(measured.normalized).all()
    assert (measured.normalized[zero] == 0).all()
    if copies >= 4:  # both parents and two more candidates coincide
        assert zero.any()
    assert np.array_equal(
        nearer_parent(pts, interp), reference_nearer_parent(pts, interp)
    )


@pytest.mark.parametrize(
    "radius, message",
    [
        pytest.param([1.0, np.nan], r"radius row 1 is nan", id="nan"),
        pytest.param([np.inf, 1.0], r"radius row 0 is inf", id="inf"),
        pytest.param([1.0, -0.5], r"radius row 1 is -0.5", id="negative"),
        pytest.param([1.0, 1.0, 1.0], r"radius must be \(2,\), got \(3,\)", id="long"),
        pytest.param([[1.0], [1.0]], r"radius must be \(2,\), got \(2, 1\)", id="column"),
        pytest.param(1.0, r"radius must be \(2,\), got \(\)", id="scalar"),
    ],
)
def test_bad_explicit_radius_is_rejected(radius, message):
    encoder = PositionEncoder(rf_size=3, bins=16)
    targets = np.zeros((2, 3))
    neighbors = np.ones((2, 2, 3))
    with pytest.raises(ValueError, match=message):
        encoder.encode(targets, neighbors, radius=radius)


def test_explicit_radius_is_used_as_given():
    """``encode`` trusts a valid radius: it divides by it (or by 1 where it
    is 0) and reports it."""
    encoder = PositionEncoder(rf_size=2, bins=16)
    targets = np.zeros((2, 3))
    neighbors = np.array([[[3.0, 4.0, 0.0]], [[1.0, 0.0, 0.0]]])
    enc = encoder.encode(targets, neighbors, radius=np.array([10.0, 0.0]))
    assert enc.radius.tolist() == [10.0, 0.0]
    assert enc.normalized[:, 1].tolist() == [[0.3, 0.4, 0.0], [1.0, 0.0, 0.0]]
