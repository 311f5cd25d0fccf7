"""Octree codec tests: roundtrip, rate, distortion, the pinned wire format,
hostile payloads, and parity with the byte-loop codec it replaced
(``reference_codec.py``, the oracle-parity instance for this layer)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    compression_summary,
    octree_decode,
    octree_encode,
)
from repro.compression.octree_codec import _zero_rle_decode, _zero_rle_encode
from repro.compression.morton import MAX_DEPTH
from repro.metrics import chamfer_distance
from repro.pointcloud import PointCloud, make_video
from repro.pointcloud.sampling import random_downsample_count
from repro.streaming.encoder import encode_frame_compressed

from ..golden import assert_golden, digest
from . import reference_codec as ref


class TestRLE:
    def test_roundtrip(self):
        data = np.array([1, 0, 0, 0, 5, 0, 2, 0, 0], dtype=np.uint8)
        assert (_zero_rle_decode(_zero_rle_encode(data), len(data)) == data).all()

    def test_compresses_zeros(self):
        data = np.zeros(1000, dtype=np.uint8)
        assert len(_zero_rle_encode(data)) < 20

    def test_long_runs_split(self):
        data = np.zeros(600, dtype=np.uint8)
        out = _zero_rle_decode(_zero_rle_encode(data), 600)
        assert (out == 0).all()

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            _zero_rle_decode(b"\x00", 5)

    def test_wrong_length_rejected(self):
        enc = _zero_rle_encode(np.array([1, 2, 3], dtype=np.uint8))
        with pytest.raises(ValueError):
            _zero_rle_decode(enc, 10)


class TestCodec:
    def test_geometry_within_voxel_tolerance(self, small_frame):
        depth = 10
        enc = octree_encode(small_frame, depth)
        dec = octree_decode(enc)
        # Every decoded point within half a voxel diagonal of a source point.
        lo, hi = small_frame.bounds()
        voxel = np.max(hi - lo) / (1 << depth)
        from repro.metrics import p2p_distances

        assert p2p_distances(dec, small_frame).max() <= voxel * np.sqrt(3)

    def test_colors_preserved_for_isolated_voxels(self, small_frame):
        """At fine depths voxels hold single points, so colors round-trip."""
        from repro.spatial import kdtree_knn

        enc = octree_encode(small_frame, 12)
        dec = octree_decode(enc)
        idx, _ = kdtree_knn(small_frame.positions, dec.positions, 1)
        err = np.abs(
            dec.colors.astype(int) - small_frame.colors[idx[:, 0]].astype(int)
        ).mean()
        assert err < 1.0

    def test_distortion_decreases_with_depth(self, small_frame):
        cds = [
            compression_summary(small_frame, depth)["chamfer"]
            for depth in (6, 8, 10)
        ]
        assert cds[0] > cds[1] > cds[2]

    def test_rate_increases_with_depth(self, small_frame):
        rates = [
            compression_summary(small_frame, depth)["bytes_per_point"]
            for depth in (6, 8, 10)
        ]
        assert rates[0] < rates[2]

    def test_compression_beats_raw(self, small_frame):
        s = compression_summary(small_frame, 10)
        assert s["compression_ratio"] > 1.5

    def test_grounds_streaming_constant(self):
        """The 6 B/pt transport assumption holds at the paper's density."""
        from repro.pointcloud import make_video

        frame = make_video("longdress", n_points=20_000, n_frames=1).frame(0)
        s = compression_summary(frame, 10)
        assert 4.0 < s["bytes_per_point"] < 8.0

    def test_colorless_cloud(self):
        pc = PointCloud(np.random.default_rng(0).uniform(0, 1, (500, 3)))
        dec = octree_decode(octree_encode(pc, 8))
        assert not dec.has_colors
        assert len(dec) > 0

    def test_empty_cloud(self):
        enc = octree_encode(PointCloud.empty(), 8)
        dec = octree_decode(enc)
        assert len(dec) == 0

    def test_single_point(self):
        pc = PointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([[9, 9, 9]], dtype=np.uint8))
        dec = octree_decode(octree_encode(pc, 8))
        assert len(dec) == 1
        assert np.allclose(dec.positions[0], [1, 2, 3], atol=1e-6)

    def test_depth_validation(self, small_frame):
        with pytest.raises(ValueError):
            octree_encode(small_frame, 0)
        with pytest.raises(ValueError):
            octree_encode(small_frame, 30)

    @pytest.mark.parametrize("depth", [True, 10.0, 10.5])
    def test_depth_must_be_an_integer(self, small_frame, depth):
        with pytest.raises(ValueError, match="depth must be an integer"):
            octree_encode(small_frame, depth)
        with pytest.raises(ValueError, match="depth must be an integer"):
            encode_frame_compressed(small_frame, 0.5, depth=depth)

    def test_numpy_integer_depth_accepted(self, small_frame):
        enc = octree_encode(small_frame, np.int64(10))
        assert type(enc.depth) is int and enc.depth == 10
        assert enc.payload == octree_encode(small_frame, 10).payload

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="octree"):
            octree_decode(b"XXXX" + b"\x00" * 40)

    def test_voxel_count_matches_header(self, small_frame):
        enc = octree_encode(small_frame, 9)
        dec = octree_decode(enc)
        assert len(dec) == enc.n_voxels

    def test_decode_accepts_raw_bytes(self, small_frame):
        enc = octree_encode(small_frame, 8)
        assert len(octree_decode(enc.payload)) == enc.n_voxels

    @pytest.mark.parametrize("depth", [3, 4, 6, 10])
    def test_payload_does_not_depend_on_point_order(self, depth):
        """What lets the Morton sort be unstable: at coarse depths many
        points share a voxel, and its mean colour is the same in any order."""
        frame = make_video("haggle", n_points=3000, n_frames=1, seed=11).frame(0)
        enc = octree_encode(frame, depth)
        assert enc.n_voxels < len(frame)
        g = np.random.default_rng(depth)
        for _ in range(4):
            shuffled = frame.select(g.permutation(len(frame)))
            assert octree_encode(shuffled, depth).payload == enc.payload


@given(seed=st.integers(0, 100), depth=st.integers(4, 12))
@settings(max_examples=20, deadline=None)
def test_roundtrip_distortion_bounded_property(seed, depth):
    g = np.random.default_rng(seed)
    pc = PointCloud(g.uniform(-3, 3, (150, 3)))
    dec = octree_decode(octree_encode(pc, depth))
    # Chamfer bounded by the voxel diagonal at this depth.
    voxel = 6.0 / (1 << depth)
    assert chamfer_distance(dec, pc) <= 2 * voxel * np.sqrt(3)


# ----------------------------------------------------------------------
# Wire format: payload lengths and digests first recorded from the
# byte-loop codec, before the array-speed rewrite.  A codec change that
# moves a byte moves ``stream_mbps`` on every workload; it must show up
# here as a reviewed diff of ``tests/golden/codec_wire.json``.
WIRE_CASES = ((0.38, 10), (1.0, 6), (1.0, 10))


def wire_row(density: float, depth: int) -> dict:
    frame = make_video("longdress", n_points=2000, n_frames=1, seed=0).frame(0)
    payload = encode_frame_compressed(frame, density, depth=depth, seed=0)
    return {
        "density": density, "depth": depth, "len": len(payload),
        "digest": digest(payload),
    }


@pytest.mark.golden
@pytest.mark.parametrize("density,depth", WIRE_CASES)
def test_wire_format_is_pinned(density, depth):
    assert_golden(
        "codec_wire", [wire_row(density, depth)], key=("density", "depth"),
        where={"density": density, "depth": depth},
    )


@pytest.mark.golden
def test_wire_format_golden_holds_exactly_these_payloads():
    rows = [wire_row(density, depth) for density, depth in WIRE_CASES]
    assert_golden("codec_wire", rows, key=("density", "depth"))


# ----------------------------------------------------------------------
class TestHostilePayloads:
    """Each malformed field gets its own ``ValueError`` before it is used."""

    @pytest.fixture(scope="class")
    def payload(self):
        frame = make_video("loot", n_points=300, n_frames=1, seed=2).frame(0)
        return octree_encode(frame, 7).payload

    @pytest.mark.parametrize("cut", [4, 5, 20, 31, 33])
    def test_header_cut_short(self, payload, cut):
        with pytest.raises(ValueError, match=f"truncated: {cut} bytes, the header is 34"):
            octree_decode(payload[:cut])

    @pytest.mark.parametrize("depth", [0, MAX_DEPTH + 1, 255])
    def test_depth_byte_out_of_range(self, payload, depth):
        bad = payload[:4] + bytes([depth]) + payload[5:]
        with pytest.raises(ValueError, match=rf"depth {depth} outside \[1, {MAX_DEPTH}\]"):
            octree_decode(bad)

    def test_occupancy_cut_short(self, payload):
        with pytest.raises(ValueError, match="occupancy stream truncated"):
            octree_decode(payload[:40])

    @pytest.fixture(scope="class")
    def flagged(self):
        """A colorless payload with the color flag set: geometry, then nothing."""
        bare = octree_encode(PointCloud(np.random.default_rng(0).uniform(0, 1, (50, 3))), 5)
        return bare.payload[:5] + b"\x01" + bare.payload[6:], bare.n_voxels

    def test_color_flag_without_color_section(self, flagged):
        for tail in (b"", b"\x07\x00"):  # nothing, or half an rle_len field
            with pytest.raises(ValueError, match="ends before the color section"):
                octree_decode(flagged[0] + tail)

    def test_rle_len_past_the_end(self, flagged):
        geometry, n_voxels = flagged
        rle = _zero_rle_encode(np.zeros(3 * n_voxels, dtype=np.uint8))
        good = geometry + len(rle).to_bytes(4, "little") + rle
        assert not octree_decode(good).colors.any()
        bad = geometry + (len(rle) + 1).to_bytes(4, "little") + rle
        with pytest.raises(ValueError, match=f"claims {len(rle) + 1} bytes, {len(rle)} remain"):
            octree_decode(bad)

    @staticmethod
    def _bbox(payload):
        return np.frombuffer(payload, "<f4", count=6, offset=6).copy()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_bbox_inverted(self, payload, axis):
        bbox = self._bbox(payload)
        bbox[[axis, 3 + axis]] = bbox[[3 + axis, axis]]  # hi < lo on this axis
        with pytest.raises(ValueError, match=f"bbox is inverted on axis {'xyz'[axis]}"):
            octree_decode(payload[:6] + bbox.tobytes() + payload[30:])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", [0, 4])  # lo on x, hi on y
    def test_bbox_not_finite(self, payload, value, slot):
        bbox = self._bbox(payload)
        bbox[slot] = value
        with pytest.raises(ValueError, match=f"bbox is not finite on axis {'xyz'[slot % 3]}"):
            octree_decode(payload[:6] + bbox.tobytes() + payload[30:])

    def test_leaf_count_mismatch(self, payload):
        bad = payload[:30] + (10**6).to_bytes(4, "little") + payload[34:]
        with pytest.raises(ValueError, match="header promised 1000000"):
            octree_decode(bad)

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    def test_any_bytes_like_decodes(self, payload, wrap):
        want = octree_decode(payload)
        got = octree_decode(wrap(payload))
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.colors, want.colors)


# ----------------------------------------------------------------------
def _outcome(decode, data, expected):
    try:
        return decode(data, expected).tobytes()
    except ValueError as exc:
        return str(exc)


class TestReferenceParity:
    """Production equals ``reference_codec`` byte for byte, array for array
    and — on corrupt input — message for message."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 4000),
        zero_fraction=st.sampled_from((0.05, 0.3, 0.7, 0.95, 0.999, 1.0)),
        planted=st.sampled_from((0, 1, 255, 256, 257, 512, 513)),
        where=st.sampled_from(("lead", "middle", "trail")),
    )
    @settings(max_examples=150, deadline=None)
    def test_rle_bytes_equal(self, seed, n, zero_fraction, planted, where):
        g = np.random.default_rng(seed)
        data = g.integers(1, 256, n).astype(np.uint8)
        data[g.random(n) < zero_fraction] = 0
        if planted and n > planted:
            at = {"lead": 0, "middle": (n - planted) // 2, "trail": n - planted}[where]
            data[max(at - 1, 0)] = data[min(at + planted, n - 1)] = 7  # exactly ``planted``
            data[at : at + planted] = 0
        want = ref.zero_rle_encode(data)
        assert _zero_rle_encode(data) == want
        back = _zero_rle_decode(want, n)
        assert back.dtype == np.uint8 and np.array_equal(back, data)
        assert np.array_equal(ref.zero_rle_decode(want, n), data)

    @pytest.mark.parametrize("with_colors", [True, False])
    @pytest.mark.parametrize("video", ["longdress", "loot", "haggle", "lab"])
    def test_real_frames_payload_and_arrays_equal(self, video, with_colors):
        frame = make_video(video, n_points=1200, n_frames=1, seed=5).frame(0)
        if not with_colors:
            frame = PointCloud(frame.positions)
        merged = 0
        for di, density in enumerate((0.125, 0.38, 0.66, 1.0)):
            low = random_downsample_count(frame, round(len(frame) * density), seed=di)
            for depth in (4, 6, 8, 10, 12):
                enc = octree_encode(low, depth)
                assert enc.payload == ref.reference_encode(low, depth), (density, depth)
                merged += enc.n_voxels < len(low)  # several points in one voxel
                got, want = octree_decode(enc), ref.reference_decode(enc.payload)
                assert got.positions.dtype == want.positions.dtype
                assert np.array_equal(got.positions, want.positions)
                assert got.has_colors == want.has_colors == with_colors
                if with_colors:
                    assert got.colors.dtype == want.colors.dtype == np.uint8
                    assert np.array_equal(got.colors, want.colors)
        assert merged  # the grid holds voxels with several points (the per-voxel mean)

    @staticmethod
    def _assert_equal(cloud, depth):
        enc = octree_encode(cloud, depth)
        assert enc.payload == ref.reference_encode(cloud, depth)
        got, want = octree_decode(enc), ref.reference_decode(enc.payload)
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.colors, want.colors)
        return enc

    @pytest.mark.parametrize("depth", [1, 10])
    def test_every_voxel_shared(self, small_frame, depth):
        """Each point twice with a second colour, so every voxel colour is
        a rounded mean; at depth 1 all 4,000 points share at most 8 voxels."""
        second = np.random.default_rng(depth).integers(0, 256, small_frame.colors.shape)
        twice = PointCloud(
            np.concatenate([small_frame.positions] * 2),
            np.concatenate([small_frame.colors, second.astype(np.uint8)]),
        )
        enc = self._assert_equal(twice, depth)
        assert enc.n_voxels <= len(small_frame)
        if depth == 1:
            assert enc.n_voxels <= 8

    def test_no_voxel_shared(self):
        """A sparse cloud at depth 12: every voxel holds one point, so no
        mean is taken."""
        g = np.random.default_rng(12)
        cloud = PointCloud(
            g.uniform(-1, 1, (300, 3)), g.integers(0, 256, (300, 3)).astype(np.uint8)
        )
        assert self._assert_equal(cloud, 12).n_voxels == len(cloud)

    @pytest.mark.parametrize("depth", [4, 10])
    def test_points_on_cell_boundaries(self, depth):
        """Coordinates on a cell boundary and one ulp either side, in an
        awkward bbox: where the voxel index rounds down is decided by the
        expression's exact operation order."""
        g = np.random.default_rng(depth)
        lo, span = g.uniform(-3, 3, 3), g.uniform(0.01, 7, 3)
        cells = 1 << depth
        edges = lo + np.arange(cells + 1)[:, None] / cells * span
        pos = np.concatenate(
            [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        )
        pos = np.clip(pos, lo, lo + span)
        for axis in range(3):
            g.shuffle(pos[:, axis])
        colors = g.integers(0, 256, pos.shape).astype(np.uint8)
        self._assert_equal(PointCloud(pos, colors), depth)

    def test_corrupt_rle_streams_same_outcome(self):
        g = np.random.default_rng(2024)
        seen = set()
        for _ in range(2000):
            n = int(g.integers(0, 80))
            data = g.integers(1, 256, n).astype(np.uint8)
            data[g.random(n) < g.choice((0.1, 0.5, 0.9))] = 0
            stream = bytearray(ref.zero_rle_encode(data))
            for _ in range(int(g.integers(0, 4))):  # flip, drop or insert a byte
                at = int(g.integers(0, len(stream) + 1))
                op = g.integers(0, 3)
                if op == 0 and at < len(stream):
                    stream[at] = int(g.choice((0, 0, 1, 255, g.integers(0, 256))))
                elif op == 1 and at < len(stream):
                    del stream[at]
                else:
                    stream.insert(at, int(g.choice((0, 0, 200))))
            expected = int(g.choice((0, n, n, max(n - 1, 0), n + 1, g.integers(0, 400))))
            want = _outcome(ref.zero_rle_decode, bytes(stream), expected)
            assert _outcome(_zero_rle_decode, bytes(stream), expected) == want, (
                bytes(stream), expected)
            seen.add(want.split(" decoded ")[0] if isinstance(want, str) else "bytes")
        assert seen == {
            "bytes", "truncated zero run", "zero run overflows output", "RLE stream",
        }
