"""Position encoding for 3-D LUT indexing (paper §4.2.1, Eqs. 3–4).

The encoding turns a continuous local neighborhood into a discrete LUT key
in three steps:

* **input** — the target (interpolated) point plus its ``n-1`` nearest
  neighbors, as raw XYZ;
* **normalize** (Eq. 3) — coordinates relative to the target point, scaled
  by the neighborhood radius ``R`` so everything lands in ``[-1, 1]^3``;
* **quantize** (Eq. 4) — ``q = floor((n + 1)/2 · (b - 1))`` into ``b`` bins
  per dimension.

The target point always normalizes to the origin and therefore quantizes to
a constant bin; it is kept in the key (the paper places the interpolated
point first in the index) but carries no entropy — the effective key space
is ``b^{(n-1)·3}``, which is what makes hashing practical.

Offsets predicted in normalized space are scaled back by ``R`` on apply.

:meth:`PositionEncoder.encode` does the first two steps;
:attr:`EncodedNeighborhood.bins` does the third on first access, because
the coarse per-point table the client runs (``CoarseHashedLUT``) keys on
the normalized coordinates and never reads the Eq. 4 bins.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["PositionEncoder", "EncodedNeighborhood"]


class EncodedNeighborhood:
    """Normalized neighborhoods plus the state needed to undo normalization.

    Attributes
    ----------
    bins:
        ``(m, rf, 3)`` int16 quantized coordinates (Eq. 4); row order is
        [target, neighbor_1, ..., neighbor_{rf-1}] as in the paper.
        Computed on first access and kept: the production refiner
        (:class:`~repro.sr.refine.LUTRefiner` over a ``CoarseHashedLUT``)
        keys on ``normalized`` and never reads it.
    radius:
        ``(m,)`` neighborhood radii ``R`` (Eq. 3 denominators).
    normalized:
        ``(m, rf, 3)`` float coordinates before quantization (kept because
        NN refinement consumes them and tests check the quantization error).
    """

    def __init__(
        self, radius: np.ndarray, normalized: np.ndarray, encoder: "PositionEncoder"
    ):
        self.radius = radius
        self.normalized = normalized
        self._encoder = encoder

    @cached_property
    def bins(self) -> np.ndarray:
        return self._encoder._quantize(self.normalized)

    @property
    def n_neighborhoods(self) -> int:
        return len(self.normalized)

    @property
    def rf_size(self) -> int:
        return self.normalized.shape[1]


class PositionEncoder:
    """Encodes (target, neighbors) neighborhoods into LUT bins.

    Parameters
    ----------
    rf_size:
        Receptive-field size ``n`` — total points per neighborhood
        including the target (the paper uses 4).
    bins:
        Quantization bins ``b`` per dimension (the paper uses 128).
    """

    def __init__(self, rf_size: int = 4, bins: int = 128, phase: float = 0.0):
        if rf_size < 2:
            raise ValueError("rf_size must be >= 2 (target + >=1 neighbor)")
        if bins < 2:
            raise ValueError("bins must be >= 2")
        if not 0.0 <= phase < 1.0:
            raise ValueError("phase must be in [0, 1)")
        self.rf_size = int(rf_size)
        self.bins = int(bins)
        #: fractional shift of the quantization grid (in bins).  Ensembles
        #: of phase-shifted LUTs average out quantization error — the 3-D
        #: counterpart of SR-LUT's rotation ensembling (see EnsembleLUT).
        self.phase = float(phase)

    # ------------------------------------------------------------------
    def encode(self, targets: np.ndarray, neighbors: np.ndarray) -> EncodedNeighborhood:
        """Encode ``m`` neighborhoods.

        Parameters
        ----------
        targets:
            ``(m, 3)`` target (interpolated) points.
        neighbors:
            ``(m, rf_size - 1, 3)`` neighbor coordinates.
        """
        targets = np.asarray(targets, dtype=np.float64)
        neighbors = np.asarray(neighbors, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[1] != 3:
            raise ValueError(f"targets must be (m, 3), got {targets.shape}")
        expected = (len(targets), self.rf_size - 1, 3)
        if neighbors.shape != expected:
            raise ValueError(f"neighbors must be {expected}, got {neighbors.shape}")

        rel = neighbors - targets[:, None, :]
        radius = np.linalg.norm(rel, axis=2).max(axis=1)
        # Degenerate neighborhoods (all neighbors coincide with the target)
        # get radius 1 so normalization is a no-op instead of a div-by-zero.
        safe_r = np.where(radius > 0, radius, 1.0)
        # row 0 is the target, which normalizes to the origin
        normalized = np.zeros((len(targets), self.rf_size, 3))
        np.divide(rel, safe_r[:, None, None], out=normalized[:, 1:, :])
        return EncodedNeighborhood(radius, normalized, self)

    def _quantize(self, normalized: np.ndarray) -> np.ndarray:
        """Eq. 4 on this encoder's (phase-shifted) grid: int16 bins."""
        q = np.floor(
            (normalized + 1.0) * 0.5 * (self.bins - 1) + self.phase
        ).astype(np.int16)
        np.clip(q, 0, self.bins - 1, out=q)
        return q

    # ------------------------------------------------------------------
    def bin_centers(self, bins: np.ndarray) -> np.ndarray:
        """Normalized coordinates of bin centers (inverse of Eq. 4).

        Used when distilling the network into the LUT: each stored entry is
        the network's output at the *representative* (center) configuration
        of its quantization cell.  Accounts for the grid ``phase``.
        """
        q = np.asarray(bins, dtype=np.float64)
        return (q - self.phase + 0.5) * 2.0 / (self.bins - 1) - 1.0

    def quantization_error_bound(self) -> float:
        """Max per-axis distance between a coordinate and its bin center."""
        return 1.0 / (self.bins - 1)

    # ------------------------------------------------------------------
    # Key packing: bins -> integer keys for hashing / sorting.
    # ------------------------------------------------------------------
    @property
    def effective_dims(self) -> int:
        """Entropy-carrying dimensions (neighbors only; target is constant)."""
        return (self.rf_size - 1) * 3

    @property
    def packable(self) -> bool:
        """Whether keys fit a uint64 (b^dims <= 2^64)."""
        return self.effective_dims * np.log2(self.bins) <= 64

    def pack_keys(self, bins: np.ndarray) -> np.ndarray:
        """Pack ``(m, rf, 3)`` bin arrays into ``(m,)`` uint64 keys.

        Only the neighbor dimensions enter the key (the target's bins are a
        known constant).  Raises when the key space exceeds 64 bits — use
        :meth:`pack_keys_bytes` for such configurations.
        """
        if not self.packable:
            raise ValueError(
                f"key space b={self.bins}, dims={self.effective_dims} exceeds "
                "uint64; use pack_keys_bytes"
            )
        nb = np.asarray(bins)[:, 1:, :].reshape(len(bins), -1).astype(np.uint64)
        key = np.zeros(len(bins), dtype=np.uint64)
        b = np.uint64(self.bins)
        for d in range(nb.shape[1]):
            key = key * b + nb[:, d]
        return key

    def pack_keys_bytes(self, bins: np.ndarray) -> list[bytes]:
        """Byte-string keys for configurations too wide for uint64."""
        nb = np.ascontiguousarray(
            np.asarray(bins)[:, 1:, :].reshape(len(bins), -1).astype(np.int16)
        )
        return [row.tobytes() for row in nb]

    # ------------------------------------------------------------------
    # Coarse per-point codes (the paper's Table-1 indexing).
    # ------------------------------------------------------------------
    @property
    def point_grid(self) -> int:
        """Cells per axis of the coarse per-point code grid.

        The paper's Table 1 counts ``b^n`` entries — **one** code per
        receptive-field point, not one per coordinate.  A ``b``-way
        per-point code is a 3-D grid with ``g = floor(b^(1/3))`` cells per
        axis (g=5 for b=128, so 125 of the 128 code values are used).
        """
        return max(2, int(np.floor(self.bins ** (1.0 / 3.0))))

    def point_codes(self, normalized: np.ndarray) -> np.ndarray:
        """Coarse per-point codes ∈ [0, g³) for ``(m, rf, 3)`` coords."""
        g = self.point_grid
        q = np.floor((np.asarray(normalized) + 1.0) * 0.5 * g).astype(np.int64)
        np.clip(q, 0, g - 1, out=q)
        return (q[..., 0] * g + q[..., 1]) * g + q[..., 2]

    def pack_keys_coarse(self, normalized: np.ndarray) -> np.ndarray:
        """Pack neighbor point-codes into uint64 keys (space ``(g³)^(n-1)``).

        The target point's code is constant (it sits at the origin) and is
        excluded, exactly as in :meth:`pack_keys`.
        """
        codes = self.point_codes(np.asarray(normalized)[:, 1:]).astype(np.uint64)
        base = np.uint64(self.point_grid ** 3)
        key = np.zeros(len(codes), dtype=np.uint64)
        for d in range(codes.shape[1]):
            key = key * base + codes[:, d]
        return key

    def coarse_cell_centers(self, keys: np.ndarray) -> np.ndarray:
        """Normalized neighbor coordinates at the center of each coarse cell.

        Returns ``(m, (rf-1)·3)`` coordinates — the representative inputs
        used to distill the network into a coarse LUT.
        """
        g = self.point_grid
        base = np.uint64(g ** 3)
        keys = np.asarray(keys, dtype=np.uint64)
        n_nb = self.rf_size - 1
        out = np.empty((len(keys), n_nb, 3))
        rem = keys.copy()
        for d in range(n_nb - 1, -1, -1):
            code = (rem % base).astype(np.int64)
            rem //= base
            qz = code % g
            qy = (code // g) % g
            qx = code // (g * g)
            grid = np.stack([qx, qy, qz], axis=1)
            out[:, d, :] = (grid + 0.5) * 2.0 / g - 1.0
        return out.reshape(len(keys), -1)
