"""Position encoding for 3-D LUT indexing (paper §4.2.1, Eqs. 3–4).

The encoding turns a continuous local neighborhood into a discrete LUT key
in three steps:

* **input** — the target (interpolated) point plus its ``n-1`` nearest
  neighbors, as raw XYZ;
* **normalize** (Eq. 3) — coordinates relative to the target point, scaled
  by the neighborhood radius ``R`` so everything lands in ``[-1, 1]^3``;
* **quantize and pack** — each neighbour coordinate snaps to a cell and
  the cell indices become the digits of one uint64 key.

The paper describes the index twice, and a table is told once, at
construction, which of the two **keyings** it holds:

* *Eq. 4 keying* — ``q = floor((n + 1)/2 · (b - 1))``: one of ``b`` bins
  per coordinate, key space ``b^{(n-1)·3}``;
* *per-point keying* — Table 1 sizes the table at ``b^n`` entries, one
  ``b``-way code per receptive-field point: each neighbour snaps to a
  ``g×g×g`` cell with ``g³ <= b``, key space ``(g³)^{n-1}``.  This is the
  keying the client runs, because real content covers that space.

The target point always normalizes to the origin and therefore quantizes to
a constant; it carries no entropy and is left out of the key.

Offsets predicted in normalized space are scaled back by ``R`` on apply.

:meth:`PositionEncoder.encode` does the first two steps and
:meth:`PositionEncoder.keys` the third, under either keying.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["PositionEncoder", "EncodedNeighborhood"]


def check_count(name: str, value, minimum: int) -> int:
    """``value`` if it is an integer (``bool`` excluded) >= ``minimum``.

    A structural size such as a receptive field or a bin count truncates
    silently through ``int()``: ``4.9`` would become ``4``, ``True`` ``1``.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or not value >= minimum
    ):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


class EncodedNeighborhood:
    """Normalized neighborhoods plus the state needed to undo normalization.

    Attributes
    ----------
    radius:
        ``(m,)`` neighborhood radii ``R`` (Eq. 3 denominators).
    normalized:
        ``(m, rf, 3)`` float coordinates before quantization; row order is
        [target, neighbor_1, ..., neighbor_{rf-1}] as in the paper.  Tables
        key on it (:meth:`PositionEncoder.keys`) and NN refinement consumes
        it.
    """

    def __init__(self, radius: np.ndarray, normalized: np.ndarray):
        self.radius = radius
        self.normalized = normalized


class PositionEncoder:
    """Encodes (target, neighbors) neighborhoods into LUT keys.

    Parameters
    ----------
    rf_size:
        Receptive-field size ``n`` — total points per neighborhood
        including the target (the paper uses 4).
    bins:
        Quantization bins ``b`` per dimension (the paper uses 128).
    """

    def __init__(self, rf_size: int = 4, bins: int = 128, phase: float = 0.0):
        # rf_size counts the target plus at least one neighbour
        self.rf_size = check_count("rf_size", rf_size, 2)
        self.bins = check_count("bins", bins, 2)
        if not 0.0 <= phase < 1.0:
            raise ValueError("phase must be in [0, 1)")
        #: fractional shift of the quantization grid (in cells).  Ensembles
        #: of phase-shifted LUTs average out quantization error — the 3-D
        #: counterpart of SR-LUT's rotation ensembling (see EnsembleLUT).
        self.phase = float(phase)

    # ------------------------------------------------------------------
    def encode(
        self,
        targets: np.ndarray,
        neighbors: np.ndarray,
        radius: np.ndarray | None = None,
    ) -> EncodedNeighborhood:
        """Encode ``m`` neighborhoods.

        Parameters
        ----------
        targets:
            ``(m, 3)`` target (interpolated) points.
        neighbors:
            ``(m, rf_size - 1, 3)`` neighbor coordinates.
        radius:
            ``(m,)`` Eq. 3 radii ``R`` when the caller already holds them —
            ``merge_and_prune``'s last distance column is exactly this value
            for the neighbours it returned.  Computed here when omitted, as
            ``sqrt((dx² + dy²) + dz²)`` maximised over the neighbours: the
            prune's sum in the prune's order, so the two agree bit for bit.
        """
        targets = np.asarray(targets, dtype=np.float64)
        neighbors = np.asarray(neighbors, dtype=np.float64)
        if targets.ndim != 2 or targets.shape[1] != 3:
            raise ValueError(f"targets must be (m, 3), got {targets.shape}")
        m = len(targets)
        expected = (m, self.rf_size - 1, 3)
        if neighbors.shape != expected:
            raise ValueError(f"neighbors must be {expected}, got {neighbors.shape}")

        rel = neighbors - targets[:, None, :]
        if radius is None:
            d2 = rel[..., 0] * rel[..., 0]
            d2 += rel[..., 1] * rel[..., 1]
            d2 += rel[..., 2] * rel[..., 2]
            radius = np.sqrt(d2.max(axis=1))
        else:
            radius = np.asarray(radius, dtype=np.float64)
            if radius.shape != (m,):
                raise ValueError(f"radius must be ({m},), got {radius.shape}")
            bad = ~((radius >= 0) & (radius < np.inf))  # NaN fails both
            if bad.any():
                row = int(np.argmax(bad))
                raise ValueError(
                    f"radius row {row} is {radius[row]}; radii must be finite and >= 0"
                )
        # Degenerate neighborhoods (all neighbors coincide with the target)
        # get radius 1 so normalization is a no-op instead of a div-by-zero.
        safe_r = np.where(radius > 0, radius, 1.0)
        # row 0 is the target, which normalizes to the origin
        normalized = np.zeros((len(targets), self.rf_size, 3))
        np.divide(rel, safe_r[:, None, None], out=normalized[:, 1:, :])
        return EncodedNeighborhood(radius, normalized)

    # ------------------------------------------------------------------
    # Keying: normalized neighbourhood -> uint64 table key, and back.
    # ------------------------------------------------------------------
    @property
    def effective_dims(self) -> int:
        """Entropy-carrying dimensions (neighbors only; target is constant)."""
        return (self.rf_size - 1) * 3

    @property
    def point_grid(self) -> int:
        """Cells per axis ``g`` of the per-point code grid.

        The paper's Table 1 counts ``b^n`` entries — **one** code per
        receptive-field point, not one per coordinate.  A ``b``-way
        per-point code is a 3-D grid with the largest ``g`` such that
        ``g³ <= b`` cells per axis (g=5 for b=128, so 125 of the 128 code
        values are used; g=4 for b=64).
        """
        g = round(self.bins ** (1.0 / 3.0))
        if g ** 3 > self.bins:
            g -= 1
        return max(2, g)

    def _grid(self, per_point: bool) -> tuple[int, int]:
        """``(cells spanning [-1, 1], digit radix)`` of one axis of a keying.

        Eq. 4 spreads ``b - 1`` cells over the range and keeps bin ``b - 1``
        for the coordinate ``+1`` itself; the per-point grid has ``g``.
        """
        if per_point:
            return self.point_grid, self.point_grid
        return self.bins - 1, self.bins

    def _quantize(self, normalized: np.ndarray, per_point: bool) -> np.ndarray:
        """Cell index per coordinate on this encoder's (phase-shifted) grid,
        as whole-valued floats in ``[0, radix)``; Eq. 4 when not per-point."""
        cells, radix = self._grid(per_point)
        q = np.floor((normalized + 1.0) * 0.5 * cells + self.phase)
        return np.clip(q, 0, radix - 1, out=q)

    def key_space(self, *, per_point: bool) -> int:
        """Distinct keys of a keying: ``b^((n-1)·3)`` or ``(g³)^(n-1)``."""
        _, radix = self._grid(per_point)
        return radix ** self.effective_dims

    def keys(self, normalized: np.ndarray, *, per_point: bool) -> np.ndarray:
        """``(m,)`` uint64 keys of ``(m, rf, 3)`` normalized neighbourhoods.

        A key is the ``(rf-1)·3`` neighbour cell indices as digits of one
        number, first neighbour's x most significant, in radix ``b`` (Eq. 4
        keying: one bin per coordinate) or ``g`` (per-point keying: three
        digits make one of Table 1's ``g³``-way point codes).  The target
        row is the origin by construction and is not coded.  Wraps silently
        when :meth:`key_space` exceeds 2^64 — ``HashedLUT`` refuses such an
        encoder at construction.

        Raises ``ValueError`` unless ``normalized`` is finite and
        ``(m, rf_size, 3)``, naming the first non-finite row.
        """
        _, radix = self._grid(per_point)
        normalized = self._neighborhoods(normalized)
        digits = self._quantize(normalized[:, 1:], per_point)
        return _pack(digits.reshape(len(digits), self.effective_dims), radix)

    def _neighborhoods(self, normalized: np.ndarray) -> np.ndarray:
        """``normalized`` as a finite ``(m, rf_size, 3)`` array;
        ``ValueError`` naming the first bad row.

        A key is only this encoder's for that shape — a ``(m, rf-1, 3)`` or
        ``(m, rf, 2)`` array packs to some other neighbourhood's key — and
        a NaN or infinite coordinate casts to an arbitrary uint64 digit with
        at most a ``RuntimeWarning``.
        """
        a = np.asarray(normalized)
        if a.ndim != 3 or a.shape[1:] != (self.rf_size, 3):
            raise ValueError(
                f"normalized must be (m, {self.rf_size}, 3), got {a.shape}"
            )
        finite = np.isfinite(a)
        if not finite.all():
            row = int(np.argmin(finite.reshape(len(a), -1).all(axis=1)))
            raise ValueError(f"normalized row {row} is not finite: {a[row].tolist()}")
        return a

    def cell_centers(self, keys: np.ndarray, *, per_point: bool) -> np.ndarray:
        """``(m, (rf-1)·3)`` normalized neighbour coordinates at the centre
        of each key's cell (inverse of :meth:`keys`).

        Used when distilling the network into a table: each stored entry is
        the network's output at the *representative* configuration of its
        cell.  Accounts for the grid ``phase``.
        """
        cells, radix = self._grid(per_point)
        digits = _unpack(np.asarray(keys, dtype=np.uint64), radix, self.effective_dims)
        return (digits - self.phase + 0.5) * 2.0 / cells - 1.0


def _place_values(radix: int, n_digits: int) -> np.ndarray:
    return np.uint64(radix) ** np.arange(n_digits - 1, -1, -1, dtype=np.uint64)


def _pack(digits: np.ndarray, radix: int) -> np.ndarray:
    """``(m, d)`` digits in ``[0, radix)`` → ``(m,)`` uint64, first digit
    most significant."""
    return digits.astype(np.uint64) @ _place_values(radix, digits.shape[1])


def _unpack(keys: np.ndarray, radix: int, n_digits: int) -> np.ndarray:
    """Inverse of :func:`_pack`: ``(m,)`` uint64 → ``(m, n_digits)``."""
    return keys[:, None] // _place_values(radix, n_digits) % np.uint64(radix)
