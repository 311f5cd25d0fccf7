"""The refinement look-up table (paper §4.2).

The table maps a quantized neighbourhood configuration to a 3-D refinement
offset in normalized space (Eq. 6), stored as float16 (Eq. 7), distilled
offline from a trained refinement network by evaluating the network at the
centre of every cell the training content occupies.

The paper sizes the index twice: Eq. 5's text says ``b^(n·3)`` entries, one
of ``b`` bins per *coordinate* (Eq. 4), while Table 1's numbers follow
``b^n × 3`` float16 values, one ``b``-way code per receptive-field *point*
(:func:`lut_entries`).  These are two **keyings** of one table: a
:class:`HashedLUT` is told at construction which one it holds
(``per_point``), records it in its file, and asks
:class:`~repro.sr.encoding.PositionEncoder` for keys and cell centres under
it.

* *Eq. 4 keying* (:func:`build_lut`) tracks the network closely per hit,
  but its key space (``128^9`` at n=4) is one unseen content never hits.
* *Per-point keying* (:func:`build_coarse_lut`) snaps each neighbour to a
  ``g×g×g`` cell, ``g³ <= b`` — ``(5³)³ ≈ 2M`` keys at n=4/b=128, a space
  real content *covers*, which is what lets one Long Dress table refine all
  four videos (§7.1).  The client runs this one.

Captured point clouds are surface samples and occupy a vanishing fraction
of either key space, so storage is sparse: sorted uint64 keys and one
vectorized ``searchsorted`` per frame — ``O(log m)`` per point, orders of
magnitude cheaper than MLP inference.  A query whose key is not stored
takes the nearer stored key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.mlp import MLP
from .encoding import PositionEncoder

__all__ = [
    "lut_entries",
    "lut_entries_full",
    "lut_memory_bytes",
    "HashedLUT",
    "EnsembleLUT",
    "build_lut",
    "build_coarse_lut",
]

#: rows per network forward pass while distilling
_BATCH = 8192
#: bytes per stored offset in a dense table (Table 1's accounting)
BYTES_PER_OFFSET = 2
#: what :meth:`HashedLUT.save` writes and :meth:`HashedLUT.load` requires
_FILE_FIELDS = ("keys", "values", "rf_size", "bins", "phase", "per_point")


# ---------------------------------------------------------------------------
# Analytic memory model (paper Table 1, Eqs. 5 & 7).
# ---------------------------------------------------------------------------

def lut_entries(rf_size: int, bins: int) -> int:
    """Entry-slot count as the paper's **Table 1** computes it: ``b^n · 3``.

    The paper's Eq. 5 text says ``b^(n·3)``, but its Table 1 numbers (12 MB
    at n=3/b=128, 1.61 GB at n=4/b=128, 201 GB at n=5/b=128) follow
    ``b^n × 3`` float16 values — one quantized scalar code per
    receptive-field point indexing a table of 3-component offsets.  We
    reproduce the table; :func:`lut_entries_full` gives the Eq. 5 literal.
    """
    if rf_size < 1 or bins < 1:
        raise ValueError("rf_size and bins must be positive")
    return (bins ** rf_size) * 3


def lut_entries_full(rf_size: int, bins: int) -> int:
    """The Eq. 5 literal ``b^(n·3)``: full per-coordinate key space.

    Astronomically larger than Table 1's sizing — the gap is why any real
    implementation (the paper's included) must index a reduced space
    (:class:`HashedLUT`).
    """
    if rf_size < 1 or bins < 1:
        raise ValueError("rf_size and bins must be positive")
    return bins ** (rf_size * 3)


def lut_memory_bytes(rf_size: int, bins: int) -> int:
    """Storage for all Table-1 entry slots at ``BYTES_PER_OFFSET`` each (Eq. 7)."""
    return lut_entries(rf_size, bins) * BYTES_PER_OFFSET


@dataclass
class LUTStats:
    """Hit/miss accounting for sparse lookups.

    Counts the lookups made, one per queried neighbourhood.  Under
    :meth:`~repro.sr.pipeline.VolutUpsampler.upsample` that is one per
    *distinct* neighbourhood of a frame, not one per new point: rows that
    repeat a ``(parent_a, parent_b)`` pair are looked up once.
    """

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class HashedLUT:
    """Sparse table over occupied configurations (sorted keys + searchsorted).

    Parameters
    ----------
    encoder:
        The :class:`PositionEncoder` whose keys this table is built for.
    per_point:
        The keying — part of the data format, like ``rf_size`` and
        ``bins``: ``True`` for one ``g³``-way code per neighbour (Table 1),
        ``False`` for one of ``b`` bins per coordinate (Eq. 4).
    """

    def __init__(self, encoder: PositionEncoder, *, per_point: bool):
        if encoder.key_space(per_point=per_point) > 2 ** 64:
            raise ValueError(
                f"keys of rf_size={encoder.rf_size}, bins={encoder.bins}, "
                f"per_point={per_point} do not fit a uint64"
            )
        self.encoder = encoder
        self.per_point = per_point
        self._keys = np.zeros(0, dtype=np.uint64)
        self._values = np.zeros((0, 3), dtype=np.float16)
        self.stats = LUTStats()

    @property
    def n_entries(self) -> int:
        return len(self._keys)

    def insert(self, keys: np.ndarray, offsets: np.ndarray) -> None:
        """Merge (key, offset) pairs; later duplicates win."""
        keys = np.asarray(keys, dtype=np.uint64)
        offsets = np.asarray(offsets, dtype=np.float16)
        if len(keys) != len(offsets):
            raise ValueError("keys and offsets must align")
        all_keys = np.concatenate([self._keys, keys])
        all_vals = np.vstack([self._values, offsets])
        order = np.argsort(all_keys, kind="stable")
        sk, sv = all_keys[order], all_vals[order]
        last = np.r_[sk[1:] != sk[:-1], True]
        self._keys = sk[last]
        self._values = sv[last]

    def populate(self, normalized: np.ndarray, net: MLP) -> None:
        """Distill ``net`` at the cell centre of every configuration in
        ``normalized``, the training content's ``(m, rf, 3)`` array (Eq. 6)."""
        keys = np.unique(self.encoder.keys(normalized, per_point=self.per_point))
        for start in range(0, len(keys), _BATCH):
            chunk = keys[start : start + _BATCH]
            centers = self.encoder.cell_centers(chunk, per_point=self.per_point)
            x = np.concatenate([np.zeros((len(chunk), 3)), centers], axis=1)
            self.insert(chunk, net.forward(x))

    def lookup_normalized(self, normalized: np.ndarray) -> np.ndarray:
        """``(m, 3)`` offsets for ``(m, rf, 3)`` normalized neighbourhoods.

        Hits and misses take one path: each query picks the table row at or
        next to its sorted position — the hit, else whichever neighbouring
        key is closer (adjacent keys share their most significant digits,
        i.e. similar coarse geometry) — and the offsets come out of one
        gather.  An empty table answers zero.  ``ValueError`` unless
        ``normalized`` is finite and ``(m, rf_size, 3)``
        (:meth:`PositionEncoder.keys`); a refused query counts no lookup.
        """
        keys = self.encoder.keys(normalized, per_point=self.per_point)
        m = len(keys)
        if self.n_entries == 0:
            self.stats.misses += m
            return np.zeros((m, 3))
        # NumPy's binary search starts each query from the previous one's
        # bounds, so queries in key order take ≈ half the time of queries in
        # row order; the positions are the same
        order = keys.argsort()
        pos = np.empty(m, dtype=np.intp)
        pos[order] = np.searchsorted(self._keys, keys[order])
        hi = np.minimum(pos, self.n_entries - 1)
        khi = self._keys[hi]
        hit = khi == keys
        n_hit = int(np.count_nonzero(hit))
        self.stats.hits += n_hit
        self.stats.misses += m - n_hit
        lo = np.maximum(pos, 1) - 1
        # uint64 differences wrap past either end of the table, which
        # makes the far side lose the comparison
        hi_is_closer = (khi - keys) < (keys - self._keys[lo])
        row = np.where(hit | hi_is_closer, hi, lo)
        return np.take(self._values, row, axis=0).astype(np.float64)

    def memory_bytes(self) -> int:
        """Bytes held by this table's storage arrays."""
        return int(self._keys.nbytes + self._values.nbytes)

    def save(self, path) -> None:
        """Persist as npz — 'language- and platform-neutral', per the paper."""
        np.savez_compressed(
            path,
            keys=self._keys,
            values=self._values,
            rf_size=np.array(self.encoder.rf_size),
            bins=np.array(self.encoder.bins),
            phase=np.array(self.encoder.phase),
            per_point=np.array(self.per_point),
        )

    @classmethod
    def load(cls, path) -> "HashedLUT":
        """Read a table written by :meth:`save`; ``ValueError`` names the
        field of a file that cannot be one."""
        with np.load(path) as data:
            missing = [f for f in _FILE_FIELDS if f not in data.files]
            if missing:
                raise ValueError(f"{path}: not a saved table, no {missing} field")
            encoder = PositionEncoder(
                int(data["rf_size"]), int(data["bins"]), float(data["phase"])
            )
            lut = cls(encoder, per_point=bool(data["per_point"]))
            keys = data["keys"].astype(np.uint64)
            values = data["values"].astype(np.float16)
        if values.shape != (len(keys), 3):
            raise ValueError(f"{path}: values is {values.shape}, not {(len(keys), 3)}")
        # searchsorted over unsorted keys returns wrong rows without complaint
        if not (keys[1:] > keys[:-1]).all():
            raise ValueError(f"{path}: keys is not strictly increasing")
        if len(keys) and int(keys[-1]) >= encoder.key_space(per_point=lut.per_point):
            raise ValueError(f"{path}: keys reaches past the key space")
        lut._keys, lut._values = keys, values
        return lut


class EnsembleLUT:
    """Multi-LUT fusion (paper §6 mentions 'multi-LUT fusion techniques').

    SR-LUT ensembles rotated quantizations of the same patch; the clean
    3-D counterpart is **phase-shifted grids** (axis permutation is a no-op
    here because permutation commutes with a per-axis-symmetric quantizer).
    Each member is an Eq. 4-keyed :class:`HashedLUT` built from the same
    network over a quantization grid shifted by a different fraction of a
    bin, so their quantization errors are decorrelated and the averaged
    offset is closer to the network's output than any single member.
    """

    def __init__(self, members: list[HashedLUT]):
        if not members:
            raise ValueError("need at least one member LUT")
        base = members[0].encoder
        for m in members:
            if (m.encoder.rf_size, m.encoder.bins) != (base.rf_size, base.bins):
                raise ValueError("members must share rf_size and bins")
        self.members = members
        self.encoder = base

    @classmethod
    def build(
        cls,
        net: MLP,
        encoder: PositionEncoder,
        training_normalized: np.ndarray,
        n_members: int = 3,
    ) -> "EnsembleLUT":
        """Derive ``n_members`` phase-shifted encoders and distill ``net``
        into a table over each one's quantization of ``training_normalized``."""
        if n_members < 1:
            raise ValueError("need at least one member")
        grids = [
            PositionEncoder(encoder.rf_size, encoder.bins, phase=i / n_members)
            for i in range(n_members)
        ]
        return cls([build_lut(net, grid, training_normalized) for grid in grids])

    def lookup_normalized(self, normalized: np.ndarray) -> np.ndarray:
        """Mean of the members' offsets for ``(m, rf, 3)`` neighbourhoods;
        each member refuses what :meth:`HashedLUT.lookup_normalized` does."""
        offsets = [m.lookup_normalized(normalized) for m in self.members]
        return sum(offsets) / len(offsets)

    def memory_bytes(self) -> int:
        return sum(m.memory_bytes() for m in self.members)


def build_lut(
    net: MLP, encoder: PositionEncoder, training_normalized: np.ndarray
) -> HashedLUT:
    """Offline construction of an Eq. 4-keyed table.

    ``training_normalized`` is the ``(m, rf, 3)`` normalized neighborhood
    array observed on the training video (``RefinementDataset.X`` reshaped,
    or ``EncodedNeighborhood.normalized``); the table stores exactly the
    configurations that content produces.
    """
    lut = HashedLUT(encoder, per_point=False)
    lut.populate(training_normalized, net)
    return lut


def build_coarse_lut(
    net: MLP, encoder: PositionEncoder, training_normalized: np.ndarray
) -> HashedLUT:
    """:func:`build_lut` under the per-point keying — the table the client
    runs."""
    lut = HashedLUT(encoder, per_point=True)
    lut.populate(training_normalized, net)
    return lut
