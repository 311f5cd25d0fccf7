"""Refinement look-up tables (paper §4.2).

The LUT maps a quantized neighborhood configuration to a 3-D refinement
offset in normalized space (Eq. 6), storing float16 values (Eq. 7).  Two
storage strategies are provided:

* :class:`DenseLUT` — literally materializes every entry, exactly as the
  paper's memory model (Table 1) counts them.  Only feasible for small
  ``(rf, bins)``; used for the memory/quality trade-off ablation.
* :class:`HashedLUT` — a sparse sorted-key table over the configurations
  that actually occur.  Captured point clouds are surface samples, so the
  occupied fraction of the ``b^{(n-1)·3}`` key space is vanishingly small;
  the paper's 1.6 GB figure for (n=4, b=128) is itself far below the
  literal dense count, implying the authors' artifact also stores a reduced
  space (see DESIGN.md).  Lookups are ``O(log m)`` vectorized
  ``searchsorted`` — still orders of magnitude cheaper than MLP inference.

Both are distilled from a trained refinement network by evaluating it at
bin-center configurations (:func:`build_lut`).  Misses in the hashed table
fall back (configurable) to the nearest populated entry along the sorted
key axis, to zero offset, or to live network inference with memoization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.mlp import MLP
from .encoding import PositionEncoder

__all__ = [
    "lut_entries",
    "lut_memory_bytes",
    "lut_memory_table",
    "DenseLUT",
    "HashedLUT",
    "EnsembleLUT",
    "build_lut",
]


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
    implementation (the paper's included) must index a reduced space; see
    DESIGN.md and :class:`HashedLUT`.
    """
    if rf_size < 1 or bins < 1:
        raise ValueError("rf_size and bins must be positive")
    return bins ** (rf_size * 3)


def lut_memory_bytes(rf_size: int, bins: int, bytes_per_offset: int = 2) -> int:
    """Storage for all Table-1 entry slots at ``bytes_per_offset`` each (Eq. 7)."""
    return lut_entries(rf_size, bins) * bytes_per_offset


def lut_memory_table(
    rf_sizes: tuple[int, ...] = (3, 4, 5), bin_counts: tuple[int, ...] = (128, 64)
) -> list[dict]:
    """Reproduce paper Table 1 rows: (n, b, entries, bytes)."""
    rows = []
    for rf in rf_sizes:
        for b in bin_counts:
            rows.append(
                {
                    "rf_size": rf,
                    "bins": b,
                    "entries": lut_entries(rf, b),
                    "bytes": lut_memory_bytes(rf, b),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# LUT implementations.
# ---------------------------------------------------------------------------

class BaseLUT:
    """Common interface: vectorized offset lookup for encoded neighborhoods."""

    encoder: PositionEncoder

    def lookup(self, bins: np.ndarray) -> np.ndarray:
        """Return ``(m, 3)`` float offsets (normalized space) for bin arrays."""
        raise NotImplementedError

    def memory_bytes(self) -> int:
        """Actual bytes held by this table's storage arrays."""
        raise NotImplementedError


class DenseLUT(BaseLUT):
    """Fully materialized LUT over the effective (neighbor) key space.

    The target point's bins are constant (it normalizes to the origin), so
    the dense array covers ``b^{(n-1)·3}`` rows of 3 float16 offsets.  A
    guard refuses configurations above ``max_bytes`` — building the paper's
    literal (n=4, b=128) dense table is physically impossible, which is the
    point of Table 1.
    """

    def __init__(
        self,
        encoder: PositionEncoder,
        max_bytes: int = 512 * 1024 * 1024,
    ):
        self.encoder = encoder
        dims = encoder.effective_dims
        rows = encoder.bins ** dims
        nbytes = rows * 3 * 2
        if nbytes > max_bytes:
            raise MemoryError(
                f"dense LUT needs {nbytes} bytes "
                f"(b={encoder.bins}, dims={dims}); limit is {max_bytes}"
            )
        self._table = np.zeros((rows, 3), dtype=np.float16)
        self._filled = np.zeros(rows, dtype=bool)

    def _flat_index(self, bins: np.ndarray) -> np.ndarray:
        nb = np.asarray(bins)[:, 1:, :].reshape(len(bins), -1).astype(np.int64)
        idx = np.zeros(len(bins), dtype=np.int64)
        for d in range(nb.shape[1]):
            idx = idx * self.encoder.bins + nb[:, d]
        return idx

    def fill(self, net: MLP, batch: int = 8192) -> None:
        """Distill ``net`` into every entry (Eq. 6).

        Entry values are the network evaluated at the bin-center
        configuration of each cell.
        """
        dims = self.encoder.effective_dims
        b = self.encoder.bins
        rows = len(self._table)
        # Enumerate all neighbor-bin combinations in row-major order.
        for start in range(0, rows, batch):
            stop = min(start + batch, rows)
            flat = np.arange(start, stop, dtype=np.int64)
            digits = np.empty((len(flat), dims), dtype=np.int64)
            rem = flat.copy()
            for d in range(dims - 1, -1, -1):
                digits[:, d] = rem % b
                rem //= b
            centers = self.encoder.bin_centers(digits)
            target = np.zeros((len(flat), 3))
            x = np.concatenate([target, centers], axis=1)
            self._table[start:stop] = net.forward(x).astype(np.float16)
        self._filled[:] = True

    def set_entries(self, bins: np.ndarray, offsets: np.ndarray) -> None:
        """Write specific entries (used by tests and incremental builds)."""
        idx = self._flat_index(bins)
        self._table[idx] = np.asarray(offsets, dtype=np.float16)
        self._filled[idx] = True

    def lookup(self, bins: np.ndarray) -> np.ndarray:
        idx = self._flat_index(bins)
        return self._table[idx].astype(np.float64)

    def memory_bytes(self) -> int:
        return int(self._table.nbytes)


@dataclass
class LUTStats:
    """Hit/miss accounting for sparse lookups."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0


class HashedLUT(BaseLUT):
    """Sparse LUT over occupied configurations (sorted-key + searchsorted).

    Parameters
    ----------
    encoder:
        The :class:`PositionEncoder` whose keys this table is built for.
    fallback:
        Miss policy: ``"nearest"`` (nearest populated key in sorted order —
        neighboring keys share their most-significant bins, i.e. similar
        coarse geometry), ``"zero"`` (no refinement), or ``"net"`` (live
        network inference, memoized into the table).
    net:
        Required for ``fallback="net"``.
    """

    def __init__(
        self,
        encoder: PositionEncoder,
        fallback: str = "nearest",
        net: MLP | None = None,
    ):
        if fallback not in ("nearest", "zero", "net"):
            raise ValueError(f"unknown fallback {fallback!r}")
        if fallback == "net" and net is None:
            raise ValueError("fallback='net' requires a network")
        if not encoder.packable:
            raise ValueError(
                "HashedLUT requires uint64-packable keys; "
                f"b={encoder.bins}, rf={encoder.rf_size} exceeds 64 bits"
            )
        self.encoder = encoder
        self.fallback = fallback
        self.net = net
        self._keys = np.zeros(0, dtype=np.uint64)
        self._values = np.zeros((0, 3), dtype=np.float16)
        self.stats = LUTStats()

    # ------------------------------------------------------------------
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
        # keep last occurrence per key
        order = np.argsort(all_keys, kind="stable")
        sk, sv = all_keys[order], all_vals[order]
        last = np.r_[sk[1:] != sk[:-1], True]
        self._keys = sk[last]
        self._values = sv[last]

    def populate_from_network(self, keys: np.ndarray, net: MLP, batch: int = 8192) -> None:
        """Distill ``net`` at the bin centers of the given packed keys."""
        keys = np.unique(np.asarray(keys, dtype=np.uint64))
        dims = self.encoder.effective_dims
        b = np.uint64(self.encoder.bins)
        for start in range(0, len(keys), batch):
            chunk = keys[start : start + batch]
            digits = np.empty((len(chunk), dims), dtype=np.int64)
            rem = chunk.copy()
            for d in range(dims - 1, -1, -1):
                digits[:, d] = (rem % b).astype(np.int64)
                rem //= b
            centers = self.encoder.bin_centers(digits)
            x = np.concatenate([np.zeros((len(chunk), 3)), centers], axis=1)
            self.insert(chunk, net.forward(x))

    # ------------------------------------------------------------------
    def lookup(self, bins: np.ndarray) -> np.ndarray:
        keys = self.encoder.pack_keys(bins)
        m = len(keys)
        out = np.zeros((m, 3), dtype=np.float64)
        if self.n_entries == 0:
            self.stats.misses += m
            if self.fallback == "net":
                out = self._net_eval(bins)
                self._memoize(keys, out)
            return out
        pos = np.searchsorted(self._keys, keys)
        pos_clip = np.minimum(pos, self.n_entries - 1)
        hit = self._keys[pos_clip] == keys
        self.stats.hits += int(hit.sum())
        self.stats.misses += int(m - hit.sum())
        out[hit] = self._values[pos_clip[hit]].astype(np.float64)
        miss = ~hit
        if not miss.any():
            return out
        if self.fallback == "zero":
            pass  # offsets stay zero
        elif self.fallback == "nearest":
            # Closest populated key in integer-key space; keys share
            # most-significant digits with spatially similar coarse shapes.
            lo = np.clip(pos[miss] - 1, 0, self.n_entries - 1)
            hi = np.clip(pos[miss], 0, self.n_entries - 1)
            klo, khi = self._keys[lo], self._keys[hi]
            kq = keys[miss]
            pick_hi = (khi - kq) < (kq - klo)
            nearest = np.where(pick_hi, hi, lo)
            out[miss] = self._values[nearest].astype(np.float64)
        else:  # net
            vals = self._net_eval(bins[miss])
            out[miss] = vals
            self._memoize(keys[miss], vals)
        return out

    def _net_eval(self, bins: np.ndarray) -> np.ndarray:
        centers = self.encoder.bin_centers(
            np.asarray(bins)[:, 1:, :].reshape(len(bins), -1)
        )
        x = np.concatenate([np.zeros((len(bins), 3)), centers], axis=1)
        return self.net.forward(x)

    def _memoize(self, keys: np.ndarray, vals: np.ndarray) -> None:
        self.insert(keys, vals)

    def memory_bytes(self) -> int:
        return int(self._keys.nbytes + self._values.nbytes)

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Persist as npz — 'language- and platform-neutral', per the paper."""
        np.savez_compressed(
            path,
            keys=self._keys,
            values=self._values,
            rf_size=np.array(self.encoder.rf_size),
            bins=np.array(self.encoder.bins),
        )

    @classmethod
    def load(cls, path, fallback: str = "nearest", net: MLP | None = None) -> "HashedLUT":
        with np.load(path) as data:
            enc = PositionEncoder(int(data["rf_size"]), int(data["bins"]))
            lut = cls(enc, fallback=fallback, net=net)
            lut._keys = data["keys"].astype(np.uint64)
            lut._values = data["values"].astype(np.float16)
        return lut


class CoarseHashedLUT(BaseLUT):
    """Sparse LUT over the paper's **per-point** code space (Table 1).

    The fine :class:`HashedLUT` keys on every quantized coordinate —
    faithful to Eq. 4 but with a key space so large that unseen content
    almost always misses.  The paper's own Table 1 sizes the table at
    ``b^n`` entries: one scalar code per receptive-field point, i.e. each
    neighbor snaps to a coarse ``g×g×g`` cell (g=5 for b=128).  That space
    ((g³)^(n-1) ≈ 2M keys for RF=4) is small enough for real content to
    *cover*, which is what makes the LUT generalize across videos.

    Same storage/lookup machinery as :class:`HashedLUT`; keys come from
    :meth:`PositionEncoder.pack_keys_coarse` and lookups take normalized
    coordinates (exposed as :meth:`lookup_normalized`, which
    :class:`repro.sr.refine.LUTRefiner` prefers automatically).
    """

    def __init__(self, encoder: PositionEncoder, fallback: str = "nearest",
                 net: MLP | None = None):
        if fallback not in ("nearest", "zero", "net"):
            raise ValueError(f"unknown fallback {fallback!r}")
        if fallback == "net" and net is None:
            raise ValueError("fallback='net' requires a network")
        self.encoder = encoder
        self.fallback = fallback
        self.net = net
        self._keys = np.zeros(0, dtype=np.uint64)
        self._values = np.zeros((0, 3), dtype=np.float16)
        self.stats = LUTStats()

    @property
    def n_entries(self) -> int:
        return len(self._keys)

    # storage shared with HashedLUT
    insert = HashedLUT.insert
    memory_bytes = HashedLUT.memory_bytes

    def key_space(self) -> int:
        """Total possible keys ((g³)^(rf-1))."""
        return (self.encoder.point_grid ** 3) ** (self.encoder.rf_size - 1)

    def populate_from_network(self, keys: np.ndarray, net: MLP,
                              batch: int = 8192) -> None:
        """Distill ``net`` at coarse-cell centers of the given keys."""
        keys = np.unique(np.asarray(keys, dtype=np.uint64))
        for start in range(0, len(keys), batch):
            chunk = keys[start : start + batch]
            centers = self.encoder.coarse_cell_centers(chunk)
            x = np.concatenate([np.zeros((len(chunk), 3)), centers], axis=1)
            self.insert(chunk, net.forward(x))

    def lookup_normalized(self, normalized: np.ndarray) -> np.ndarray:
        """Offsets for ``(m, rf, 3)`` normalized neighborhoods.

        Only the ``rf - 1`` neighbour rows are coded (the target row is the
        origin by construction).  Under ``fallback="nearest"`` hits and
        misses take one path: each query picks the table row at or next to
        its sorted position — the hit, else whichever neighbouring key is
        closer — and the offsets come out of one gather.
        """
        keys = self.encoder.pack_keys_coarse(normalized)
        m = len(keys)
        if self.n_entries == 0:
            self.stats.misses += m
            out = np.zeros((m, 3), dtype=np.float64)
            if self.fallback == "net":
                out = self._net_eval(keys)
                self.insert(keys, out)
            return out
        pos = np.searchsorted(self._keys, keys)
        hi = np.minimum(pos, self.n_entries - 1)
        khi = self._keys[hi]
        hit = khi == keys
        n_hit = int(np.count_nonzero(hit))
        self.stats.hits += n_hit
        self.stats.misses += m - n_hit
        if self.fallback == "nearest":
            lo = np.maximum(pos, 1) - 1
            # uint64 differences wrap past either end of the table, which
            # makes the far side lose the comparison
            hi_is_closer = (khi - keys) < (keys - self._keys[lo])
            row = np.where(hit | hi_is_closer, hi, lo)
            return self._values[row].astype(np.float64)
        out = np.zeros((m, 3), dtype=np.float64)
        out[hit] = self._values[hi[hit]]
        if self.fallback == "net" and n_hit < m:
            miss = ~hit
            vals = self._net_eval(keys[miss])
            out[miss] = vals
            self.insert(keys[miss], vals)
        return out

    def _net_eval(self, keys: np.ndarray) -> np.ndarray:
        centers = self.encoder.coarse_cell_centers(keys)
        x = np.concatenate([np.zeros((len(keys), 3)), centers], axis=1)
        return self.net.forward(x)

    def lookup(self, bins: np.ndarray) -> np.ndarray:
        """Bin-based lookup is not meaningful for coarse keys."""
        raise NotImplementedError(
            "CoarseHashedLUT consumes normalized coordinates; "
            "use lookup_normalized (LUTRefiner does this automatically)"
        )

    # ------------------------------------------------------------------
    def save(self, path) -> None:
        np.savez_compressed(
            path,
            keys=self._keys,
            values=self._values,
            rf_size=np.array(self.encoder.rf_size),
            bins=np.array(self.encoder.bins),
            coarse=np.array(1),
        )

    @classmethod
    def load(cls, path, fallback: str = "nearest", net: MLP | None = None) -> "CoarseHashedLUT":
        with np.load(path) as data:
            enc = PositionEncoder(int(data["rf_size"]), int(data["bins"]))
            lut = cls(enc, fallback=fallback, net=net)
            lut._keys = data["keys"].astype(np.uint64)
            lut._values = data["values"].astype(np.float16)
        return lut


class EnsembleLUT(BaseLUT):
    """Multi-LUT fusion (paper §6 mentions 'multi-LUT fusion techniques').

    SR-LUT ensembles rotated quantizations of the same patch; the clean
    3-D counterpart is **phase-shifted grids** (axis permutation is a no-op
    here because permutation commutes with a per-axis-symmetric quantizer).
    Each member LUT is built from the same network but indexes a
    quantization grid shifted by a different fraction of a bin, so their
    quantization errors are decorrelated and the averaged offset is closer
    to the network's output than any single member.

    Construct with :meth:`build`, which derives the phase-shifted encoders
    and distills the network into every member.
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
        fallback: str = "nearest",
    ) -> "EnsembleLUT":
        """Distill ``net`` into ``n_members`` phase-shifted LUTs.

        ``training_normalized`` is the ``(m, rf, 3)`` normalized
        neighborhood array (e.g. re-encoded from the refinement dataset);
        each member quantizes it under its own grid phase.
        """
        if n_members < 1:
            raise ValueError("need at least one member")
        members = []
        for i in range(n_members):
            enc_i = PositionEncoder(
                rf_size=encoder.rf_size,
                bins=encoder.bins,
                phase=i / n_members,
            )
            lut = HashedLUT(enc_i, fallback=fallback)
            keys = enc_i.pack_keys(enc_i._quantize(training_normalized))
            lut.populate_from_network(keys, net)
            members.append(lut)
        return cls(members)

    def lookup(self, bins: np.ndarray) -> np.ndarray:
        """Single-grid lookup (uses the first member only).

        Prefer :meth:`lookup_normalized`, which is what fusion is for.
        """
        return self.members[0].lookup(bins)

    def lookup_normalized(self, normalized: np.ndarray) -> np.ndarray:
        """Fused lookup from ``(m, rf, 3)`` normalized coordinates."""
        normalized = np.asarray(normalized, dtype=np.float64)
        total = np.zeros((len(normalized), 3))
        for member in self.members:
            total += member.lookup(member.encoder._quantize(normalized))
        return total / len(self.members)

    def memory_bytes(self) -> int:
        return sum(m.memory_bytes() for m in self.members)


def build_lut(
    net: MLP,
    encoder: PositionEncoder,
    training_bins: np.ndarray,
    kind: str = "hashed",
    fallback: str = "nearest",
) -> BaseLUT:
    """Offline LUT construction from a trained refinement network.

    ``training_bins`` are encoded neighborhoods observed on the training
    video; the hashed table stores exactly the configurations the content
    distribution produces (plus fallback behaviour for novel ones), while
    the dense table ignores them and enumerates everything.
    """
    if kind == "dense":
        lut = DenseLUT(encoder)
        lut.fill(net)
        return lut
    if kind == "hashed":
        lut = HashedLUT(encoder, fallback=fallback, net=net if fallback == "net" else None)
        keys = encoder.pack_keys(training_bins)
        lut.populate_from_network(keys, net)
        return lut
    raise ValueError(f"unknown LUT kind {kind!r}")


def build_coarse_lut(
    net: MLP,
    encoder: PositionEncoder,
    training_normalized: np.ndarray,
    fallback: str = "nearest",
) -> CoarseHashedLUT:
    """Offline construction of the paper's Table-1-style coarse LUT.

    ``training_normalized`` is the ``(m, rf, 3)`` normalized neighborhood
    array observed on the training video (``RefinementDataset.X`` reshaped,
    or ``EncodedNeighborhood.normalized``).
    """
    lut = CoarseHashedLUT(
        encoder, fallback=fallback, net=net if fallback == "net" else None
    )
    keys = encoder.pack_keys_coarse(training_normalized)
    lut.populate_from_network(keys, net)
    return lut
