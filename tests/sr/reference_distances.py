"""The ``np.linalg.norm`` formulas production replaced — test oracles.

``reference_radius`` is the body ``PositionEncoder.encode`` used for Eq. 3's
``R`` before it took the radius from ``merge_and_prune`` (or summed the
squares per axis itself); ``reference_nearer_parent`` is the choice
``colorize_by_parent`` made before it summed per axis from contiguous
columns.  Both are copied verbatim and import nothing from ``repro``.
"""

from __future__ import annotations

import numpy as np


def reference_radius(targets, neighbors):
    rel = neighbors - targets[:, None, :]
    return np.linalg.norm(rel, axis=2).max(axis=1)


def reference_nearer_parent(source_positions, interp):
    new_pos = interp.new_positions
    pa, pb = interp.parent_a, interp.parent_b
    da = np.linalg.norm(new_pos - source_positions[pa], axis=1)
    db = np.linalg.norm(new_pos - source_positions[pb], axis=1)
    return np.where(da <= db, pa, pb)
