"""Fault damage: a faulted fleet run measured against its fault-free twin.

A fault's damage is what the run lost against the same run without the
fault, not against its own earlier health: diurnal load, end-of-run drain
and the control plane's own actions happen in both runs, so they cancel.
:func:`fault_damage` folds both runs' chunks onto one fixed grid of
``DAMAGE_GRID_S`` cells by landing instant, scores each cell's health
(mean chunk quality minus ``HEALTH_STALL_WEIGHT`` x stall), and reads the
dip and the recovery time off the per-cell difference, twin minus faulted.
A fault that moves no byte leaves the two runs equal and reads
``(0.0, 0.0)`` exactly.
"""

from __future__ import annotations

import math

__all__ = ["fault_damage"]

#: stall weight in the health signal — the default
#: :class:`~repro.metrics.qoe.QoEWeights` gamma, so "health" tracks the
#: same trade-off the QoE report scores
HEALTH_STALL_WEIGHT = 2.0

#: virtual seconds per grid cell both runs fold onto (``fleet-chaos``'s
#: control interval)
DAMAGE_GRID_S = 5.0

#: a cell within this of the twin's health counts as recovered
RECOVERY_TOLERANCE = 0.1


def fault_damage(faulted, twin, onset: float, sessions) -> tuple[float, float]:
    """``(dip, time_to_recover_s)`` of ``faulted`` against ``twin``.

    ``faulted`` and ``twin`` are fleet results of the same population and
    configuration with and without the faults; ``onset`` is the first
    fault's start; ``sessions`` are the session ids to fold (all of them,
    or one fault domain's audience).  An id the twin lacks (a flash
    crowd's viewers, whose twin is the population without them) folds
    from the faulted run alone.

    Only cells both runs land a chunk in, from the one holding ``onset``
    on, are compared.  The dip is the largest gap; the recovery time runs
    from ``onset`` to the end of the first cell, at or after the deepest,
    whose gap is back within ``RECOVERY_TOLERANCE`` — ``math.inf`` if none
    is, ``0.0`` if the dip itself is within tolerance.
    """
    if not 0.0 <= onset < math.inf:
        raise ValueError(f"onset must be finite and non-negative, got {onset!r}")
    ids = list(sessions)
    hit = _cell_health(faulted, ids)
    ref = _cell_health(twin, [sid for sid in ids if sid < len(twin.sessions)])
    first = math.floor(onset / DAMAGE_GRID_S)
    cells = sorted(k for k in hit.keys() & ref.keys() if k >= first)
    gaps = [ref[k] - hit[k] for k in cells]
    deepest = max(gaps, default=0.0)
    dip = max(0.0, deepest)
    if dip <= RECOVERY_TOLERANCE:
        return dip, 0.0
    low = gaps.index(deepest)
    for k, gap in zip(cells[low:], gaps[low:]):
        if gap <= RECOVERY_TOLERANCE:
            return dip, (k + 1) * DAMAGE_GRID_S - onset
    return dip, math.inf


def _cell_health(result, ids) -> dict[int, float]:
    """Grid cell -> health over the chunks sessions ``ids`` of ``result``
    landed in it, summed in session id then chunk order."""
    cells: dict[int, list] = {}
    for sid in ids:
        r = result.sessions[sid]
        for rec, t in zip(r.records, r.landed):
            acc = cells.setdefault(math.floor(t / DAMAGE_GRID_S), [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += rec.quality
            acc[2] += rec.stall
    return {
        k: (q - HEALTH_STALL_WEIGHT * stall) / n
        for k, (n, q, stall) in cells.items()
    }
