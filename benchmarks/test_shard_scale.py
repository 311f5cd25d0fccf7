"""The two sharding claims `bench/` cannot express yet (nightly lane).

`bench/` runs every workload in one single-threaded subprocess, so the
process-parallel speed-up of :func:`~repro.streaming.shard_fleet` and a
run past 10k viewers have no workload there.  Until a ``benchmark`` PR
adds them, they are stated here once: a same-window ratio with its
per-pair spread, and a completion check that judges no wall time.
Every other performance number lives in ``bench/`` (see
``bench/README.md``).
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.experiments import SMOKE, make_cdn, make_population
from repro.streaming import shard_fleet

#: workers=4 must run the acceptance workload this many times faster
#: than workers=1 — a hardware-normalized ratio, judged only where four
#: processes can actually run in parallel.
SHARD_SPEEDUP_FLOOR = 2.0
SHARD_SPEEDUP_MIN_CPUS = 4


def _sharded_wall(workers: int) -> float:
    """Wall seconds of 2000 diurnal viewers over an 8-edge CDN."""
    sessions = make_population(SMOKE, 2000, diurnal=True)
    topology = make_cdn(SMOKE, 2000, n_edges=8)
    t0 = time.perf_counter()
    shard_fleet(sessions, topology=topology, workers=workers, sr_cache="per-edge")
    return time.perf_counter() - t0


@pytest.mark.slow
def test_four_workers_beat_one():
    """Median of three alternating same-window (w1, w4) pairs is ≥ 2x."""
    cpus = os.cpu_count() or 1
    if cpus < SHARD_SPEEDUP_MIN_CPUS:
        pytest.skip(f"{cpus} CPU(s) < {SHARD_SPEEDUP_MIN_CPUS}: no parallel speed-up to measure")
    ratios = []
    for order in ((1, 4), (4, 1), (1, 4)):
        wall = {workers: _sharded_wall(workers) for workers in order}
        ratios.append(wall[1] / wall[4])
    print("\nworkers=1 / workers=4 wall, per pair: "
          + ", ".join(f"{r:.2f}x" for r in ratios))
    assert statistics.median(ratios) >= SHARD_SPEEDUP_FLOOR, (
        f"sharding no longer scales: per-pair speed-ups {ratios} at 4 workers "
        f"(median floor {SHARD_SPEEDUP_FLOOR:g}x)"
    )


@pytest.mark.slow
def test_ten_thousand_viewers_complete():
    """10k viewers over a 16-edge CDN in 8 shards: every session reports."""
    sessions = make_population(SMOKE, 10_000, diurnal=True)
    topology = make_cdn(SMOKE, 10_000, n_edges=16)
    result = shard_fleet(sessions, topology=topology, workers=8, sr_cache="per-edge")
    assert result.report.n_sessions == 10_000
