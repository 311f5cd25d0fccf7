"""A fleet past 10k viewers completes in one process (nightly lane).

`bench/`'s fleet workloads stop at a few hundred viewers.  This check
judges no wall time: it runs 10,000 diurnal viewers over a 16-edge CDN
(one :class:`~repro.experiments.Scenario` row's population and topology,
with per-edge SR caches) and asserts that every session reports.  Every performance number lives in ``bench/`` (see
``bench/README.md``).
"""

from __future__ import annotations

import pytest

from repro.experiments import SMOKE, Scenario
from repro.streaming import simulate_fleet


@pytest.mark.slow
def test_ten_thousand_viewers_complete():
    row = Scenario(10_000, arrivals="diurnal", edges=16)
    result = simulate_fleet(
        row.population(SMOKE), topology=row.topology(SMOKE),
        sr_cache="per-edge",
    )
    assert result.report.n_sessions == 10_000
    assert all(r is not None for r in result.sessions)
