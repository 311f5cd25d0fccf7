"""The production scenario rows, pinned bit for bit.

Every ``fleet-chaos`` row (each fault kind, retry, hedging, the control
plane and the arrival autoscaler), every ``fleet-cdn`` variant on
diurnal joins and one row per registered ABR policy, at 40 viewers on a
12-s scale.  A row holds the run's whole :class:`FleetReport`, the
fault damage read against its twin, and a digest of what every session
watched; a planner, scheduler or session change that must not move a
fleet run keeps ``tests/golden/fleet_rows.json`` as it is.
"""

from dataclasses import asdict, replace

import pytest

from repro.experiments.common import SMOKE
from repro.experiments.fleet_cdn import cdn_rows
from repro.experiments.fleet_chaos import chaos_rows
from repro.experiments.scenario import Scenario, run_scenario
from repro.streaming.policies import available_policies

from ..golden import assert_golden, digest
from ..streaming.helpers import session_facts

SCALE = replace(SMOKE, stream_seconds=12)
N_SESSIONS = 40

#: table -> its ``(label, row)`` pairs; each table shares one twin memo
TABLES = {
    "chaos": [
        (name + ("+ctrl" if row.control else ""), row)
        for name, row in chaos_rows(N_SESSIONS)
    ],
    "cdn": [
        (f"{name}/{row.assignment}", row)
        for name, row in cdn_rows(N_SESSIONS, diurnal=True)
    ],
    "policies": [(p, Scenario(N_SESSIONS, abr=p)) for p in available_policies()],
}


@pytest.mark.golden
def test_scenario_rows_are_pinned():
    rows = []
    for table, labelled in TABLES.items():
        runs: dict = {}
        for label, row in labelled:
            report = run_scenario(row, SCALE, runs=runs)
            rows.append({
                "table": table, "row": label,
                **asdict(report.result.report),
                "damage": report.damage,
                "sessions": digest(
                    [session_facts(s) for s in report.result.sessions]
                ),
            })
    assert_golden("fleet_rows", rows, key=("table", "row"))
