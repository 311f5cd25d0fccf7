"""Examples are runnable end to end (subprocess smoke tests).

Each runs with the arguments its entry in the reach map's
:data:`~tests.reach_map.ENTRY_POINTS` gives it, so the map counts what
these tests run."""

import os
import re
import subprocess
from pathlib import Path

from tests.reach_map import ENTRY_POINTS, ROOT, SRC, command


def run(script: str, tmp: Path) -> subprocess.CompletedProcess:
    """Run ``examples/<script>`` as its entry point does; ``{tmp}`` is ``tmp``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        command(ENTRY_POINTS[f"examples/{script}"], str(tmp)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


class TestExamples:
    def test_quickstart(self, tmp_path):
        proc = run("quickstart.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "chamfer (VoLUT output)" in proc.stdout
        assert "per-stage latency" in proc.stdout

    def test_streaming_session(self, tmp_path):
        proc = run("streaming_session.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "volut" in proc.stdout
        assert "stable 50 Mbps" in proc.stdout

    def test_reproduce_paper_single(self, tmp_path):
        proc = run("reproduce_paper.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Table 1: LUT memory" in proc.stdout

    def test_fleet_demo(self, tmp_path):
        trace = tmp_path / "fleet-trace.json"
        proc = run("fleet_demo.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "congested" in proc.stdout
        assert "cache hit" in proc.stdout
        assert "phase breakdown" in proc.stdout
        assert "scheduler" in proc.stdout
        assert trace.exists()
        assert '"traceEvents"' in trace.read_text()[:100]

    def test_chaos_demo(self, tmp_path):
        trace = tmp_path / "chaos-trace.jsonl"
        proc = run("chaos_demo.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "edge-outage ctrl=on" in proc.stdout
        assert "phase breakdown" in proc.stdout
        assert trace.exists()
        first = trace.read_text().splitlines()[0]
        assert '"kind"' in first and '"t"' in first

    def test_policy_zoo_demo(self, tmp_path):
        from repro.streaming import available_policies

        proc = run("policy_zoo_demo.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        rows = {
            line.split()[0]: line.split()
            for line in proc.stdout.splitlines()
            if line.split() and line.split()[0] in available_policies()
        }
        assert sorted(rows) == sorted(available_policies())
        for cells in rows.values():
            # mean qoe, stall %, total $, qoe/$, [wall]
            assert float(cells[3]) > 0.0, cells

    def test_population_demo(self, tmp_path):
        proc = run("population_demo.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "popularity skew sweep" in proc.stdout
        assert "abandoned" in proc.stdout
        assert "provisioning sweep" in proc.stdout

    def test_cdn_demo(self, tmp_path):
        proc = run("cdn_demo.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "assignment policy sweep" in proc.stdout
        assert "popularity" in proc.stdout
        assert "encode contention" in proc.stdout
        assert "GB delivered" in proc.stdout

    def test_end_to_end_client(self, tmp_path):
        proc = run("end_to_end_client.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        total = re.search(
            r"total downloaded: (\d+) KB \([\d.]+% of raw (\d+) KB\)", proc.stdout
        )
        assert total, proc.stdout
        downloaded, raw = map(int, total.groups())
        assert downloaded < raw

    def test_render_viewports_writes_frames(self, tmp_path):
        proc = run("render_viewports.py", tmp_path)
        assert proc.returncode == 0, proc.stderr
        ppm = list(tmp_path.glob("*.ppm"))
        assert len(ppm) == 8  # 3 methods x 2 views + 2 ground truth
        header = ppm[0].read_bytes()[:2]
        assert header == b"P6"
