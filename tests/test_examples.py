"""Examples are runnable end to end (subprocess smoke tests)."""

import os
import re
import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "chamfer (VoLUT output)" in proc.stdout
        assert "per-stage latency" in proc.stdout

    def test_streaming_session(self):
        proc = run("streaming_session.py", "--seconds", "20")
        assert proc.returncode == 0, proc.stderr
        assert "volut" in proc.stdout
        assert "stable 50 Mbps" in proc.stdout

    def test_reproduce_paper_single(self):
        proc = run("reproduce_paper.py", "--only", "table1")
        assert proc.returncode == 0, proc.stderr
        assert "1.61 GB" in proc.stdout

    def test_fleet_demo(self, tmp_path):
        trace = tmp_path / "fleet-trace.json"
        proc = run(
            "fleet_demo.py", "--sessions", "40", "--seconds", "10",
            "--trace-out", str(trace),
        )
        assert proc.returncode == 0, proc.stderr
        assert "congested" in proc.stdout
        assert "cache hit" in proc.stdout
        assert "phase breakdown" in proc.stdout
        assert "scheduler" in proc.stdout
        assert trace.exists()
        assert '"traceEvents"' in trace.read_text()[:100]

    def test_chaos_demo(self, tmp_path):
        trace = tmp_path / "chaos-trace.jsonl"
        proc = run(
            "chaos_demo.py", "--sessions", "30", "--trace-out", str(trace),
        )
        assert proc.returncode == 0, proc.stderr
        assert "edge-outage ctrl=on" in proc.stdout
        assert "phase breakdown" in proc.stdout
        assert trace.exists()
        first = trace.read_text().splitlines()[0]
        assert '"kind"' in first and '"t"' in first

    def test_policy_zoo_demo(self):
        from repro.streaming import available_policies

        proc = run("policy_zoo_demo.py", "--sessions", "30")
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

    def test_population_demo(self):
        proc = run("population_demo.py", "--sessions", "30", "--seconds", "8")
        assert proc.returncode == 0, proc.stderr
        assert "popularity skew sweep" in proc.stdout
        assert "abandoned" in proc.stdout
        assert "provisioning sweep" in proc.stdout

    def test_cdn_demo(self):
        proc = run("cdn_demo.py", "--sessions", "30", "--seconds", "8")
        assert proc.returncode == 0, proc.stderr
        assert "assignment policy sweep" in proc.stdout
        assert "popularity" in proc.stdout
        assert "encode contention" in proc.stdout
        assert "GB delivered" in proc.stdout

    def test_end_to_end_client(self):
        proc = run("end_to_end_client.py", "--frames", "3")
        assert proc.returncode == 0, proc.stderr
        total = re.search(
            r"total downloaded: (\d+) KB \([\d.]+% of raw (\d+) KB\)", proc.stdout
        )
        assert total, proc.stdout
        downloaded, raw = map(int, total.groups())
        assert downloaded < raw

    def test_render_viewports_writes_frames(self, tmp_path):
        proc = run("render_viewports.py", "--views", "2", "--save-dir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        ppm = list(tmp_path.glob("*.ppm"))
        assert len(ppm) == 8  # 3 methods x 2 views + 2 ground truth
        header = ppm[0].read_bytes()[:2]
        assert header == b"P6"
