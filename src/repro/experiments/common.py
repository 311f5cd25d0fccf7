"""Shared experiment plumbing: result tables and workload scales.

Every experiment module returns a :class:`ResultTable` so benchmarks,
tests, and the CLI runner consume one shape.  ``Scale`` bundles the
workload sizes: ``smoke`` for CI-speed runs (seconds), ``paper`` for the
full-size configuration matching §7.1 (minutes to hours in pure Python).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ResultTable", "Scale", "SMOKE", "PAPER"]


@dataclass
class ResultTable:
    """A printable experiment result: named columns, list-of-dict rows."""

    title: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    def add(self, **cells: Any) -> None:
        missing = [c for c in self.columns if c not in cells]
        if missing:
            raise ValueError(f"row missing columns: {missing}")
        self.rows.append(cells)

    def column(self, name: str) -> list[Any]:
        """All values in one column (must exist)."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        return [r[name] for r in self.rows]

    def lookup(self, **match: Any) -> dict[str, Any]:
        """First row whose cells equal all the given key/values."""
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        raise KeyError(f"no row matching {match}")

    # ------------------------------------------------------------------
    def _fmt(self, v: Any) -> str:
        if isinstance(v, float):
            if v == 0 or 1e-3 <= abs(v) < 1e6:
                return f"{v:.4g}"
            return f"{v:.3e}"
        return str(v)

    def render(self) -> str:
        """Monospace table string."""
        header = [str(c) for c in self.columns]
        body = [[self._fmt(r[c]) for c in self.columns] for r in self.rows]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [f"== {self.title} =="]
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Scale:
    """Workload sizes for one experiment run."""

    name: str
    #: points per frame for SR-quality experiments
    points_per_frame: int
    #: frames sampled per video for quality metrics
    quality_frames: int
    #: viewport resolution for image PSNR
    image_size: int
    #: training epochs for the refinement net
    train_epochs: int
    #: streamed video length in seconds
    stream_seconds: int
    #: full-scale point count used by the device-model figures
    device_points: int = 100_000


SMOKE = Scale(
    name="smoke",
    points_per_frame=3_000,
    quality_frames=2,
    image_size=128,
    train_epochs=8,
    stream_seconds=60,
)

PAPER = Scale(
    name="paper",
    points_per_frame=100_000,
    quality_frames=8,
    image_size=512,
    train_epochs=60,
    stream_seconds=600,
)
