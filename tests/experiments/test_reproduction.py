"""The reproduction ledger: each paper claim the repo reproduces, stated once.

A claim is read off the table ``python -m repro.experiments <figure>``
prints at ``SMOKE`` (the ``paper_table`` fixture) and recorded as one row
of ``tests/golden/reproduction.json``: its value at printed precision and
the paper's band (open ends, ``None`` unbounded, ``(x, x)`` exactly ``x``).
``REPRODUCTION.md`` shows the rows and says how to move one.
"""

from __future__ import annotations

import re
import statistics
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from ..golden import assert_golden, recorded_rows

LEDGER = "reproduction"
KEY = ("figure", "quantity", "condition")
DOC = Path(__file__).resolve().parents[2] / "REPRODUCTION.md"
#: the document's table sits between these two lines
BEGIN, END = "<!-- ledger -->", "<!-- /ledger -->"
TABLE = re.compile(f"{BEGIN}\n(.*?){END}", re.S)


class Claim(NamedTuple):
    quantity: str
    condition: str
    value: Callable  # the figure's ResultTable -> the repo's number
    band: tuple
    paper: str
    tolerance: float | None = None  # for a value that depends on the CPU


def _cell(column: str, **match) -> Callable:
    return lambda t: t.lookup(**match)[column]


def _op(column: str, a: dict, b: dict, op: str) -> Callable:
    """``a − b`` or ``a / b`` of one column's cells."""
    def value(t):
        x, y = t.lookup(**a)[column], t.lookup(**b)[column]
        return x - y if op == "-" else x / y
    return value


def _psnr_gain(ratio: float) -> Callable:
    """Mean PSNR of dilated minus naive interpolation over the videos."""
    def mean(t, method):
        return statistics.fmean(
            r["psnr_db"] for r in t.rows if r["method"] == method and r["ratio"] == ratio
        )
    return lambda t: mean(t, "K4d2") - mean(t, "K4d1")


def _knn_lead(device: str) -> Callable:
    """kNN's share of the frame minus the largest other stage's."""
    def lead(t):
        shares = {r["stage"]: r["share_pct"] for r in t.rows if r["device"] == device}
        return shares.pop("knn") - max(shares.values())
    return lead


VIDEOS = ("longdress", "loot", "haggle", "lab")
CONDITIONS = ("stable-50", "lte-all", "lte-low")
LUT = "K4d2-lut"


def _sr(video, ratio, method):
    return {"video": video, "ratio": ratio, "method": method}


def _net(condition, system):
    return {"condition": condition, "system": system}


#: figure -> (modeled | measured, its claims).  *Modeled*: the device cost
#: model, an analytic formula or the session simulator's byte and latency
#: model; *measured*: computed on the point clouds the code produces.
CLAIMS: dict[str, tuple[str, list[Claim]]] = {
    "table1": ("modeled", [
        Claim("entries", "rf 4, bins 128", _cell("entries", rf_size=4, bins=128),
              (805306368, 805306368), "805,306,368 entries (the deployed LUT)"),
        Claim("size", "rf 4, bins 128", _cell("size", rf_size=4, bins=128),
              ("1.61 GB", "1.61 GB"), "1.61 GB"),
    ]),
    "fig4": ("measured", [
        Claim("density_cv", "dilated-k4d2 − naive-k4d1",
              _op("density_cv", {"cloud": "dilated-k4d2"}, {"cloud": "naive-k4d1"}, "-"),
              (None, 0), "dilation spreads points more uniformly than naive kNN"),
    ]),
    "fig7-10": ("measured", [
        # K4d1 colours a midpoint from the nearer of its two equidistant
        # parents, a tie the brute backend's rounding breaks per CPU
        *(Claim("psnr_db", f"×{r:g} K4d2 − K4d1, mean of 4 videos", _psnr_gain(r), (-0.5, None),
                "dilated interpolation matches or beats naive kNN", tolerance=0.02)
          for r in (2.0, 4.0)),
        *(Claim("psnr_db", f"{v} {LUT} ×2 − ×4",
                _op("psnr_db", _sr(v, 2.0, LUT), _sr(v, 4.0, LUT), "-"),
                (0, None), "×2 renders better than ×4")
          for v in ("longdress", "loot")),
        *(Claim("chamfer", f"{v} ×{r:g} {LUT} / K4d2",
                _op("chamfer", _sr(v, r, LUT), _sr(v, r, "K4d2"), "/"),
                (None, 1.05), "LUT refinement lowers dilated interpolation's Chamfer")
          for v in VIDEOS for r in (2.0, 4.0)),
        *(Claim("chamfer", f"{v} {LUT} ×4 / ×2",
                _op("chamfer", _sr(v, 4.0, LUT), _sr(v, 2.0, LUT), "/"),
                (1, None), "×4 has a larger geometric error than ×2")
          for v in VIDEOS),
    ]),
    "fig11-device": ("modeled", [
        *(Claim("speedup", f"{d} ×{r:g}", _cell("speedup", device=d, ratio=r), band, paper)
          for d, band, paper in (("orange-pi", (3.0, 4.5), "3.7–3.9× over vanilla"),
                                 ("desktop-gpu", (7.0, 9.0), "7.5–8.1× over vanilla"))
          for r in (2.0, 4.0, 6.0, 8.0)),
        Claim("ours_fps", "orange-pi ×8", _cell("ours_fps", device="orange-pi", ratio=8.0),
              (24, 40), "31.2 FPS"),
        Claim("vanilla_fps", "orange-pi ×8", _cell("vanilla_fps", device="orange-pi", ratio=8.0),
              (6, 10), "8.0 FPS"),
        Claim("ours_fps", "desktop-gpu ×2", _cell("ours_fps", device="desktop-gpu", ratio=2.0),
              (250, 450), "357.1 FPS"),
    ]),
    "fig12-13": ("modeled", [
        *(Claim("norm_qoe", f"{c} {s}", _cell("norm_qoe", **_net(c, s)), (None, 100),
                f"VoLUT (= 100) beats {name}")
          for s, name in (("yuzu-sr", "YuZu-SR"), ("vivo", "ViVo")) for c in CONDITIONS),
        Claim("norm_qoe", "stable-50 yuzu-sr − vivo",
              _op("norm_qoe", _net("stable-50", "yuzu-sr"), _net("stable-50", "vivo"), "-"),
              (0, None), "YuZu-SR beats ViVo on a stable link"),
        Claim("data_pct", "stable-50 volut", _cell("data_pct", **_net("stable-50", "volut")),
              (None, 45), "up to 70 % less data than raw streaming"),
        Claim("data_pct", "lte-low volut", _cell("data_pct", **_net("lte-low", "volut")),
              (None, 30), "≈ 17 % of raw streaming's data on low-bandwidth LTE"),
        *(Claim("data_pct", f"{c} yuzu-sr − volut",
                _op("data_pct", _net(c, "yuzu-sr"), _net(c, "volut"), "-"),
                (0, None), "YuZu-SR downloads more than VoLUT")
          for c in CONDITIONS),
    ]),
    "fig14": ("modeled", [
        Claim("norm_qoe", "H2", _cell("norm_qoe", variant="H2"),
              (None, 100), "H2 (discrete ABR) loses 15.3 % QoE against H1 (= 100)"),
        Claim("norm_qoe", "H2 − H3", _op("norm_qoe", {"variant": "H2"}, {"variant": "H3"}, "-"),
              (0, None), "H3 (+ YuZu's SR latency) loses the most, 36.7 %"),
        Claim("data_vs_h1", "H2", _cell("data_vs_h1", variant="H2"),
              (100, None), "H2 uses 14 % more data than H1 (= 100)"),
    ]),
    "fig15": ("modeled", [
        Claim("vs_gradpu_pct", "volut (1 LUT)", _cell("vs_gradpu_pct", system="volut (1 LUT)"),
              (None, 20), "86 % less client memory than GradPU"),
        Claim("total_mb", "yuzu / volut",
              _op("total_mb", {"system": "yuzu (frozen c++)"}, {"system": "volut (1 LUT)"}, "/"),
              (None, 10), "comparable to YuZu's frozen model"),
    ]),
    "fig16-device": ("modeled", [
        Claim("share_pct", f"{d} knn − largest other stage", _knn_lead(d),
              (0, None), "kNN search dominates the frame")
        for d in ("desktop-gpu", "orange-pi")
    ]),
    "fig17-device": ("modeled", [
        Claim("slowdown_vs_volut", "yuzu", _cell("slowdown_vs_volut", system="yuzu"),
              (6, 14), "8.4× slower than VoLUT"),
        Claim("slowdown_vs_volut", "gradpu", _cell("slowdown_vs_volut", system="gradpu"),
              (1e4, 1e5), "46,400× slower than VoLUT"),
        Claim("fps", "volut", _cell("fps", system="volut"), (250, 450), "≈ 357 FPS at ×2"),
    ]),
    "fig18": ("modeled", [
        Claim("fps", "×8", _cell("fps", ratio=8.0), (24, 40), "≈ 31 FPS at ×8"),
        Claim("fps", "max / min over ratios", lambda t: max(t.column("fps")) / min(t.column("fps")),
              (None, 1.3), "SR speed stays roughly flat across ratios"),
        *(Claim("knn_share_pct", f"×{r:g}", _cell("knn_share_pct", ratio=r),
                (60, None), "kNN over the fixed-size input dominates")
          for r in (2.0, 3.0, 4.0, 6.0, 8.0)),
    ]),
    "compression-rd": ("measured", [
        Claim("bytes_per_point", "longdress depth 10",
              _cell("bytes_per_point", video="longdress", depth=10),
              (4, 9), "≈ 6 B/pt, the transport rate the streaming model assumes"),
    ]),
}


def ledger_row(figure: str, claim: Claim, table) -> dict:
    """The claim's row; a float value to four significant digits, as printed."""
    value = claim.value(table)
    return {
        "figure": figure, "quantity": claim.quantity, "condition": claim.condition,
        "value": float(f"{value:.4g}") if isinstance(value, float) else value,
        **({"tolerance": claim.tolerance} if claim.tolerance is not None else {}),
        "band": list(claim.band), "paper": claim.paper, "kind": CLAIMS[figure][0],
    }


def ledger_rows(figure: str, table) -> list[dict]:
    return [ledger_row(figure, c, table) for c in CLAIMS[figure][1]]


#: a test id in ASCII, which pytest prints unescaped
_ASCII = str.maketrans({"×": "x", "−": "-"})


def _claim_id(figure: str, claim: Claim) -> str:
    return f"{figure} {claim.quantity} {claim.condition}".translate(_ASCII)


def _text(x) -> str:
    return f"{x:g}" if isinstance(x, float) else str(x)


def band_text(band) -> str:
    lo, hi = band
    if lo is None or hi is None:
        return f"x < {_text(hi)}" if lo is None else f"x > {_text(lo)}"
    return f"= {_text(lo)}" if lo == hi else f"{_text(lo)} < x < {_text(hi)}"


def in_band(value, band) -> bool:
    lo, hi = band
    if lo is not None and lo == hi:
        return value == lo
    return (lo is None or lo < value) and (hi is None or value < hi)


def assert_bands(rows: list[dict]) -> None:
    """Fail naming every row whose value lies outside its paper band."""
    outside = [
        f"{r['figure']} {r['quantity']} ({r['condition']}): {_text(r['value'])} "
        f"is outside the paper's band {band_text(r['band'])} ({r['paper']})"
        for r in rows if not in_band(r["value"], r["band"])
    ]
    assert not outside, "\n".join(outside)


@pytest.mark.golden
@pytest.mark.parametrize(("figure", "claim"), [
    pytest.param(figure, claim, id=_claim_id(figure, claim))
    for figure, (_, claims) in CLAIMS.items() for claim in claims
])
def test_claims_reproduce(figure, claim, paper_table):
    row = ledger_row(figure, claim, paper_table(figure))
    assert_bands([row])
    assert_golden(LEDGER, [row], KEY, where={f: row[f] for f in KEY})


@pytest.mark.golden
def test_ledger_holds_exactly_these_claims(paper_table):
    rows = [row for figure in CLAIMS for row in ledger_rows(figure, paper_table(figure))]
    assert_golden(LEDGER, rows, KEY)


def test_a_value_outside_its_band_names_the_claim():
    row = {"figure": "fig11-device", "quantity": "speedup", "condition": "orange-pi ×8",
           "value": 5.12, "band": [3.0, 4.5], "paper": "3.7–3.9× over vanilla"}
    with pytest.raises(AssertionError) as failure:
        assert_bands([row, {**row, "condition": "orange-pi ×2", "value": 3.85}])
    message = str(failure.value)
    assert "fig11-device speedup (orange-pi ×8): 5.12" in message
    assert "3 < x < 4.5" in message and "orange-pi ×2" not in message


def render(rows: list[dict]) -> str:
    """The document's table: one line per recorded row."""
    return "".join(
        f"| {' | '.join(cells)} |\n" for cells in [
            ("figure", "quantity", "condition", "repo", "paper's band", "the paper says", "kind"),
            ("---",) * 7,
            *((r["figure"], f"`{r['quantity']}`", r["condition"],
               _text(r["value"]) + (f" ± {_text(r['tolerance'])}" if "tolerance" in r else ""),
               band_text(r["band"]), r["paper"], r["kind"]) for r in rows),
        ]
    )


def test_the_document_shows_the_ledger():
    match = TABLE.search(DOC.read_text())
    assert match and match.group(1) == render(recorded_rows(LEDGER)), (
        "REPRODUCTION.md's table is not the ledger's rows; rewrite it with "
        "`python -m tests.experiments.test_reproduction`"
    )


if __name__ == "__main__":
    table = render(recorded_rows(LEDGER))
    DOC.write_text(TABLE.sub(lambda _: f"{BEGIN}\n{table}{END}", DOC.read_text(), count=1))
