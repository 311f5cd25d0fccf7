"""Round loop, statistics and run hygiene shared by every workload.

Method (see ``bench/README.md``): closed loop, one client, one process,
one thread.  A run is

1. ``SETUP_REPS`` complete set-ups from the seed (input generation,
   artifact build, one toy-size warm-up pass) — ``setup_s`` is their
   median;
2. identical **rounds** on identical inputs until ``seconds`` of budget
   are spent (never fewer than ``MIN_ROUNDS``), each with fresh program
   state built *outside* the timed window and the pre-existing heap
   frozen out of the collector's reach;
3. with tracing on, half the budget goes to untraced rounds and the rest
   to traced ones, which are never mixed into an end-to-end number.

The box this runs on is shared: identical work was seen to take 1x to
2.5x its best time, drifting over minutes, with CPU time equal to wall
time (the core itself runs slower; nothing in the guest shows why).  No
statistic of a 12-s window removes a drift that outlasts the window, so
a speed is reported as a **same-window pair** (ROADMAP item 1a): a fixed
reference kernel (:func:`reference_pass`) runs in a block after every
round, and the rounds' wall time is rescaled by how much slower than its
nominal time the kernel ran in those blocks.  Raw wall numbers are kept
beside the rescaled ones.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

__all__ = [
    "Round",
    "Checks",
    "Reference",
    "reference_pass",
    "speed",
    "stat",
    "exact",
    "repeat_for",
    "quartiles",
    "timed_rounds",
    "measure_setup",
    "peak_rss_mb",
    "fingerprint",
    "SETUP_REPS",
    "MIN_ROUNDS",
]

#: complete set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: a cheap set-up is repeated until it has been measured this long
SETUP_MIN_SECONDS = 1.0
#: a run never reports a median over fewer rounds than this
MIN_ROUNDS = 3
#: the nominal time of one :func:`reference_pass`: twice its fastest pass
#: on this box (0.7 ms) and the middle of the per-run means seen while the
#: method was chosen (1.1-2.8 ms), so a rescaled second is about a second
#: of this box on an ordinary day.  Pinned, so that it means the same on
#: every run.
REF_NOMINAL_S = 1.4e-3
#: reference time after each round, as a share of that round's wall
REF_SHARE = 0.35

_REF_ROWS = np.random.default_rng(0).random((100, 100))


def reference_pass() -> float:
    """One pass of the reference kernel: interpreter work, small-object
    churn, per-call NumPy dispatch and one array kernel — the mix the
    measured program is made of.  It calls nothing of the program, so no
    change to the program can move it."""
    d = {}
    for i in range(2500):
        d[i] = (i, float(i), [i])
    s = 0.0
    for i in range(2500):
        s += d[i][1] + len(d[i][2])
    x = np.arange(64.0)
    for _ in range(150):
        x = np.minimum(x * 1.0001, 1e9)
    np.sort(_REF_ROWS, axis=1)
    return s


class Reference:
    """Runs the reference kernel in blocks and keeps every block's mean."""

    def __init__(self) -> None:
        #: (passes, seconds) per block, in order
        self.blocks: list[tuple[int, float]] = []

    def block(self, seconds: float) -> None:
        """Passes until ``seconds`` are spent (at least eight)."""
        n, t0 = 0, perf_counter()
        end = t0 + seconds
        while True:
            reference_pass()
            n += 1
            now = perf_counter()
            if now >= end and n >= 8:
                break
        self.blocks.append((n, now - t0))

    def slowdown(self, first: int = 0, last: int | None = None) -> float:
        """Mean pass time over blocks ``first`` .. ``last``, in nominal
        pass times (1 = the reference machine)."""
        blocks = self.blocks[first:last]
        mean_pass = sum(s for _, s in blocks) / sum(n for n, _ in blocks)
        return mean_pass / REF_NOMINAL_S


@dataclass
class Round:
    """What one round of a workload produced.

    ``op_walls`` are the wall seconds of each timed operation (a frame,
    an encode, a decode, a fleet run); the round's wall is their sum, so
    harness bookkeeping between operations is never charged to the
    program.  ``digest`` must be equal for equal inputs — it is how
    "rounds bit-identical" is checked.  ``detail`` carries whatever the
    workload's checks and metrics need (counts, outputs of round 0).
    """

    op_walls: list[float]
    digest: str
    detail: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.op_walls)


class Checks:
    """Counts attempted operations and failed output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ops(self, n: int) -> None:
        self.attempted += int(n)

    def require(self, ok: bool, message: str) -> None:
        """One output check; a failure is one failed operation."""
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile as ``statistics.quantiles(n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def stat(values, unit: str) -> dict:
    """A metric record: median with quartiles and sample count."""
    values = [float(v) for v in values]
    q1, q3 = quartiles(values)
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def exact(value, unit: str) -> dict:
    """A metric that is not a sample statistic (a count, a seeded or
    simulated quantity that repeats exactly)."""
    v = float(value)
    return {"value": v, "unit": unit, "q1": v, "q3": v, "n": 1}


def measure_setup(setup, warm_up) -> tuple[object, dict]:
    """Run ``setup()`` then ``warm_up(inputs)`` at least ``SETUP_REPS``
    times, and a cheap set-up until it has been measured for
    ``SETUP_MIN_SECONDS``.

    Returns the last inputs and the ``setup_s`` record: the median over
    repetitions of the repetition's wall divided by the reference
    kernel's slowdown in the blocks before and after it (seconds of the
    reference machine, like every speed here), with the raw median kept
    under ``raw``.
    """
    walls: list[float] = []
    ref = Reference()
    inputs = None
    ref.block(0.05)
    while len(walls) < SETUP_REPS or (sum(walls) < SETUP_MIN_SECONDS and len(walls) < 30):
        inputs = None  # drop the previous repetition before rebuilding
        t0 = perf_counter()
        inputs = setup()
        warm_up(inputs)
        walls.append(perf_counter() - t0)
        ref.block(max(0.05, REF_SHARE * walls[-1]))
    record = stat([w / ref.slowdown(i, i + 2) for i, w in enumerate(walls)], "s")
    record["raw"] = statistics.median(walls)
    return inputs, record


def timed_rounds(fresh, run, seconds: float) -> tuple[list[Round], Reference]:
    """Rounds of ``run(fresh())`` until ``seconds`` are spent.

    ``fresh()`` builds the round's program state outside the timed
    window; ``run(state)`` times its own operations and returns a
    :class:`Round`.  The heap that exists before a round is frozen for
    its duration, so collector passes inside the window walk only what
    the program itself allocates.  A reference block precedes the first
    round and follows every round: round ``i`` sits between blocks ``i``
    and ``i + 1``.
    """
    rounds: list[Round] = []
    ref = Reference()
    deadline = perf_counter() + seconds
    ref.block(0.1)
    while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
        state = fresh()
        gc.collect()
        gc.freeze()
        try:
            rounds.append(run(state))
        finally:
            gc.unfreeze()
        del state
        ref.block(REF_SHARE * rounds[-1].wall)
        if len(rounds) >= MIN_ROUNDS:
            # do not start a round that would overrun the budget
            typical = statistics.median(r.wall for r in rounds)
            if perf_counter() + (1 + REF_SHARE) * typical > deadline:
                break
    return rounds, ref


def speed(work: float, rounds: list[Round], ref: Reference, unit: str) -> dict:
    """``work`` per round and per reference-machine second.

    The value is a ratio of sums over the whole run — all the work over
    all the rounds' wall, rescaled by the reference kernel's slowdown over
    all the blocks — which measured steadier than any per-round statistic
    (8.6 % against 19.7 % for the median of raw rounds, same recording).
    Quartiles and n are of the per-round values, each rescaled by the two
    blocks around its round.
    """
    per_round = [
        work / r.wall * ref.slowdown(i, i + 2) for i, r in enumerate(rounds)
    ]
    q1, q3 = quartiles(per_round)
    raw = work * len(rounds) / sum(r.wall for r in rounds)
    slowdown = ref.slowdown()
    return {
        "value": raw * slowdown, "unit": unit, "q1": q1, "q3": q3,
        "n": len(rounds), "raw": raw, "slowdown": slowdown,
    }


def repeat_for(seconds: float, once) -> list:
    """Results of ``once()`` called until ``seconds`` are spent, at least
    once — the traced rounds, which need no reference blocks."""
    out = []
    deadline = perf_counter() + seconds
    while not out or perf_counter() < deadline:
        out.append(once())
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha(root: str) -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository
    (the driver's checkout is not one)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(root: str, seed: int, seconds: float) -> dict:
    """Where and how a result was measured."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "seed": seed,
        "seconds": seconds,
        "threads": os.environ.get("OMP_NUM_THREADS", "unset"),
    }
