"""Complete streaming systems under test (paper §7.4/§7.5).

Each factory wires a controller, an SR latency model, and session knobs
into a ready-to-run configuration:

* :func:`volut_system` — H1: continuous MPC + LUT SR;
* :func:`volut_discrete_system` — H2: discrete MPC + LUT SR;
* :func:`yuzu_sr_system` — H3 / YuZu-SR: discrete MPC + neural SR latency
  + SR-model downloads charged to data usage;
* :func:`vivo_system` — ViVo: visibility-culled raw streaming (no SR);
* :func:`raw_system` — full-density baseline.
"""

from .factory import (
    SystemSetup,
    raw_system,
    run_system,
    vivo_system,
    volut_discrete_system,
    volut_system,
    yuzu_sr_system,
)

__all__ = [
    "SystemSetup",
    "volut_system",
    "volut_discrete_system",
    "yuzu_sr_system",
    "vivo_system",
    "raw_system",
    "run_system",
]
