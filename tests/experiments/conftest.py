"""The paper's tables as the experiments CLI prints them, run once per session."""

from __future__ import annotations

from functools import cache

import pytest

from repro.experiments import SMOKE
from repro.experiments.__main__ import REGISTRY


@pytest.fixture(scope="session")
def paper_table():
    """``paper_table(name)`` is the table ``python -m repro.experiments
    name`` prints at ``SMOKE``; the ledger and the experiment tests read
    the same run."""
    return cache(lambda name: REGISTRY[name](SMOKE))
