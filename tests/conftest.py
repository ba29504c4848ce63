import sys
from pathlib import Path

import pytest

# make tests/oracle.py importable regardless of how pytest is invoked
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def pool_at_any_work(monkeypatch):
    """Let `sweep` start a pool however small the sweep: its worker count is
    then clamped by --jobs, the pairs and the CPUs alone."""
    from powker import bounds

    monkeypatch.setattr(bounds, "POOL_MIN_PA", 6)
