import pytest
from hypothesis import HealthCheck, settings

from sechain.construction import base_case, find_epsilon

settings.register_profile(
    "sechain",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("sechain")


@pytest.fixture(scope="session")
def levels():
    """Levels 1..8, built once and shared; each stage is verified."""
    level = base_case()
    out = {1: level}
    while level.k < 8:
        level = find_epsilon(level)
        level.validate()
        out[level.k] = level
    return out
