import json
from pathlib import Path

import numpy as np
import pytest

from dcquartic import conjugates, validate_instance

# written by tests/exact_fixture.py
EXACT_POINTS = Path(__file__).resolve().parent / "exact_points.json"


@pytest.fixture(scope="session")
def p_tri():
    """n = N = 1 instance with three critical points: local minima at
    +-sqrt(2) (J = -1/2) and a local max at 0 (J = 0)."""
    return validate_instance([-1.0], [[1.0]], [1.0], [0.0], [0.0], 1.0)


@pytest.fixture(scope="session")
def p_min():
    """n = N = 1 instance whose only critical point x0 = 0 is the global
    minimum with multiplier in A* (J = 1/2)."""
    return validate_instance([1.0], [[1.0]], [1.0], [1.0], [0.0], 2.0)


@pytest.fixture(scope="session")
def sqrt2():
    return float(np.sqrt(2.0))


@pytest.fixture(scope="session")
def exact_points():
    """member -> its exact real critical points, for the 65 members with
    n <= 2 of iter_ensemble(200, 2024)."""
    doc = json.loads(EXACT_POINTS.read_text())
    assert doc["ensemble"] == [200, 2024] and len(doc["members"]) == 65
    return {m["member"]: np.reshape(m["points"], (-1, m["n"]))
            for m in doc["members"]}


@pytest.fixture
def barrier_calls(monkeypatch):
    """The J2* barrier-path stages run while the test runs, in order:
    "_feasible_a_star_point" for phase 1, then the weight mu of each
    _barrier_stage call."""
    calls = []
    phase1, stage = conjugates._feasible_a_star_point, \
        conjugates._barrier_stage

    def spy_stage(P, v_star, v0, mu):
        calls.append(mu)
        return stage(P, v_star, v0, mu)

    monkeypatch.setattr(
        conjugates, "_feasible_a_star_point",
        lambda *args: calls.append("_feasible_a_star_point") or phase1(*args))
    monkeypatch.setattr(conjugates, "_barrier_stage", spy_stage)
    return calls
