import numpy as np
import pytest

from dcquartic import conjugates, validate_instance


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


@pytest.fixture
def barrier_calls(monkeypatch):
    """The J2* barrier-path steps called while the test runs, in order:
    "_feasible_a_star_point" for phase 1 and "_barrier_ascent" for each
    barrier weight."""
    calls = []
    for name in ("_feasible_a_star_point", "_barrier_ascent"):
        monkeypatch.setattr(
            conjugates, name, lambda *args, name=name,
            fn=getattr(conjugates, name): calls.append(name) or fn(*args))
    return calls
