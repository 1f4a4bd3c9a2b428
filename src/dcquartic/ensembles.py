"""Seeded random instance generation for ensemble verification runs."""

import numpy as np

from . import linalg
from .problem import validate_instance

GAMMA_RANGE = (0.5, 2.0)
C_RANGE = (-1.0, 1.0)
DIMENSION_RANGE = (1, 6)     # iter_ensemble's n, inclusive
MULTIPLIER_RANGE = (1, 4)    # iter_ensemble's N, inclusive


def generate_instance(n, N, rng_seed, k_margin=1.0, f_scale=1.0,
                      c_range=C_RANGE):
    """Draw one validated random instance.

    A and each B_j come from symmetric Gaussian ensembles scaled to unit
    spectral radius (one (N+1, n, n) draw, A first), gamma_j from
    GAMMA_RANGE, c_j from ``c_range``, f Gaussian, and scalar
    K = lmax(A) + k_margin (so K I - A has eigenvalue margin at least
    k_margin).  One draw per seed, never redrawn: a symmetrized Gaussian
    B_j is never all zero, so the draw passes validation's coercivity
    check.
    """
    rng = np.random.default_rng(rng_seed)
    S = linalg.symmetrize(rng.standard_normal((N + 1, n, n)))
    radius = linalg.spectral_norm_sym(S)
    scaled = radius > 0.0
    S[scaled] /= radius[scaled, None, None]
    A, B = S[0], S[1:]
    gamma = rng.uniform(*GAMMA_RANGE, size=N)
    c = rng.uniform(*c_range, size=N)
    f = f_scale * rng.standard_normal(n)
    K = float(np.max(linalg.spectrum(A)[0])) + k_margin
    return validate_instance(A, B, gamma, c, f, K)


def iter_ensemble(count, rng_seed):
    """Yield ``count`` random instances with n and N drawn uniformly from
    DIMENSION_RANGE and MULTIPLIER_RANGE; deterministic in ``rng_seed``."""
    dim_rng = np.random.default_rng([rng_seed, 0xD1])
    for i in range(count):
        n = int(dim_rng.integers(*DIMENSION_RANGE, endpoint=True))
        N = int(dim_rng.integers(*MULTIPLIER_RANGE, endpoint=True))
        yield generate_instance(n, N, [rng_seed, 1 + i])
