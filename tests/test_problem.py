import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dcquartic import (
    DimensionMismatchError,
    ValidationError,
    g1_star,
    g1_value,
    g2_star,
    g2_value,
    generate_instance,
    in_A_star,
    in_B_star,
    in_C_star,
    iter_ensemble,
    j1_star,
    j2_star,
    j_star,
    j_tilde_star,
    lift_to_dual,
    linalg,
    primal_gradient,
    primal_hessian,
    primal_value,
    recover_primal,
    solve_primal_critical,
    validate_instance,
)
from dcquartic.conjugates import default_inner_init
from dcquartic.problem import gradient_from, hessian_from
from oracles import _batch_primal, fd_gradient, fd_hessian


class TestValidation:
    def test_hand_instance_valid(self, p_tri):
        assert p_tri.n == 1 and p_tri.N == 1
        assert p_tri.kma_min_eig == pytest.approx(2.0)

    def test_k_minus_a_not_pd(self):
        with pytest.raises(ValidationError) as err:
            validate_instance([-1.0], [[1.0]], [1.0], [0.0], [0.0], -2.0)
        assert err.value.reason == "K-minus-A-not-PD"

    def test_nonpositive_gamma(self):
        with pytest.raises(ValidationError) as err:
            validate_instance([-1.0], [[1.0]], [0.0], [0.0], [0.0], 1.0)
        assert err.value.reason == "nonpositive-gamma"

    def test_asymmetric_matrix(self):
        A = [[0.0, 1.0], [0.5, 0.0]]
        B = [[[1.0, 0.0], [0.0, 1.0]]]
        with pytest.raises(ValidationError) as err:
            validate_instance(A, B, [1.0], [0.0], [0.0, 0.0], 3.0)
        assert err.value.reason == "asymmetric-matrix"

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate_instance([[1.0, 0.0], [0.0, 1.0]], [[1.0]], [1.0],
                              [0.0], [0.0], 2.0)

    @pytest.mark.parametrize("field, value, reason, message", [
        ("f", [], "dimension-mismatch", "need n >= 1"),
        ("gamma", [], "dimension-mismatch", "need n >= 1"),
        ("c", [0.0, 0.0], "dimension-mismatch", "c must have length 1"),
        ("B", np.eye(3), "dimension-mismatch", "B must hold 1 matrices"),
        ("A", [[np.nan, 0.0], [0.0, 1.0]], "non-finite", "A has non-finite"),
        ("f", [0.0, np.inf], "non-finite", "f has non-finite"),
        ("B", [[[1.0, 1.0], [0.0, 1.0]]], "asymmetric-matrix",
         "B\\[0\\] asymmetric"),
        ("K", [[2.0, 1.0], [0.0, 2.0]], "asymmetric-matrix",
         "K asymmetric by 1.000e\\+00"),
        ("A", [[1.0, 0.0], [0.0]], "dimension-mismatch",
         "A is not a numeric array"),
        ("f", [0.0, "zero"], "dimension-mismatch",
         "f is not a numeric array"),
        # a Python int outside the float range overflows in the conversion
        ("A", [[10**400]], "dimension-mismatch", "A is not a numeric array"),
        pytest.param("K", 10**400, "dimension-mismatch",
                     "K is not a numeric array", id="K-10**400"),
    ])
    def test_rejects_malformed_input(self, field, value, reason, message):
        args = {"A": np.eye(2), "B": [np.eye(2)], "gamma": [1.0],
                "c": [0.0], "f": [0.0, 0.0], "K": 2.0, field: value}
        with pytest.raises(ValidationError, match=message) as err:
            validate_instance(**args)
        assert err.value.reason == reason

    def test_names_the_first_asymmetric_b(self):
        asym = np.array([[1.0, 2.0], [0.0, 1.0]])
        rest = ([1.0, 1.0, 1.0], [0.0] * 3, [0.0, 0.0], 3.0)
        for B, name in (([np.eye(2), asym, np.eye(2)], "B\\[1\\]"),
                        ([np.eye(2), asym, 2 * asym], "B\\[1\\]"),
                        ([np.eye(2), np.eye(2), 2 * asym], "B\\[2\\]")):
            with pytest.raises(ValidationError,
                               match=f"^{name} asymmetric by") as err:
                validate_instance(np.eye(2), B, *rest)
            assert err.value.reason == "asymmetric-matrix"

    def test_coercivity_heuristic(self):
        # B = 0 leaves J no quartic term, so the check fails
        with pytest.raises(ValidationError) as err:
            validate_instance([1.0], [[0.0]], [1.0], [0.0], [0.0], 2.0)
        assert err.value.reason == "coercivity-heuristic-failed"
        P = validate_instance([1.0], [[0.0]], [1.0], [0.0], [0.0], 2.0,
                              coercivity_override=True)
        assert P.coercivity_override
        # N = 2: one nonzero B_j, even indefinite, is enough
        zero, indefinite = np.zeros((2, 2)), np.diag([1.0, -1.0])
        rest = ([1.0, 1.0], [0.0, 0.0], [0.0, 0.0], 2.0)  # gamma, c, f, K
        validate_instance(np.eye(2), [zero, indefinite], *rest)
        with pytest.raises(ValidationError) as err:
            validate_instance(np.eye(2), [zero, zero], *rest)
        assert err.value.reason == "coercivity-heuristic-failed"
        P = validate_instance(np.eye(2), [zero, zero], *rest,
                              coercivity_override=True)
        assert P.coercivity_override
        # the decision is exact: (u'Bu/2)^2 underflows here, B != 0 passes
        validate_instance([1.0], [[1e-200]], [1.0], [0.0], [0.0], 2.0)

    def test_instance_is_immutable(self, p_tri):
        for name in ("A", "B", "gamma", "c", "f", "K", "K_minus_A",
                     "kma_factor", "BA"):
            arr = getattr(p_tri, name)
            assert isinstance(arr, np.ndarray)
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 5.0
            with pytest.raises(ValueError):
                arr += 1.0

    def test_caller_arrays_stay_writable(self):
        A = np.eye(2)
        validate_instance(A, [np.eye(2)], [1.0], [0.0], [0.0, 0.0], 2.0)
        A[0, 0] = 5.0
        assert A[0, 0] == 5.0

    def test_instance_owns_its_data(self):
        base = np.zeros((2, 2, 2))
        base[0] = 0.5 * np.eye(2)
        base[1] = np.eye(2)
        P = validate_instance(base[0], base[1:], [1.0], [0.0], [0.0, 0.0],
                              2.0)
        before = {name: getattr(P, name).copy()
                  for name in ("A", "B", "K_minus_A", "kma_factor", "BA")}
        base[:] = 7.0
        for name, value in before.items():
            assert np.array_equal(getattr(P, name), value), name


class TestPrimalOps:
    def test_value_examples(self, p_tri, p_min, sqrt2):
        assert primal_value(p_tri, [0.0]) == 0.0
        assert primal_value(p_tri, [sqrt2]) == pytest.approx(-0.5, abs=1e-12)
        assert primal_value(p_min, [0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_gradient_examples(self, p_tri, p_min, sqrt2):
        assert primal_gradient(p_tri, [0.0]) == pytest.approx(0.0)
        assert primal_gradient(p_tri, [sqrt2]) == pytest.approx(0.0, abs=1e-12)
        assert primal_gradient(p_min, [1.0]) == pytest.approx(2.5)

    def test_hessian_examples(self, p_tri, p_min, sqrt2):
        assert primal_hessian(p_tri, [0.0])[0, 0] == pytest.approx(-1.0)
        assert primal_hessian(p_tri, [sqrt2])[0, 0] == pytest.approx(2.0)
        assert primal_hessian(p_min, [0.0])[0, 0] == pytest.approx(2.0)

    def test_g1_g2_examples(self, p_tri, p_min, sqrt2):
        assert g1_value(p_tri, [0.0]) == 0.0
        assert g2_value(p_tri, [sqrt2], [0.0]) == pytest.approx(1.5)
        assert g2_value(p_min, [0.0], [1.0]) == pytest.approx(2.0)

    def test_dimension_checks(self, p_tri):
        with pytest.raises(DimensionMismatchError):
            primal_value(p_tri, [1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            g2_value(p_tri, [1.0], [1.0, 2.0])


@pytest.fixture(scope="module")
def samples():
    rng = np.random.default_rng(42)
    out = []
    for i in range(25):
        n = int(rng.integers(1, 5))
        N = int(rng.integers(1, 4))
        P = generate_instance(n, N, [10_000, i])
        for _ in range(4):
            out.append((P, rng.normal(scale=2.0, size=n)))
    return out


class TestConsistency:
    """Finite-difference and decomposition invariants over a random
    ensemble of instances and evaluation points."""

    def test_gradient_matches_fd(self, samples):
        worst = 0.0
        for P, x in samples:
            g = primal_gradient(P, x)
            g_fd = fd_gradient(P, x)
            err = np.max(np.abs(g - g_fd)) / (1.0 + np.max(np.abs(g)))
            worst = max(worst, err)
        assert worst <= 1e-5

    def test_hessian_matches_fd(self, samples):
        worst = 0.0
        for P, x in samples:
            H = primal_hessian(P, x)
            H_fd = fd_hessian(P, x)
            err = (np.linalg.norm(H - H_fd, "fro")
                   / (1.0 + np.linalg.norm(H, "fro")))
            worst = max(worst, err)
        assert worst <= 1e-4

    def test_hessian_exactly_symmetric(self, samples):
        for P, x in samples:
            H = primal_hessian(P, x)
            assert np.array_equal(H, H.T)

    def test_decomposition_identity(self, samples):
        # J(x) = -G1(x) + G2(x, 0)
        for P, x in samples:
            j = primal_value(P, x)
            split = -g1_value(P, x) + g2_value(P, x, np.zeros(P.N))
            assert abs(j - split) <= 1e-10 * (1.0 + abs(j))

    def test_g1_midpoint_convexity(self, samples):
        rng = np.random.default_rng(3)
        for P, x in samples[:40]:
            y = rng.normal(scale=2.0, size=P.n)
            mid = g1_value(P, 0.5 * (x + y))
            avg = 0.5 * (g1_value(P, x) + g1_value(P, y))
            assert mid <= avg + 1e-9 * (1.0 + abs(avg))


@given(x=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=1),
       a=st.floats(-2.0, 2.0), gamma=st.floats(0.1, 3.0),
       c=st.floats(-1.0, 1.0), f=st.floats(-1.0, 1.0))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_scalar_value_closed_form(x, a, gamma, c, f):
    P = validate_instance([a], [[1.0]], [gamma], [c], [f], abs(a) + 1.0)
    t = x[0]
    expected = 0.5 * a * t * t + 0.5 * gamma * (0.5 * t * t + c) ** 2 + f * t
    assert primal_value(P, x) == pytest.approx(expected, abs=1e-12, rel=1e-12)


@given(x=st.floats(-10.0, 10.0), a=st.floats(-2.0, 2.0),
       b=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3),
       gamma=st.floats(0.1, 3.0), c=st.floats(-1.0, 1.0),
       f=st.floats(-1.0, 1.0))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_decomposition_identity_scalar(x, a, b, gamma, c, f):
    # J(x) = -G1(x) + G2(x, 0) for every admissible scalar instance
    P = validate_instance([a], [[b]], [gamma], [c], [f], abs(a) + 1.0)
    j = primal_value(P, [x])
    split = -g1_value(P, [x]) + g2_value(P, [x], [0.0])
    assert abs(j - split) <= 1e-10 * (1.0 + abs(j))


def test_kernels_take_a_point_or_a_stack():
    # every row of a stacked kernel call is, bit for bit, the call on
    # that row alone, at every (n, N) of the ensemble and at n = 12 and
    # 40, where the gemv may take other code paths; 480 rows is one
    # line-search stack of 12 starts x 40 halvings.  Sizes 0 and 480
    # draw from a stream of their own, so that sizes 1, 5 and 64 keep
    # their draws
    narrow, wide = np.random.default_rng(8), np.random.default_rng(9)
    problems = list(iter_ensemble(40, 2024)) + [
        generate_instance(12, 3, [8, 12]), generate_instance(40, 2, [8, 40])]
    for P in problems:
        for size in (1, 5, 64, 0, 480):
            rng = wide if size in (0, 480) else narrow
            xs = rng.standard_normal((size, P.n))
            vs = 3.0 * rng.standard_normal((size, P.n))
            v0s = rng.standard_normal((size, P.N))
            for kernel, rows in ((P.quartic_terms, xs), (P.bx_columns, xs),
                                 (P.mixed_matrix, v0s), (P.ab_matrix, v0s),
                                 (lambda x: primal_gradient(P, x), xs),
                                 (lambda x: primal_hessian(P, x), xs),
                                 (lambda v: recover_primal(P, v), vs),
                                 (lambda v: default_inner_init(P, v), vs)):
                stacked = kernel(rows)
                point = kernel(rows[0] if size else np.ones(rows.shape[1]))
                assert stacked.shape == (size,) + point.shape
                for row, out in zip(rows, stacked):
                    assert out.tobytes() == kernel(row).tobytes()
            # grad J and d2J from row i of the stacked (B_j x and A x
            # rows, w)
            bx, w = P._bx_and_w(xs)
            assert bx.shape == (size, P.N + 1, P.n) and w.shape == (size, P.N)
            np.testing.assert_allclose(
                bx, np.einsum("jkl,sl->sjk", np.concatenate([P.B, P.A[None]]),
                              xs), rtol=1e-12, atol=1e-12)
            for x, b, v in zip(xs, bx, w):
                assert _same_bytes((b, v), P._bx_and_w(x))
                assert gradient_from(P, b, v).tobytes() \
                    == primal_gradient(P, x).tobytes()
                assert hessian_from(P, b, v).tobytes() \
                    == primal_hessian(P, x).tobytes()

            if size:
                assert recover_primal(P, vs[0]).shape == (P.n,)
                assert default_inner_init(P, vs[0]).shape == (P.N,)
            J, G1 = primal_value(P, xs), g1_star(P, vs)
            assert J.shape == G1.shape == (size,)
            # against J summed in another order: each sum is within
            # K u / (1 - K u) of the exact value relative to the same sum
            # over absolute values, with K = 4n + N + 9 roundings along
            # any product (2n + 1 in w_j, doubled by the square, then
            # gamma_j, the sum over j, f'x and the three terms)
            ax = np.abs(xs)
            aw = 0.5 * np.einsum("jkl,sk,sl->sj", np.abs(P.B), ax, ax) \
                + np.abs(P.c)
            scale = 0.5 * np.einsum("sk,kl,sl->s", ax, np.abs(P.A), ax) \
                + 0.5 * (aw ** 2) @ P.gamma + ax @ np.abs(P.f)
            roundings = 4 * P.n + P.N + 9
            assert np.all(np.abs(J - _batch_primal(P, xs))
                          <= 4 * roundings * np.finfo(float).eps * scale)
            for x, j, v, g1 in zip(xs, J, vs, G1):
                alone = primal_value(P, x), g1_star(P, v)
                assert type(alone[0]) is float and type(alone[1]) is float
                assert j == alone[0] and g1 == alone[1]
            Ms = P.ab_matrix(v0s)
            stacked = (linalg.symmetrize(Ms),) + linalg.spectrum(Ms) \
                + linalg.pd_margin(Ms)
            for s, M in enumerate(Ms):
                alone = (linalg.symmetrize(M),) + linalg.spectrum(M) \
                    + linalg.pd_margin(M)
                for out, ref in zip(stacked, alone):
                    assert np.asarray(out[s]).tobytes() \
                        == np.asarray(ref).tobytes()


def _same_bytes(a, b):
    return all(p.tobytes() == q.tobytes() for p, q in zip(a, b))


def test_require_points():
    P = next(iter_ensemble(1, 2024))
    x = np.arange(P.n, dtype=float)
    assert P.require_points(x).shape == (P.n,)
    assert P.require_points(x.tolist()).dtype == float
    assert P.require_points([x, x]).shape == (2, P.n)
    assert P.require_points(np.empty((0, P.n))).shape == (0, P.n)
    for bad in (np.zeros(P.n + 1), np.zeros((3, P.n + 1)),
                np.zeros((2, 3, P.n))):
        with pytest.raises(DimensionMismatchError):
            P.require_points(bad)
    for fn in (primal_value, primal_gradient, recover_primal, g1_star,
               default_inner_init):
        with pytest.raises(DimensionMismatchError):
            fn(P, np.zeros((3, P.n + 1)))


# each exported one-point entry: the space of the argument that gets the
# non-finite vector, x (length n) or v (length N), and the call
ONE_POINT_ENTRIES = {
    "lift_to_dual": ("x", lift_to_dual),
    "solve_primal_critical": ("x", solve_primal_critical),
    "j1_star": ("v", j1_star),
    "in_C_star": ("v", in_C_star),
    "in_B_star": ("v", in_B_star),
    "in_A_star": ("v", in_A_star),
    "g2_star-v_star": ("x", lambda P, x: g2_star(P, x, np.ones(P.N))),
    "g2_star-v0_star": ("v", lambda P, v: g2_star(P, np.zeros(P.n), v)),
    "j_star-v_star": ("x", lambda P, x: j_star(P, x, np.ones(P.N))),
    "j_star-v0_star": ("v", lambda P, v: j_star(P, np.zeros(P.n), v)),
    "j_tilde_star-v_star": ("x", j_tilde_star),
    "j_tilde_star-init": ("v", lambda P, v: j_tilde_star(
        P, np.zeros(P.n), init=v)),
    "j2_star-v_star": ("x", j2_star),
    "j2_star-init": ("v", lambda P, v: j2_star(P, np.zeros(P.n), init=v)),
}


@pytest.mark.parametrize("entry", sorted(ONE_POINT_ENTRIES))
def test_one_point_entries_reject_non_finite(entry):
    # n = N = 1, where a NaN or inf gave a verdict or a NaN value
    # (lift_to_dual at inf: a converged pair; j1_star at NaN: NaN
    # values), and n = 3, N = 2, where it gave numpy's bare LinAlgError
    space, fn = ONE_POINT_ENTRIES[entry]
    for P in (validate_instance([1.0], [[1.0]], [1.0], [0.5], [0.3], 2.0),
              generate_instance(3, 2, 1)):
        for bad in (np.nan, np.inf, -np.inf):
            u = np.zeros(P.n if space == "x" else P.N)
            u[0] = bad
            with pytest.raises(ValidationError) as err:
                fn(P, u)
            assert err.value.reason == "non-finite"


def test_kernels_keep_non_finite_rows():
    # the stacked kernels and the Newton solver's line search evaluate
    # NaN trial steps on purpose: a NaN row gives NaN, not an error
    P = generate_instance(3, 2, 1)
    X = np.zeros((2, P.n))
    X[1, 0] = np.nan
    for fn in (primal_value, primal_gradient, recover_primal, g1_star):
        out = np.asarray(fn(P, X))
        assert np.isfinite(out[0]).all() and np.isnan(out[1]).all()
