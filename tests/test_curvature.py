import numpy as np
import pytest

from dcquartic import (
    DegenerateCriticalPointError,
    NotConvergedPairError,
    OutsideCstarError,
    build_bundle,
    find_critical_pairs,
    generate_instance,
    implicit_sensitivity,
    lift_to_dual,
    validate_instance,
    verify_chain_identity,
)
from dcquartic.report import analyze_instance
from oracles import argmax_sensitivity_fd, dual_hessian_fd


class TestBundleHandValues:
    def test_tri_at_sqrt2(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        b = build_bundle(p_tri, pair)
        assert b.M[0, 0] == pytest.approx(2.0)
        assert b.E[0, 0] == pytest.approx(2.0)
        assert b.E_bar[0, 0] == pytest.approx(0.5)
        assert b.H3[0, 0] == pytest.approx(0.5)
        assert b.D[0, 0] == pytest.approx(2.0)
        assert b.alpha[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert b.alpha1[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert b.dual_hessian[0, 0] == pytest.approx(0.25)

    def test_p1_p2_layout(self, p_min):
        # P1 columns are B_j x0, P2 rows are x0^T B_j M^{-1}
        pair = lift_to_dual(p_min, [0.0])
        b = build_bundle(p_min, pair)
        assert b.P1.shape == (1, 1) and b.P2.shape == (1, 1)
        assert b.P1[0, 0] == 0.0 and b.P2[0, 0] == 0.0
        assert b.dual_hessian[0, 0] == pytest.approx(2.0 / 3.0)

    def test_requires_converged_pair(self, p_tri):
        pair = lift_to_dual(p_tri, [1.0])  # not a critical point
        with pytest.raises(NotConvergedPairError):
            build_bundle(p_tri, pair)

    def test_large_minima_are_converged(self):
        # at x0 = +-sqrt(2) 1e8 the solver stops at max |grad J| <= 1e-12
        # (1 + |x0|) = 1.4e-4, and build_bundle refuses a point by that
        # same test; an absolute bound of 1e-9 rejected both minima
        P = validate_instance([-1.0], [[1e-8]], [1.0], [0.0], [0.0], 1.0)
        records, _ = analyze_instance(P, 32, 7, 0)
        minima = [r for r in records if abs(r["x0"][0]) > 1.0]
        assert len(minima) == 2
        for r in minima:
            assert r["case"] == "case1" and "bundle" not in r["errors"]
        pair = lift_to_dual(P, np.array(minima[0]["x0"]) * (1.0 + 1e-6))
        with pytest.raises(NotConvergedPairError,
                           match=r"1e-12 \(1 \+ max\|x0\|\) = 1\.414e-04"):
            build_bundle(P, pair)

    def test_outside_c_star(self):
        # c = -2 puts the lifted multiplier past the C* boundary at x0=0
        P = validate_instance([1.0], [[1.0]], [1.0], [-2.0], [0.0], 1.5)
        pair = lift_to_dual(P, [0.0])
        with pytest.raises(OutsideCstarError):
            build_bundle(P, pair)

    def test_degenerate_inner_matrix(self):
        # huge gamma spread makes E = diag(1/gamma) ill conditioned
        P = validate_instance([1.0], [[1.0], [1.0]], [1e16, 1.0],
                              [0.0, 0.0], [0.0], 2.0)
        pair = lift_to_dual(P, [0.0])
        with pytest.raises(DegenerateCriticalPointError):
            build_bundle(P, pair)


class TestImplicitSensitivity:
    def test_hand_value(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        b = build_bundle(p_tri, pair)
        sens = implicit_sensitivity(p_tri, pair, b)
        assert sens[0, 0] == pytest.approx(sqrt2 / 4.0)
        fd = argmax_sensitivity_fd(p_tri, pair)
        assert np.max(np.abs(sens - fd)) <= 1e-6

    def test_zero_when_bx_vanishes(self, p_min):
        pair = lift_to_dual(p_min, [0.0])
        b = build_bundle(p_min, pair)
        assert implicit_sensitivity(p_min, pair, b)[0, 0] == 0.0

    def test_fd_oracle_random(self):
        rng = np.random.default_rng(2)
        tested = 0
        for i in range(8):
            n = int(rng.integers(1, 4))
            N = int(rng.integers(1, 3))
            P = generate_instance(n, N, [30_000, i])
            for pair in find_critical_pairs(P, 8, 7):
                try:
                    b = build_bundle(P, pair)
                except Exception:
                    continue
                sens = implicit_sensitivity(P, pair, b)
                fd = argmax_sensitivity_fd(P, pair)
                assert np.max(np.abs(sens - fd)) <= 1e-4
                tested += 1
        assert tested >= 5


class TestDualHessian:
    def test_fd_hand_values(self, p_tri, p_min, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        fd = dual_hessian_fd(p_tri, pair, 1e-4)
        assert fd[0, 0] == pytest.approx(0.25, abs=1e-5)
        pair = lift_to_dual(p_min, [0.0])
        fd = dual_hessian_fd(p_min, pair, 1e-4)
        assert fd[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-5)
        pair = lift_to_dual(p_tri, [0.0])
        fd = dual_hessian_fd(p_tri, pair, 1e-4)
        assert fd[0, 0] == pytest.approx(-0.5, abs=1e-5)

    def test_analytic_vs_fd_random(self):
        rng = np.random.default_rng(4)
        tested = 0
        for i in range(10):
            n = int(rng.integers(1, 5))
            N = int(rng.integers(1, 4))
            P = generate_instance(n, N, [31_000, i])
            for pair in find_critical_pairs(P, 8, 7):
                try:
                    b = build_bundle(P, pair)
                    fd = dual_hessian_fd(P, pair, 1e-4)
                except Exception:
                    continue
                rel = (np.linalg.norm(b.dual_hessian - fd, "fro")
                       / (1.0 + np.linalg.norm(fd, "fro")))
                assert rel <= 1e-4
                tested += 1
        assert tested >= 8

    def test_statement_convention_fails_fd(self, p_tri, sqrt2):
        # the source derivation's alternative ("statement") convention
        # E = {gamma_l x0^T B_l M^{-1} B_l x0} 1^T + I disagrees with the
        # finite-difference Hessian whenever gamma != 1 scaling matters;
        # here it flips H3 enough to shift the diagonal
        P = validate_instance([-1.0], [[1.0]], [2.0], [0.0], [0.0], 1.0)
        pairs = find_critical_pairs(P, 16, 3)
        pair = next(p for p in pairs if abs(p.x0[0]) > 0.5)
        b = build_bundle(P, pair)
        core = b.P2 @ b.P1
        E_stmt = (P.gamma * np.diag(core))[:, None] * np.ones(P.N)[None, :] \
            + np.eye(P.N)
        H3_stmt = b.P1 @ np.linalg.inv(E_stmt) @ b.P2
        stmt_hessian = -b.H2 + b.H1 + b.H2 @ H3_stmt
        fd = dual_hessian_fd(P, pair, 1e-4)
        err_deriv = np.max(np.abs(b.dual_hessian - fd))
        err_stmt = np.max(np.abs(stmt_hessian - fd))
        assert err_deriv <= 1e-5
        assert err_stmt > 1e-3


class TestChainIdentity:
    def test_hand_pairs(self, p_tri, p_min, sqrt2):
        for P, x in ((p_tri, [sqrt2]), (p_min, [0.0]), (p_tri, [0.0])):
            pair = lift_to_dual(P, x)
            b = build_bundle(P, pair)
            assert verify_chain_identity(P, pair, b) <= 1e-14

    def test_random_ensemble(self):
        rng = np.random.default_rng(6)
        tested = 0
        for i in range(30):
            n = int(rng.integers(1, 7))
            N = int(rng.integers(1, 5))
            P = generate_instance(n, N, [32_000, i])
            for pair in find_critical_pairs(P, 8, 7):
                try:
                    b = build_bundle(P, pair)
                except Exception:
                    continue
                assert verify_chain_identity(P, pair, b) <= 1e-8
                tested += 1
        assert tested >= 30

    def test_alpha1_vanishes_for_scalar_instances(self):
        # n = N = 1 forces alpha1 = 0
        rng = np.random.default_rng(8)
        for i in range(20):
            P = generate_instance(1, 1, [33_000, i])
            for pair in find_critical_pairs(P, 6, 7):
                try:
                    b = build_bundle(P, pair)
                except Exception:
                    continue
                assert np.linalg.norm(b.alpha1) <= 1e-10

    def test_h1_h2_d_positive(self):
        rng = np.random.default_rng(9)
        tested = 0
        for i in range(15):
            n = int(rng.integers(1, 5))
            N = int(rng.integers(1, 4))
            P = generate_instance(n, N, [34_000, i])
            for pair in find_critical_pairs(P, 8, 7):
                try:
                    b = build_bundle(P, pair)
                except Exception:
                    continue
                assert np.min(np.linalg.eigvalsh(b.H1)) > 0.0
                assert np.min(np.linalg.eigvalsh(b.H2)) > 0.0
                # D is not symmetric in general; its spectrum is checked
                # through the symmetric similarity M^{-1/2} D M^{1/2}
                w, V = np.linalg.eigh(b.M)
                root = V @ np.diag(np.sqrt(w)) @ V.T
                inv_root = V @ np.diag(1.0 / np.sqrt(w)) @ V.T
                sim = inv_root @ b.D @ root
                assert np.min(np.linalg.eigvalsh(0.5 * (sim + sim.T))) > 0.0
                tested += 1
        assert tested >= 15

    def test_dual_hessian_asymmetry_reported(self, p_tri, sqrt2):
        pair = lift_to_dual(p_tri, [sqrt2])
        b = build_bundle(p_tri, pair)
        assert b.dual_hessian_asymmetry >= 0.0
        assert b.dual_hessian_asymmetry <= 1e-12
