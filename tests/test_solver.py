"""Energy minimization, truncation machinery, and solution certification."""
from __future__ import annotations

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from fem_reference import (matrix_free_hessian, reference_scatter, reference_values_at_quad,
                           stiffness_matrix, tent_lambda_u)

import plapvar as pv
from plapvar import assembly, eigen, solver

LAM = math.pi**2


@pytest.fixture(scope="module")
def mesh():
    return pv.build_interval_mesh(0.0, 1.0, 64)


class TestTruncation:
    def test_plateau_and_support(self):
        theta = pv.make_truncation(2.0)
        s = np.linspace(-10.0, 10.0, 10001)
        vals = theta(s)
        assert np.all(vals[np.abs(s) <= 2.0] == 1.0)
        assert np.all(vals[np.abs(s) >= 4.0] == 0.0)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_even(self):
        theta = pv.make_truncation(1.3)
        s = np.linspace(0.0, 5.0, 1001)
        assert np.allclose(theta(s), theta(-s))

    @pytest.mark.parametrize("R", [0.5, 1.0, 7.0])
    def test_derivative_budget(self, R):
        theta = pv.make_truncation(R)
        s = np.linspace(-3.0 * R, 3.0 * R, 10001)
        eps = R * 1e-7
        slope = (theta(s + eps) - theta(s - eps)) / (2 * eps)
        assert np.max(np.abs(slope)) <= 2.0 / R

    def test_scalar_call(self):
        theta = pv.make_truncation(1.0)
        out = theta(0.5)
        assert isinstance(out, float) and out == 1.0

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            pv.make_truncation(0.0)
        with pytest.raises(ValueError):
            pv.make_truncation(-1.0)


class TestTruncatedBasis:
    def test_small_fields_keep_full_hats(self, mesh):
        u = pv.interpolate(mesh, lambda x: 0.4 * np.sin(np.pi * x[:, 0]))
        c = pv.truncated_test_basis(mesh, u, R=1.0)
        assert np.array_equal(c, np.ones(mesh.n_free))

    def test_large_values_are_cut(self, mesh):
        vals = np.zeros(mesh.n_free)
        vals[10] = 5.0
        vals[20] = 1.5
        c = pv.truncated_test_basis(mesh, pv.make_field(mesh, vals), R=1.0)
        assert c[10] == 0.0
        assert 0.0 < c[20] < 1.0
        assert c[0] == 1.0

    def test_mesh_mismatch(self, mesh):
        other = pv.build_interval_mesh(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            pv.truncated_test_basis(mesh, pv.zero_field(other), 1.0)


class TestMeshChecks:
    # inputs from another mesh with as many free vertices are refused, not
    # read by position
    @pytest.fixture
    def twin(self):
        return pv.build_interval_mesh(0.0, 2.0, 64)

    def test_verify_refuses_foreign_load(self, mesh, twin):
        u = pv.interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(ValueError, match="different mesh"):
            pv.verify_weak_solution(mesh, u, pv.sine_exp(0.0), pv.load_vector(twin, 1.0), 2.0)

    def test_phi_gradient_refuses_foreign_load(self, mesh, twin):
        u = pv.interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        with pytest.raises(ValueError, match="different mesh"):
            pv.phi_gradient(mesh, u, pv.sine_exp(0.0), pv.load_vector(twin, 1.0), 2.0)

    def test_minimize_refuses_foreign_start(self, mesh, twin):
        start = pv.interpolate(twin, lambda x: np.sin(np.pi * x[:, 0] / 2.0))
        with pytest.raises(ValueError, match="different mesh"):
            pv.minimize_phi(mesh, pv.sine_exp(0.0), pv.load_vector(mesh, 1.0), 2.0,
                            start=start)


class TestPhiAssembly:
    def test_zero_field_zero_functional(self, mesh):
        spec = pv.power_perturbation(LAM, 1.9, 2.0)
        h = pv.load_vector(mesh, 1.0)
        assert pv.assemble_phi(mesh, pv.zero_field(mesh), spec, h, 2.0) == 0.0

    def test_pure_energy_plus_load(self, mesh):
        # with f = 0 the functional is the Dirichlet energy minus the pairing
        spec = pv.sine_exp(0.0)
        h = pv.load_vector(mesh, 1.0)
        rng = np.random.default_rng(7)
        u = pv.make_field(mesh, 0.3 * rng.standard_normal(mesh.n_free))
        phi = pv.assemble_phi(mesh, u, spec, h, 2.0)
        expect = pv.dirichlet_energy(mesh, u, 2.0) - pv.pairing(h, u)
        assert math.isclose(phi, expect, rel_tol=1e-12)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_gradient_matches_fd(self, mesh, p):
        spec = pv.power_perturbation(LAM, 1.9, p)
        h = pv.load_vector(mesh, lambda x: np.cos(np.pi * x[:, 0]))
        rng = np.random.default_rng(1)
        u0 = 0.5 * rng.standard_normal(mesh.n_free)
        g = pv.phi_gradient(mesh, pv.make_field(mesh, u0), spec, h, p).values
        scale = float(np.max(np.abs(g)))
        eps = 1e-6
        for j in range(0, mesh.n_free, 7):
            up = u0.copy(); up[j] += eps
            um = u0.copy(); um[j] -= eps
            fd = (pv.assemble_phi(mesh, pv.make_field(mesh, up), spec, h, p)
                  - pv.assemble_phi(mesh, pv.make_field(mesh, um), spec, h, p)
                  ) / (2 * eps)
            assert abs(fd - g[j]) < 1e-5 * scale


class TestMinimize:
    def test_poisson_nodal_solution(self, mesh):
        # f = 0, h = 1: discrete minimizer is the interpolated x(1-x)/2
        spec = pv.sine_exp(0.0)
        h = pv.load_vector(mesh, 1.0)
        res = pv.minimize_phi(mesh, spec, h, 2.0)
        assert res.converged
        x = mesh.free_coordinates()[:, 0]
        assert np.max(np.abs(res.u.values - 0.5 * x * (1 - x))) < 1e-4
        assert res.stationarity < 1e-8

    def test_zero_data_zero_solution(self, mesh):
        spec = pv.power_perturbation(LAM, 1.9, 2.0)
        res = pv.minimize_phi(mesh, spec, pv.zero_dual(mesh), 2.0)
        assert res.converged
        assert np.max(np.abs(res.u.values)) < 1e-6
        assert abs(res.phi) < 1e-10

    def test_detects_unbounded_functional(self, mesh):
        spec = pv.power_potential(2.0 * LAM, 2.0, LAM)
        h = pv.load_vector(mesh, 1.0)
        with pytest.raises(pv.UnboundedBelowError) as exc:
            pv.minimize_phi(mesh, spec, h, 2.0)
        assert exc.value.phi < -1e12
        assert exc.value.last.values.shape == (mesh.n_free,)

    def test_custom_start_same_minimum(self, mesh):
        spec = pv.sine_exp(0.0)
        h = pv.load_vector(mesh, 1.0)
        base = pv.minimize_phi(mesh, spec, h, 2.0)
        warm = pv.minimize_phi(
            mesh, spec, h, 2.0,
            start=pv.interpolate(mesh, lambda x: x[:, 0] * (1 - x[:, 0])))
        assert math.isclose(base.phi, warm.phi, rel_tol=1e-8)

    def test_minimum_beats_probes(self, mesh):
        # the reported minimizer scores below small perturbations of itself
        spec = pv.power_perturbation(LAM, 1.9, 2.0)
        h = pv.load_vector(mesh, lambda x: 0.2 * np.sin(np.pi * x[:, 0]))
        res = pv.minimize_phi(mesh, spec, h, 2.0)
        rng = np.random.default_rng(12)
        for _ in range(10):
            probe = res.u.values + 1e-3 * rng.standard_normal(mesh.n_free)
            phi = pv.assemble_phi(mesh, pv.make_field(mesh, probe), spec, h, 2.0)
            assert phi >= res.phi - 1e-12

    def test_two_dimensional_quadratic_order(self):
        # nodal error of the linear model problem contracts like h^2
        errs = []
        for n in (8, 16):
            mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, n, n)
            spec = pv.sine_exp(0.0)
            h = pv.load_vector(
                mesh, lambda x: 2 * np.pi**2 * np.sin(np.pi * x[:, 0])
                * np.sin(np.pi * x[:, 1]))
            res = pv.minimize_phi(mesh, spec, h, 2.0)
            c = mesh.free_coordinates()
            exact = np.sin(np.pi * c[:, 0]) * np.sin(np.pi * c[:, 1])
            errs.append(np.max(np.abs(res.u.values - exact)))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_stationarity_is_the_certificate_norm(self, mesh):
        # at the default radius every c_j = 1: the descent's residual and
        # the certificate's are one number
        spec = pv.power_perturbation(LAM, 1.9, 2.0)
        h = pv.load_vector(mesh, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        res = pv.minimize_phi(mesh, spec, h, 2.0)
        check = pv.verify_weak_solution(mesh, res.u, spec, h, 2.0)
        assert res.stationarity == check.max_relative

    def test_stationarity_is_scale_free(self, mesh):
        # p = 2 and f linear in s: scaling h by 1e6 scales every iterate by
        # 1e6, and the relative residual stays put (a density would not).
        # One step: the Newton descent solves this linear problem in two
        spec = pv.power_potential(3.0, 2.0)
        h = pv.load_vector(mesh, lambda x: np.sin(3 * np.pi * x[:, 0]))
        base = pv.minimize_phi(mesh, spec, h, 2.0, max_iter=1)
        big = pv.minimize_phi(mesh, spec, pv.make_dual(mesh, 1e6 * h.values), 2.0,
                              max_iter=1)
        assert base.iterations == big.iterations == 1
        assert base.stationarity > 1e-6
        assert math.isclose(big.stationarity, base.stationarity, rel_tol=1e-9)


class TestArmijo:
    def test_first_sufficient_decrease_on_quadratic(self):
        # f(x) = x^2 from x = 1 along the overlong direction d = 8: the
        # gradient 2 gives slope 16, and t = 1, 1/2, 1/4 miss the bound
        tried = []

        def at(t):
            tried.append(t)
            return (1.0 - 8.0 * t) ** 2, t

        value, state, rejected = pv.solver.armijo(at, 1.0, 16.0)
        assert tried == [1.0, 0.5, 0.25, 0.125]
        assert (value, state, rejected) == (0.0, 0.125, 3)

    def test_infeasible_trials_exhaust_the_search(self):
        tried = []

        def at(t):
            tried.append(t)
            return None

        assert pv.solver.armijo(at, 1.0, 1.0) == (None, None, 60)
        assert len(tried) == 60


class TestLambdaU:
    def test_matches_tent_formula(self, mesh):
        # u == 1 away from the boundary ramps makes the load density one, so
        # the tent quotient is h_c / sqrt(2/h_c + 2 h_c / 3) maximized over
        # the dyadic half-widths
        u = pv.interpolate(mesh, lambda x: np.ones(len(x)))
        spec = pv.power_potential(1.0, 2.0, LAM)
        val = pv.estimate_lambda_u(mesh, u, spec, 2.0)
        widths = np.array([k / 64 for k in (1, 2, 4, 8, 16, 32)])
        formula = np.max(widths / np.sqrt(2.0 / widths + 2.0 * widths / 3.0))
        assert abs(val - formula) < 0.01 * formula

    def test_monotone_under_refinement(self, mesh):
        spec = pv.power_potential(1.0, 2.0, LAM)
        fine = pv.refine_structured(mesh)
        coarse_val = pv.estimate_lambda_u(
            mesh, pv.interpolate(mesh, lambda x: np.ones(len(x))), spec, 2.0)
        fine_val = pv.estimate_lambda_u(
            fine, pv.interpolate(fine, lambda x: np.ones(len(x))), spec, 2.0)
        assert fine_val >= coarse_val - 1e-12

    def test_zero_field_zero_load(self, mesh):
        # f(x, 0) = 0 for the pure power: nothing to push against
        spec = pv.power_potential(1.0, 2.0, LAM)
        assert pv.estimate_lambda_u(mesh, pv.zero_field(mesh), spec, 2.0) == 0.0

    @pytest.mark.parametrize("p", [1.2, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3, 4, 96, 100, 128, 1000])
    def test_interval_matches_dense_tents(self, n, p):
        # the coarse hats by restriction are the dyadic tents, levels included
        mesh = pv.build_interval_mesh(-1.0, 2.5, n)
        u = pv.make_field(mesh, np.random.default_rng(n).standard_normal(mesh.n_free))
        spec = pv.power_potential(1.0, p, LAM)
        got = pv.estimate_lambda_u(mesh, u, spec, p)
        expect = tent_lambda_u(mesh, solver.nonlinear_load(mesh, u, spec).values, p)
        assert abs(got - expect) <= 1e-14 * expect

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_rectangle_monotone_under_refinement(self, p):
        spec = pv.power_potential(1.0, p, LAM)
        ones = lambda x: np.ones(len(x))
        values = []
        for n in (8, 16, 32, 64):
            m = _square(n)
            values.append(pv.estimate_lambda_u(m, pv.interpolate(m, ones), spec, p))
        assert values == sorted(values) and values[0] > 0.0

    def test_interval_memory_is_linear(self):
        # 268 MB for the dense (tents x free vertices) matrix at n = 4096
        mesh = pv.build_interval_mesh(0.0, 1.0, 4096)
        u = pv.interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        spec = pv.power_potential(1.0, 2.0, LAM)
        tracemalloc.start()
        try:
            pv.estimate_lambda_u(mesh, u, spec, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestVerifyWeakSolution:
    def test_certifies_poisson_minimizer(self, mesh):
        spec = pv.sine_exp(0.0)
        h = pv.load_vector(mesh, 1.0)
        res = pv.minimize_phi(mesh, spec, h, 2.0)
        rep = pv.verify_weak_solution(mesh, res.u, spec, h, 2.0)
        assert rep.passed
        assert rep.max_abs < 1e-8
        assert rep.max_relative < 1e-6

    def test_eigenpair_solves_its_own_equation(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 512)
        eig = pv.first_eigenpair(mesh, 2.0)
        spec = pv.power_potential(eig.lambda1, 2.0, eig.lambda1)
        rep = pv.verify_weak_solution(mesh, eig.phi1, spec,
                                      pv.zero_dual(mesh), 2.0)
        assert rep.passed
        assert rep.max_relative < 1e-6

    def test_wrong_field_rejected(self, mesh):
        spec = pv.sine_exp(0.0)
        h = pv.load_vector(mesh, 1.0)
        bad = pv.interpolate(mesh, lambda x: x[:, 0] * (1 - x[:, 0]))  # 2x scale
        rep = pv.verify_weak_solution(mesh, bad, spec, h, 2.0)
        assert not rep.passed

    def test_default_truncation_radius(self, mesh):
        spec = pv.sine_exp(0.0)
        h = pv.load_vector(mesh, 1.0)
        res = pv.minimize_phi(mesh, spec, h, 2.0)
        rep = pv.verify_weak_solution(mesh, res.u, spec, h, 2.0)
        assert math.isclose(rep.truncation_radius,
                            2.0 * pv.sup_norm(mesh, res.u), rel_tol=1e-12)

    def test_reports_lambda_u(self, mesh):
        spec = pv.power_perturbation(LAM, 1.9, 2.0)
        h = pv.load_vector(mesh, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        res = pv.minimize_phi(mesh, spec, h, 2.0)
        rep = pv.verify_weak_solution(mesh, res.u, spec, h, 2.0)
        assert rep.lambda_u > 0.0
        assert rep.passed

    @pytest.mark.parametrize("shape", ["interval", "square"])
    def test_one_load_per_verify(self, shape, monkeypatch):
        # the weak terms' load also feeds the dual-norm estimate
        mesh = pv.build_interval_mesh(0.0, 1.0, 64) if shape == "interval" \
            else pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 8, 8)
        spec = pv.power_perturbation(LAM, 1.9, 2.0)
        h = pv.load_vector(mesh, 1.0)
        u = pv.interpolate(mesh, lambda x: np.prod(np.sin(np.pi * x), axis=1))
        expect = pv.estimate_lambda_u(mesh, u, spec, 2.0)
        calls = []
        real = solver.nonlinear_load

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "nonlinear_load", counting)
        rep = pv.verify_weak_solution(mesh, u, spec, h, 2.0)
        assert len(calls) == 1
        assert rep.lambda_u == expect > 0.0


def _square(n):
    return pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, n, n)


class TestNewtonDescent:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.5, 4.0, 8.0])
    @pytest.mark.parametrize("shape", ["interval", "square"])
    def test_reaches_grad_tol_over_the_p_range(self, shape, p):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64) if shape == "interval" else _square(16)
        eig = pv.first_eigenpair(mesh, p)
        spec = pv.power_perturbation(eig.lambda1, (1.0 + p) / 2.0, p)
        h = pv.load_vector(mesh, 1.0)
        res = pv.minimize_phi(mesh, spec, h, p)
        assert res.stop_reason == "stationarity"
        assert res.converged
        assert res.stationarity < 1e-8
        assert res.iterations <= 60

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 2000])
    def test_converged_means_stationarity(self, mesh, max_iter):
        spec = pv.power_perturbation(LAM, 1.9, 2.0)
        h = pv.load_vector(mesh, lambda x: 0.3 * np.sin(np.pi * x[:, 0]))
        res = pv.minimize_phi(mesh, spec, h, 2.0, max_iter=max_iter)
        assert res.converged == (res.stop_reason == "stationarity")
        assert res.converged == (res.stationarity < 1e-8)
        if max_iter < 2:
            assert res.stop_reason == "max-iter" and res.iterations == max_iter

    def test_counters(self):
        mesh = _square(16)
        spec = pv.power_perturbation(30.0, 1.75, 2.5)
        h = pv.load_vector(mesh, 1.0)
        a = pv.minimize_phi(mesh, spec, h, 2.5)
        b = pv.minimize_phi(mesh, spec, h, 2.5)
        assert a.trials > 0 and a.cg_iterations > 0
        assert a.trials == a.iterations + a.backtracks
        assert (a.trials, a.cg_iterations, a.iterations) == (
            b.trials, b.cg_iterations, b.iterations)
        assert np.array_equal(a.u.values, b.u.values)

    def test_residual_history_ends_at_stationarity(self):
        mesh = _square(16)
        spec = pv.power_perturbation(30.0, 1.75, 2.5)
        res = pv.minimize_phi(mesh, spec, pv.load_vector(mesh, 1.0), 2.5)
        assert res.stop_reason == "stationarity"
        assert len(res.residual_history) == res.iterations + 1
        assert res.residual_history[-1] == res.stationarity
        assert res.residual_history[0] >= solver.STATIONARITY_STOP > res.stationarity

    def test_zero_solve_counts_nothing(self, mesh):
        spec = pv.power_perturbation(LAM, 1.9, 2.0)
        res = pv.minimize_phi(mesh, spec, pv.zero_dual(mesh), 2.0)
        assert (res.iterations, res.trials, res.cg_iterations) == (0, 0, 0)


class TestPoissonSolve:
    # the closed-form K^-1 against the assembled stiffness matrix: the
    # normwise backward error ||K x - b|| / (||K|| ||x|| + ||b||) of
    # x = solve(b) is at rounding level (a plain ||K x - b|| / ||b|| cannot
    # be: at n = 4096 the correctly rounded K^-1 b already reads 3e-12 on a
    # random b); b = K y is a high-frequency right-hand side
    @pytest.mark.parametrize("mesh", [
        pv.build_interval_mesh(-1.0, 2.5, 2),
        pv.build_interval_mesh(-1.0, 2.5, 128),
        pv.build_interval_mesh(-1.0, 2.5, 4096),
        pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 32, 32),
        pv.build_rectangle_mesh(0.5, 2.5, -1.0, -0.3, 12, 20),
    ], ids=["interval-2", "interval-128", "interval-4096", "square-32", "rect-12x20"])
    @pytest.mark.parametrize("rhs", ["random", "stiffness-image"])
    def test_inverts_stiffness_matrix(self, mesh, rhs):
        K = stiffness_matrix(mesh)
        b = np.random.default_rng(mesh.n_free).standard_normal(mesh.n_free)
        if rhs == "stiffness-image":
            b = K @ b
        x = solver._poisson_solve(mesh)(b)
        norm_K = float(abs(K).sum(axis=1).max())
        err = np.linalg.norm(K @ x - b)
        assert err <= 1e-14 * (norm_K * np.linalg.norm(x) + np.linalg.norm(b))


class TestHessian:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("shape", ["interval", "square"])
    def test_operator_matches_gradient_differences(self, shape, p):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64) if shape == "interval" else _square(8)
        spec = pv.power_perturbation(LAM, (1.0 + p) / 2.0, p)
        h = pv.load_vector(mesh, 1.0)
        rng = np.random.default_rng(int(10 * p))
        u = pv.make_field(mesh, 1.0 + 0.5 * rng.standard_normal(mesh.n_free))
        v = rng.standard_normal(mesh.n_free)
        Hv = solver._phi_hessian(mesh, spec, p, u)(v)
        eps = 1e-6
        grad = [pv.phi_gradient(mesh, pv.make_field(mesh, u.values + s * eps * v),
                                spec, h, p).values for s in (1.0, -1.0)]
        fd = (grad[0] - grad[1]) / (2.0 * eps)
        assert np.max(np.abs(Hv - fd)) <= 1e-6 * np.max(np.abs(Hv))

    def test_weights_reduce_to_stiffness_at_p2(self):
        # M = |T| I at p = 2, below the gradient floor too; there M is 0 at p = 3
        mesh = _square(8)
        g = np.zeros((mesh.n_elements, mesh.ndim))
        g[::3] = 1.0
        M = assembly._flux_weights(mesh, g, 2.0)
        assert np.array_equal(M[0, 0], mesh.measures)
        assert np.array_equal(M[1, 1], mesh.measures)
        assert np.all(M[0, 1] == 0.0)
        M = assembly._flux_weights(mesh, g, 3.0)
        assert all(np.all(m[1::3] == 0.0) for m in M.values())

    def test_newton_counts_match_matrix_free(self, monkeypatch):
        # the audit_rect problem: both descents take the same steps, trials and
        # CG products with the stencil as with the matrix-free oracle
        mesh, p = _square(32), 3.0

        def pipeline():
            eig = pv.first_eigenpair(mesh, p)
            spec = pv.power_perturbation(eig.lambda1, 2.0, p)
            h = assembly.quad_load(mesh, 0.1 * assembly.values_at_quad(mesh, eig.phi1))
            return eig, pv.minimize_phi(mesh, spec, h, p)

        eig, res = pipeline()
        monkeypatch.setattr(eigen, "_hessian_stencil", matrix_free_hessian)
        monkeypatch.setattr(solver, "_hessian_stencil", matrix_free_hessian)
        eig_mf, res_mf = pipeline()
        for a, b in ((eig, eig_mf), (res, res_mf)):
            assert (a.iterations, a.trials, a.cg_iterations) == (
                b.iterations, b.trials, b.cg_iterations)
        assert (eig.iterations, res.iterations) == (6, 8)
        assert math.isclose(eig.lambda1, eig_mf.lambda1, rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(res.phi, res_mf.phi, rel_tol=1e-12, abs_tol=0.0)

    def test_blocked_derivative_is_bit_identical(self, monkeypatch):
        # f' is evaluated on the `assembly._quad_blocks` blocks; 48 x 48 has
        # 4608 elements, four full blocks and a partial one.  A spec that
        # reads x gets each block's points; the autonomous power_perturbation
        # ignores x and gets the mesh's first quadrature point for every block
        mesh = _square(48)
        assert mesh.n_elements % assembly.QUAD_BLOCK
        nq = mesh.quad_weights.shape[1]
        x = mesh.free_coordinates()
        u = 3.0 * np.sin(np.pi * x[:, 0]) * np.sin(2 * np.pi * x[:, 1])
        calls = []
        real_eval_f = solver.eval_f

        def counting(spec_, pts, s):
            calls.append((np.array(pts), np.size(s)))
            return real_eval_f(spec_, pts, s)

        monkeypatch.setattr(solver, "eval_f", counting)
        block = assembly.QUAD_BLOCK
        for name in ("points", "power"):
            monkeypatch.setattr(assembly, "QUAD_BLOCK", block)
            spec = _BLOCK_SPECS[name]()
            calls.clear()
            blocked = solver._df_at_quad(mesh, spec, u)
            assert len(calls) == 2 * math.ceil(mesh.n_elements / assembly.QUAD_BLOCK)
            sizes = [size for _, size in calls]
            assert max(sizes) == assembly.QUAD_BLOCK * nq
            assert sum(sizes) == 2 * mesh.quad_weights.size
            if name == "points":
                assert all(len(pts) == size for pts, size in calls)
            else:
                first = mesh.quad_points_of(slice(1))[0, :1]
                assert all(np.array_equal(pts, first) for pts, _ in calls)
            monkeypatch.setattr(assembly, "QUAD_BLOCK", mesh.n_elements)
            whole = solver._df_at_quad(mesh, spec, u)
            monkeypatch.setattr(assembly, "QUAD_BLOCK", 7)
            tiny = solver._df_at_quad(mesh, spec, u)
            assert np.array_equal(blocked, whole) and np.array_equal(tiny, whole)
            assert blocked.shape == mesh.quad_weights.shape


# meshes whose element counts (480, 4096, 32768) leave a partial last block
# at the block size 37, and fill whole blocks or less than one at the default
_BLOCK_MESHES = {
    "rect-12x20": lambda: pv.build_rectangle_mesh(0.5, 2.5, -1.0, -0.3, 12, 20),
    "interval-4096": lambda: pv.build_interval_mesh(-1.0, 2.5, 4096),
    "square-128": lambda: _square(128),
}


@pytest.fixture(scope="module", params=list(_BLOCK_MESHES))
def block_mesh(request):
    return _BLOCK_MESHES[request.param]()


def _smooth(mesh, scale=2.0):
    x = mesh.free_coordinates()
    return scale * np.prod(np.sin(3.0 * x + 0.4), axis=1)


_BLOCK_SPECS = {
    "power": lambda: pv.power_perturbation(LAM, 1.75, 2.5),
    "sine-weighted": lambda: pv.sine_exp(lambda x: 1.0 + x[:, 0] ** 2),
    "sine-constant": lambda: pv.sine_exp(1.0),  # autonomous: one point
    "points": lambda: pv.NonlinearitySpec(
        "points", f=lambda x, s: (1.0 + x[:, -1]) * np.sin(s) + s ** 3,
        F=lambda x, s: (1.0 + x[:, -1]) * (1.0 - np.cos(s)) + s ** 4 / 4.0),
}


class TestBlockPass:
    """The descent's f, F and f' on element blocks against the unblocked formulas."""

    @pytest.fixture(params=[None, 37], ids=["default-block", "block-37"])
    def block(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(assembly, "QUAD_BLOCK", request.param)

    @pytest.mark.parametrize("name", list(_BLOCK_SPECS))
    def test_load_and_potential_match_unblocked(self, block_mesh, name, block):
        mesh, spec = block_mesh, _BLOCK_SPECS[name]()
        u = pv.make_field(mesh, _smooth(mesh))
        u_q = reference_values_at_quad(mesh, u.values).reshape(-1)
        pts = mesh.quad_points_flat()
        f_q = pv.eval_f(spec, pts, u_q).reshape(mesh.quad_weights.shape)
        load = reference_scatter(mesh, (mesh.quad_weights * f_q) @ mesh.basis_at_quad)
        assert np.array_equal(solver.nonlinear_load(mesh, u, spec).values, load)
        pot = assembly._reduce(mesh.quad_weights_flat() * pv.eval_F(spec, pts, u_q))
        assert math.isclose(solver.potential_integral(mesh, u, spec), pot,
                            rel_tol=1e-14, abs_tol=0.0)

    @pytest.mark.parametrize("name", ["power", "points"])
    def test_hessian_product_matches_unblocked(self, block_mesh, name, block):
        # the assembled stencil against the matrix-free energy(v) - quad_load(f' v)
        # of the unblocked central difference f'
        mesh, spec, p = block_mesh, _BLOCK_SPECS[name](), 2.5
        u = pv.make_field(mesh, _smooth(mesh))
        v = _smooth(mesh, -0.7)[::-1].copy()
        pts = mesh.quad_points_flat()
        s = reference_values_at_quad(mesh, u.values).reshape(-1)
        step = solver.FD_STEP * np.maximum(1.0, np.abs(s))
        df = (pv.eval_f(spec, pts, s + step) - pv.eval_f(spec, pts, s - step)) / (
            (s + step) - (s - step))
        M = assembly._flux_weights(mesh, assembly.gradients_on_elements(mesh, u), p)
        expect = matrix_free_hessian(mesh, M, df.reshape(mesh.quad_weights.shape))(v)
        got = solver._phi_hessian(mesh, spec, p, u)(v)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))

    def test_signed_infinities_in_different_blocks(self):
        # interval n = 4096: the default block is a quarter of the interval,
        # so x < 0.1 and x > 0.9 lie in the first and the last block
        mesh = pv.build_interval_mesh(0.0, 1.0, 4096)
        assert mesh.n_elements // assembly.QUAD_BLOCK == 4
        u = pv.make_field(mesh, _smooth(mesh))

        def potential(left, right):
            spec = pv.NonlinearitySpec("tails", f=lambda x, s: s, F=lambda x, s: np.where(
                x[:, 0] < 0.1, left, np.where(x[:, 0] > 0.9, right, s * s / 2.0)))
            return solver.potential_integral(mesh, u, spec)

        assert potential(np.inf, -np.inf) == -math.inf
        assert potential(-np.inf, np.inf) == -math.inf
        assert potential(np.inf, 0.0) == math.inf
        assert potential(0.0, np.inf) == math.inf
        assert potential(0.0, -np.inf) == -math.inf
        assert potential(0.0, np.nan) == -math.inf
        assert potential(np.inf, np.nan) == -math.inf
        assert math.isfinite(potential(0.0, 0.0))

    def test_non_finite_f_names_its_point(self, monkeypatch):
        # two bad nodes in the third and the sixth block: the first is named
        monkeypatch.setattr(assembly, "QUAD_BLOCK", 37)
        mesh = pv.build_rectangle_mesh(0.5, 2.5, -1.0, -0.3, 12, 20)
        nq = mesh.quad_weights.shape[1]
        pts = mesh.quad_points_flat()
        first, second = (2 * 37 + 5) * nq + 3, (5 * 37 + 1) * nq
        bad = pts[[first, second]]

        def f(x, s):
            hit = np.any(np.all(x[:, None, :] == bad[None], axis=2), axis=1)
            return np.where(hit, np.inf, s)

        spec = pv.NonlinearitySpec("spike", f=f, F=lambda x, s: s * s / 2.0)
        u = pv.make_field(mesh, _smooth(mesh))
        with pytest.raises(ValueError, match="not finite") as exc:
            solver.nonlinear_load(mesh, u, spec)
        assert str(pts[first]) in str(exc.value)
        assert str(pts[second]) not in str(exc.value)

    def test_peak_memory_below_one_quadrature_array(self):
        # nonlinear_load, potential_integral and a Hessian product on 128 x 128
        # hold block-sized temporaries; one (ne, nq) float64 array is 1.5 MB
        import tracemalloc

        mesh = _square(128)
        limit = mesh.quad_weights.size * 8
        assert limit == 1_572_864
        spec, p = pv.power_perturbation(LAM, 2.0, 2.5), 2.5
        u = pv.make_field(mesh, _smooth(mesh))
        v = _smooth(mesh, -0.7)
        hessian = solver._phi_hessian(mesh, spec, p, u)
        for call in (lambda: solver.nonlinear_load(mesh, u, spec),
                     lambda: solver.potential_integral(mesh, u, spec),
                     lambda: hessian(v)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit


class TestOnePointForAutonomousSpecs:
    """A spec that ignores x is evaluated at the mesh's first quadrature point."""

    @staticmethod
    def _spec(autonomous, F=lambda x, s: 2.0 * s):
        # f returns one value per row of x: (1,) at one point
        return pv.NonlinearitySpec("row_constant", f=lambda x, s: np.full(len(x), 2.0),
                                   F=F, autonomous=autonomous)

    def test_one_value_is_broadcast(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 2.0, 40, 30)
        u = pv.make_field(mesh, _smooth(mesh))

        def flat_F(x, s):
            return np.full(len(x), 0.5)

        one = self._spec(True, flat_F)
        assert np.shape(one.f(mesh.quad_points_of(slice(1))[0, :1], 0.0)) == (1,)
        load = solver.nonlinear_load(mesh, u, one).values
        potential = solver.potential_integral(mesh, u, one)
        df = solver._df_at_quad(mesh, one, u.values)
        assert "quad_points" not in vars(mesh)
        every = self._spec(False, flat_F)
        assert np.array_equal(load, solver.nonlinear_load(mesh, u, every).values)
        assert np.array_equal(load, pv.load_vector(mesh, 2.0).values)
        assert potential == solver.potential_integral(mesh, u, every)
        assert np.array_equal(df, np.zeros(mesh.quad_weights.shape))

    def test_solve_matches_the_spec_that_reads_x(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        h = pv.zero_dual(mesh)
        one = pv.minimize_phi(mesh, self._spec(True), h, 2.5)
        every = pv.minimize_phi(mesh, self._spec(False), h, 2.5)
        assert one.converged and one.phi == every.phi
        assert np.array_equal(one.u.values, every.u.values)


    def test_constant_weight_sine_exp_keeps_its_bits(self):
        # sine_exp(1.0) is autonomous, so its constant weight is read at one
        # point; its bits are those of the weight read at every point
        mesh = pv.build_rectangle_mesh(0.0, 1.0, -0.5, 0.5, 24, 20)
        spec = pv.sine_exp(1.0)
        h = pv.load_vector(mesh, lambda x: 3.0 * np.cos(np.pi * x[:, 1]))
        res = pv.minimize_phi(mesh, spec, h, 2.5)
        rep = pv.verify_weak_solution(mesh, res.u, spec, h, 2.5)
        assert "quad_points" not in vars(mesh)
        assert (res.stop_reason, res.iterations, res.trials, res.cg_iterations) == (
            "stationarity", 6, 6, 17)
        assert res.phi.hex() == "-0x1.db03ce994bcaap-4"
        assert hashlib.sha256(res.u.values.tobytes()).hexdigest() == (
            "76bf85be5929bd1814697d9abb886efda8e5bb9a98cec9a8a5508c9e339e3034")
        assert rep.max_relative.hex() == "0x1.3a63c29ec2a53p-31"
        assert rep.lambda_u.hex() == "0x1.4d60564e8f590p-7"


class TestNaNResidual:
    """A NaN weak or eigen residual is never read as converged."""

    def test_norms_keep_the_nan(self):
        _, max_abs, scale, rel = solver._residual_norms(np.array([np.nan, 1.0]),
                                                        np.array([1.0, 0.0]))
        assert math.isnan(max_abs) and math.isnan(scale) and math.isnan(rel)
        assert solver._residual_norms(np.zeros(3), np.zeros(3))[3] == 0.0

    def test_no_converged_flag_on_nan(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 16)
        spec = pv.power_perturbation(LAM, 1.5, 2.0)
        h = pv.make_dual(mesh, np.full(mesh.n_free, np.nan))
        rep = pv.verify_weak_solution(mesh, pv.zero_field(mesh), spec, h, 2.0)
        assert math.isnan(rep.max_relative) and not rep.passed
        with pytest.raises(ValueError, match="finite h"):
            pv.minimize_phi(mesh, spec, h, 2.0, max_iter=5)
        nan_weights = np.full(mesh.quad_weights.shape, np.nan)
        with pytest.raises(pv.EigenConvergenceError) as exc:
            pv.first_eigenpair(dataclasses.replace(mesh, quad_weights=nan_weights), 2.0,
                               max_iter=5)
        assert math.isnan(exc.value.result.residual)
        assert exc.value.result.stop_reason != "residual"

    @pytest.mark.parametrize("what", ["h", "start"])
    def test_minimize_phi_refuses_infinite_data(self, what):
        # refused before any work: an infinite h used to leak a RuntimeWarning
        # from `pairing`, an infinite start one from `_poisson_solve`
        mesh = pv.build_interval_mesh(0.0, 1.0, 16)
        spec = pv.power_perturbation(LAM, 1.5, 2.0)
        bad = np.zeros(mesh.n_free)
        bad[3] = -np.inf
        h, start = pv.make_dual(mesh, np.ones(mesh.n_free)), None
        if what == "h":
            h = pv.make_dual(mesh, bad)
        else:
            start = pv.make_field(mesh, bad)
        with pytest.raises(ValueError, match=f"finite {what}"):
            pv.minimize_phi(mesh, spec, h, 2.0, start=start)


def test_spatial_sine_exp_solve_keeps_its_bits():
    # a weight that reads x: every block's points enter f, F and f', and
    # any change in how they are made shows in these bits
    mesh = pv.build_rectangle_mesh(0.0, 1.0, -0.5, 0.5, 24, 20)
    spec = pv.sine_exp(lambda x: 1.0 + x[:, 0] ** 2)
    h = pv.load_vector(mesh, lambda x: 3.0 * np.cos(np.pi * x[:, 1]))
    res = pv.minimize_phi(mesh, spec, h, 2.5)
    assert (res.stop_reason, res.iterations, res.trials, res.cg_iterations) == (
        "stationarity", 6, 6, 17)
    assert res.phi.hex() == "-0x1.c099aa091bff7p-4"
    assert hashlib.sha256(res.u.values.tobytes()).hexdigest() == (
        "f5b2e5a7245cfbf26a79dbdefb9f4e7f17b694906407f79af13f4b8a47525149")
    rep = pv.verify_weak_solution(mesh, res.u, spec, h, 2.5)
    assert rep.max_relative.hex() == "0x1.ccfa892a4510dp-30"
    assert rep.lambda_u.hex() == "0x1.97029c3e3653fp-7"
