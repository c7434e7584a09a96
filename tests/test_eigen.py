"""First eigenpair of the Dirichlet p-Laplacian on intervals and rectangles."""
from __future__ import annotations

import math

import numpy as np
import pytest

import plapvar as pv


def interval_lambda1(p):
    """Closed form for the first eigenvalue on the unit interval."""
    return (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p))) ** p


class TestLinearCase:
    def test_unit_interval_value(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 512)
        eig = pv.first_eigenpair(mesh, 2.0)
        assert abs(eig.lambda1 - math.pi**2) / math.pi**2 < 5e-3

    def test_discrete_sine_is_exact(self):
        # the interpolated sine is already the discrete minimizer, so the
        # iteration accepts it immediately
        mesh = pv.build_interval_mesh(0.0, 1.0, 128)
        eig = pv.first_eigenpair(mesh, 2.0)
        assert eig.iterations == 0
        assert math.isclose(eig.lambda1, 9.870099859294854, rel_tol=1e-12)

    def test_eigenfunction_shape(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 512)
        eig = pv.first_eigenpair(mesh, 2.0)
        x = mesh.free_coordinates()[:, 0]
        target = math.sqrt(2.0) * np.sin(math.pi * x)
        diff = np.max(np.abs(eig.phi1.values - target))
        assert diff < 0.01 * np.max(np.abs(target))

    def test_scaled_interval(self):
        mesh = pv.build_interval_mesh(0.0, 2.0, 256)
        eig = pv.first_eigenpair(mesh, 2.0)
        assert abs(eig.lambda1 - math.pi**2 / 4.0) / (math.pi**2 / 4.0) < 5e-3

    def test_unit_square(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 32, 32)
        eig = pv.first_eigenpair(mesh, 2.0)
        assert abs(eig.lambda1 - 2.0 * math.pi**2) / (2.0 * math.pi**2) < 0.02


class TestNonlinearCase:
    def test_p3_mesh_ladder(self):
        exact = interval_lambda1(3.0)
        values = []
        for n in (64, 128, 256):
            mesh = pv.build_interval_mesh(0.0, 1.0, n)
            values.append(pv.first_eigenpair(mesh, 3.0).lambda1)
        assert values[0] > values[1] > values[2] > exact
        assert (values[2] - exact) / exact < 1e-3

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_closed_form_tracks(self, p):
        mesh = pv.build_interval_mesh(0.0, 1.0, 128)
        eig = pv.first_eigenpair(mesh, p)
        exact = interval_lambda1(p)
        assert abs(eig.lambda1 - exact) / exact < 5e-3

    @pytest.mark.parametrize("p", [1.2, 1.35, 1.5])
    def test_p1_error_falls_quadratically_below_p2(self, p):
        exact = interval_lambda1(p)
        err = [abs(pv.first_eigenpair(pv.build_interval_mesh(0.0, 1.0, n), p).lambda1
                   - exact) / exact for n in (64, 128)]
        # P1 eigenvalues converge at O(h^2): halving h divides the error by 4
        assert 3.5 < err[0] / err[1] < 4.5
        assert err[1] < 1e-4

    def test_p2_closed_form_is_pi_squared(self):
        assert math.isclose(interval_lambda1(2.0), math.pi**2, rel_tol=1e-15)


class TestInvariants:
    @pytest.mark.parametrize("p,mesh", [
        (2.0, pv.build_interval_mesh(0.0, 1.0, 64)),
        (3.0, pv.build_interval_mesh(0.0, 1.0, 64)),
        (1.5, pv.build_interval_mesh(0.0, 1.0, 64)),
        (2.5, pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 12, 12)),
    ])
    def test_positivity_normalization_residual(self, p, mesh):
        eig = pv.first_eigenpair(mesh, p)
        assert (eig.phi1.values > 0.0).all()
        assert math.isclose(pv.lp_integral(mesh, eig.phi1, p), 1.0, rel_tol=1e-10)
        assert eig.residual < 1e-6
        assert math.isclose(pv.rayleigh_quotient(mesh, eig.phi1, p),
                            eig.lambda1, rel_tol=1e-12)

    def test_rayleigh_lower_bound(self):
        # lambda1 minimizes the quotient, so any other field scores higher
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        p = 2.5
        eig = pv.first_eigenpair(mesh, p)
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = pv.make_field(mesh, rng.standard_normal(mesh.n_free))
            assert pv.rayleigh_quotient(mesh, u, p) >= eig.lambda1 - 1e-10

    def test_deterministic(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        a = pv.first_eigenpair(mesh, 3.0)
        b = pv.first_eigenpair(mesh, 3.0)
        assert a.lambda1 == b.lambda1
        assert np.array_equal(a.phi1.values, b.phi1.values)

    def test_deterministic_rectangle(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 8, 8)
        a = pv.first_eigenpair(mesh, 3.0)
        b = pv.first_eigenpair(mesh, 3.0)
        assert a.lambda1 == b.lambda1
        assert np.array_equal(a.phi1.values, b.phi1.values)
        assert a.cg_iterations >= a.iterations > 0
        assert (a.iterations, a.trials, a.cg_iterations) == (
            b.iterations, b.trials, b.cg_iterations)

    def test_failure_carries_last_iterate(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        with pytest.raises(pv.EigenConvergenceError) as exc:
            pv.first_eigenpair(mesh, 3.0, max_iter=3)
        result = exc.value.result
        assert result.iterations == 3
        assert result.stop_reason == "max-iter"
        assert result.residual > 0.0
        assert result.phi1.values.shape == (mesh.n_free,)

    def test_failure_carries_collatz_wielandt_bracket(self):
        # five steps at p = 1.05 are far from converged; the nodal ratios
        # A'_j / B'_j still bracket the exact lambda1 and the quotient
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        with pytest.raises(pv.EigenConvergenceError) as exc:
            pv.first_eigenpair(mesh, 1.05, max_iter=5)
        lo, hi = exc.value.bracket
        assert lo <= exc.value.result.lambda1 <= hi
        assert lo <= interval_lambda1(1.05) <= hi
        assert "Collatz-Wielandt estimate" in str(exc.value)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_collatz_wielandt_bracket_closes_at_eigenpair(self, p):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        eig = pv.first_eigenpair(mesh, p)
        lo, hi = pv.collatz_wielandt_bracket(mesh, eig.phi1, p)
        assert lo <= eig.lambda1 <= hi
        assert hi - lo < 1e-6 * eig.lambda1

    def test_collatz_wielandt_bracket_needs_positive_b(self):
        # the ratios bracket nothing once some B'(u)_j <= 0
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        u = pv.interpolate(mesh, lambda x: np.sin(2.0 * np.pi * x[:, 0]))
        assert pv.collatz_wielandt_bracket(mesh, u, 2.0) == (-math.inf, math.inf)

    def test_one_lp_integral_per_trial(self, monkeypatch):
        # each line-search trial evaluates int |u|^p once, on the cached
        # line; the only other evaluations normalize the start and
        # re-evaluate the quotient at the start and at each accepted step
        from plapvar import eigen
        calls = {"lp": 0}
        lp = eigen._lp

        def counting(*args, **kwargs):
            calls["lp"] += 1
            return lp(*args, **kwargs)

        monkeypatch.setattr(eigen, "_lp", counting)
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        res = eigen.first_eigenpair(mesh, 3.0)
        assert res.iterations > 0
        assert res.trials >= res.iterations
        assert calls["lp"] <= res.trials + res.iterations + 2

    def test_line_search_starts_at_unit_step(self):
        # every search starts at t = 1, the Newton step, which is accepted
        # at once on almost every step (5 trials for 5 steps here)
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        res = pv.first_eigenpair(mesh, 3.0)
        assert res.iterations > 0
        assert res.trials <= 3 * res.iterations

    def test_failed_search_raises_at_once(self, monkeypatch):
        # a failed search ends the descent on "line-search" with no restart,
        # carrying the normalized start iterate
        from plapvar import eigen, solver
        searches = []

        def failing(at, f0, slope):
            searches.append(f0)
            return None, None, solver.MAX_TRIALS

        monkeypatch.setattr(eigen, "armijo", failing)
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        with pytest.raises(pv.EigenConvergenceError) as exc:
            eigen.first_eigenpair(mesh, 3.0)
        result = exc.value.result
        assert result.stop_reason == "line-search"
        assert len(searches) == 1
        assert result.iterations == 0
        assert result.trials == solver.MAX_TRIALS
        assert math.isclose(pv.lp_integral(mesh, result.phi1, 3.0), 1.0, rel_tol=1e-12)
        assert math.isclose(pv.rayleigh_quotient(mesh, result.phi1, 3.0),
                            result.lambda1, rel_tol=1e-12)

    def test_stop_reason_residual(self):
        # the p = 2 bubble start is the discrete eigenvector already
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        res = pv.first_eigenpair(mesh, 2.0)
        assert (res.iterations, res.trials, res.cg_iterations) == (0, 0, 0)
        assert res.stop_reason == "residual"
        assert res.residual < 1e-9

    def test_stop_reason_residual_on_square(self):
        # the quotient settles long before the residual (its error is
        # quadratic in the eigenvector's); the Newton descent still reaches
        # the relative stop, in 5 steps here
        from plapvar import eigen
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        res = pv.first_eigenpair(mesh, 3.0)
        assert res.stop_reason == "residual"
        assert 0 < res.iterations <= 30
        assert res.residual < eigen.RESIDUAL_STOP

    @pytest.mark.parametrize("n, p", [(32, 4.0), (24, 3.0), (16, 2.5)])
    def test_armijo_allows_for_quotient_rounding(self, n, p):
        # the search accepts a trial whose quotient rises by no more than
        # the rounding band p PHI_NOISE sum_j |u_j| (|A'_j| + lambda |B'_j|),
        # the energy descent's rule; without it near the stop the trials
        # of the last steps are rejected down to tiny t (with A'' alone as
        # the direction, 42 trials for 14 steps on 24 x 24 at p = 3; with
        # the Lagrangian's, 14 for 10 on 128 x 128, which
        # TestLagrangianNewton checks)
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, n, n)
        res = pv.first_eigenpair(mesh, p)
        assert res.stop_reason == "residual"
        assert res.trials <= res.iterations + 2

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_residual_history_ends_at_residual(self, p):
        from plapvar import eigen
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 12, 12)
        res = pv.first_eigenpair(mesh, p)
        assert len(res.residual_history) == res.iterations + 1
        assert res.residual_history[-1] == res.residual
        assert res.residual_history[0] > eigen.RESIDUAL_STOP > res.residual

    def test_failure_carries_residual_history(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        with pytest.raises(pv.EigenConvergenceError) as exc:
            pv.first_eigenpair(mesh, 3.0, max_iter=3)
        result = exc.value.result
        assert len(result.residual_history) == 4
        assert result.residual_history[-1] == result.residual

    def test_rayleigh_quotient_zero_rejected(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            pv.rayleigh_quotient(mesh, pv.zero_field(mesh), 2.0)


_LINE_MESHES = [pv.build_interval_mesh(0.0, 1.0, 64),
                pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 8, 8)]
_LINE_IDS = ["interval-64", "rectangle-8x8"]


class TestCachedLine:
    """The line search's trial quotient against the public kernels."""

    @staticmethod
    def _line(mesh, p, u, d):
        from plapvar import eigen
        field = pv.make_field(mesh, u)
        g_u = pv.assembly.gradients_on_elements(mesh, field)
        q_u = pv.assembly.values_at_quad(mesh, field)
        return eigen._line(mesh, p, g_u, q_u, d, np.empty_like(g_u), np.empty_like(q_u))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("mesh", _LINE_MESHES, ids=_LINE_IDS)
    def test_trial_quotient_equals_rayleigh_quotient(self, mesh, p):
        self._check_trials(mesh, p)

    @pytest.mark.parametrize("mesh", _LINE_MESHES, ids=_LINE_IDS)
    def test_trials_on_blocks_of_37(self, mesh, monkeypatch):
        # d is gathered per block in each trial; 64 and 128 elements end on
        # a partial block of 37
        monkeypatch.setattr(pv.assembly, "QUAD_BLOCK", 37)
        self._check_trials(mesh, 3.0)
        self.test_zero_trial_is_infeasible()

    @classmethod
    def _check_trials(cls, mesh, p):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(mesh.n_free)
        d = rng.standard_normal(mesh.n_free)
        at = cls._line(mesh, p, u, d)
        for t in (1.0, 0.25, 1e-6):
            value, (t_acc, b) = at(t)
            expected = pv.rayleigh_quotient(mesh, pv.make_field(mesh, u - t * d), p)
            assert t_acc == t
            assert math.isclose(value, expected, rel_tol=1e-13)
            assert math.isclose(b, pv.lp_integral(mesh, pv.make_field(mesh, u - t * d), p),
                                rel_tol=1e-13)

    def test_zero_trial_is_infeasible(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 8, 8)
        u = np.random.default_rng(4).standard_normal(mesh.n_free)
        at = self._line(mesh, 3.0, u, u.copy())
        assert at(1.0) is None
        assert at(0.5) is not None

    def test_peak_memory_holds_two_quadrature_arrays(self):
        # the descent keeps two (ne, nq) arrays, the iterate's values at the
        # quadrature nodes and the trial buffer, and peaks at 4.4 of them;
        # a scratch buffer and the direction's values kept as well read 5.97
        import tracemalloc

        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 64, 64)
        tracemalloc.start()
        try:
            pv.first_eigenpair(mesh, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * mesh.quad_weights.nbytes

    def test_peak_with_the_mesh_build_below_five_quadrature_arrays(self):
        # traced from before the build: the mesh's measures and weights are
        # views of one value and one row, and the trial gradients' buffer
        # lives only through its line search, so nothing element sized sits
        # idle under the Newton step; 4.13 (ne, nq) arrays, and 5.50 with
        # per-element measures and weights and a descent-long buffer
        import tracemalloc

        tracemalloc.start()
        try:
            mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 64, 64)
            pv.first_eigenpair(mesh, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.6 * mesh.n_elements * mesh.quad_weights.shape[1] * 8


class TestLagrangianNewton:
    """The eigen direction solves with A'' - lambda B'' on the K-orthogonal
    complement of u once a step is accepted at t = 1."""

    @pytest.mark.parametrize("n, p, lambda1, max_steps", [
        (128, 3.0, 62.77660308151151, 8),     # eigen_rect: 10 steps without B''
        (128, 2.5, 35.956343316154594, 8),    # solve_rect: 12
        (32, 3.0, 63.060087353425772, 7),     # audit_rect: 11
    ], ids=["eigen_rect", "solve_rect", "audit_rect"])
    def test_bench_problems_take_fewer_steps_to_the_same_lambda1(self, n, p, lambda1,
                                                                  max_steps):
        # lambda1 is the value the descent without the mass term reached;
        # without the Armijo rounding band eigen_rect takes 14 trials for
        # 10 steps (see test_armijo_allows_for_quotient_rounding)
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, n, n)
        res = pv.first_eigenpair(mesh, p)
        assert res.stop_reason == "residual"
        assert res.iterations <= max_steps
        assert res.trials <= res.iterations + 2
        assert math.isclose(res.lambda1, lambda1, rel_tol=1e-12, abs_tol=0.0)

    @pytest.mark.parametrize("n, p, max_steps", [
        (48, 2.5, 8),    # 12 steps without B''
        (32, 2.0, 3),    # 10 steps without B''
        (16, 1.2, 32),   # the corner triangles have u = 0 at every node
        (16, 1.5, 12),
    ])
    def test_converges_in_fewer_steps(self, n, p, max_steps):
        # runs under the suite's error::RuntimeWarning filter: |u|^(p-2) is
        # not evaluated where u = 0
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, n, n)
        res = pv.first_eigenpair(mesh, p)
        assert res.stop_reason == "residual"
        assert res.iterations <= max_steps

    def test_mass_term_enters_after_a_unit_step(self, monkeypatch):
        from plapvar import eigen
        masses, steps = [], []
        stencil, search = eigen._hessian_stencil, eigen.armijo

        def recording_stencil(mesh, M, mass_q=None):
            masses.append(mass_q is not None)
            return stencil(mesh, M, mass_q)

        def recording_search(at, f0, slope):
            value, state, rejected = search(at, f0, slope)
            steps.append(state[0])
            return value, state, rejected

        monkeypatch.setattr(eigen, "_hessian_stencil", recording_stencil)
        monkeypatch.setattr(eigen, "armijo", recording_search)
        res = eigen.first_eigenpair(pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16), 6.0)
        assert len(masses) == len(steps) == res.iterations
        assert masses == [False] + [t == 1.0 for t in steps[:-1]]
        assert min(steps[:-1]) < 1.0 and any(masses)  # both rules are exercised

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_lagrangian_hessian_maps_u_to_p_minus_1_times_residual(self, p, monkeypatch):
        # (A'' - lambda B'') u = (p - 1) (A' - lambda B') by homogeneity, so
        # the mass weight is lambda (p - 1) |u|^(p-2) wherever u is not 0
        from plapvar import eigen
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        step = eigen._newton_step
        checked = []

        def checking(apply, r, solve, rel, complement_of=None):
            if complement_of is not None:
                u, uKu = complement_of
                g = pv.assembly._grad(mesh, u)
                assert math.isclose(uKu, float(mesh.measures @ np.sum(g * g, axis=1)),
                                    rel_tol=1e-13)
                a = pv.assembly._flux(mesh, g, p)
                assert np.max(np.abs(apply(u) - (p - 1.0) * r)) <= (
                    1e-12 * (p - 1.0) * np.max(np.abs(a)))
                checked.append(rel)
            return step(apply, r, solve, rel, complement_of)

        monkeypatch.setattr(eigen, "_newton_step", checking)
        eigen.first_eigenpair(mesh, p)
        assert checked

    def test_projected_direction_is_k_orthogonal_to_u(self):
        from plapvar import eigen, solver
        p = 3.0
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        u, g, q = eigen._normalized(mesh, eigen._bubble_start(mesh), p)
        lam, r, _, _ = eigen._eigen_residual(mesh, u, g, q, p)
        mass_q = lam * (p - 1.0) * np.abs(q) ** (p - 2.0)
        apply = pv.assembly._hessian_stencil(mesh, pv.assembly._flux_weights(mesh, g, p), mass_q)
        uKu = float(mesh.measures @ np.sum(g * g, axis=1))
        # the tightest forcing term of the descent, sqrt(RESIDUAL_STOP)
        tol = math.sqrt(eigen.RESIDUAL_STOP)
        d, products = solver._pcg(apply, r, solver._poisson_solve(mesh), tol, (u, uKu))
        assert products > 1
        g_d = pv.assembly._grad(mesh, d)
        dKd = float(mesh.measures @ np.sum(g_d * g_d, axis=1))
        uKd = float(mesh.measures @ np.sum(g * g_d, axis=1))
        assert abs(uKd) <= 1e-12 * math.sqrt(uKu * dKd)

    def test_tolerance_below_the_rounding_floor_keeps_the_complement(self):
        # r . z levels off near 1e-16 times b's here; a tolerance of 1e-8
        # asks for r . z = 1e-16 b's, below that floor, and without the
        # CG_ROUNDING stop the iterates left the complement (44 products,
        # K-cosine -0.79 with u)
        from plapvar import eigen, solver
        p = 3.0
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        u, g, q = eigen._normalized(mesh, eigen._bubble_start(mesh), p)
        lam, r, _, _ = eigen._eigen_residual(mesh, u, g, q, p)
        mass_q = lam * (p - 1.0) * np.abs(q) ** (p - 2.0)
        apply = pv.assembly._hessian_stencil(mesh, pv.assembly._flux_weights(mesh, g, p), mass_q)
        uKu = float(mesh.measures @ np.sum(g * g, axis=1))
        d, products = solver._pcg(apply, r, solver._poisson_solve(mesh), 1e-8, (u, uKu))
        assert 1 < products < solver.CG_MAX
        g_d = pv.assembly._grad(mesh, d)
        dKd = float(mesh.measures @ np.sum(g_d * g_d, axis=1))
        uKd = float(mesh.measures @ np.sum(g * g_d, axis=1))
        assert abs(uKd) <= 1e-8 * math.sqrt(uKu * dKd)


class TestScaleCovariance:
    """The stop rule is relative, so the answer does not depend on the domain's size."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_interval_scaling_law(self, p):
        # lambda1 on (0, L) = L^-p lambda1 on (0, 1), exactly for the P1
        # quotient on the scaled mesh
        unit = pv.first_eigenpair(pv.build_interval_mesh(0.0, 1.0, 64), p).lambda1
        for L in (1e-3, 1e3, 1e6):
            eig = pv.first_eigenpair(pv.build_interval_mesh(0.0, L, 64), p)
            assert eig.stop_reason == "residual"
            assert math.isclose(eig.lambda1 * L ** p, unit, rel_tol=1e-10)


class TestRangeOfP:
    @pytest.mark.parametrize("p,must_converge", [
        (1.05, False), (1.2, True), (8.0, True), (30.0, True)])
    def test_converges_or_raises(self, p, must_converge):
        # runs under the suite's error::RuntimeWarning filter, so p = 30
        # must not overflow; at p = 1.05 the descent may end on max-iter
        # (p = 1.2, 8 and 30 converge in 60, 12 and 16 steps)
        from plapvar import eigen
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        try:
            res = pv.first_eigenpair(mesh, p, max_iter=200)
        except pv.EigenConvergenceError as exc:
            assert not must_converge
            assert exc.result.stop_reason in ("max-iter", "line-search")
            return
        assert res.stop_reason == "residual"
        assert res.residual < eigen.RESIDUAL_STOP
        assert (res.phi1.values > 0.0).all()

    def test_interval_256_at_p_1_2_ends_on_max_iter(self):
        """Pins an open regression as it stands; it is not a tuned bound.

        Eigen on interval n = 256 at p = 1.2 converged in 425 steps at
        d057457 and 3d70ff3.  From cc67f8f on, where the closed-form K^-1
        replaced the SuperLU preconditioner (and the eigen Armijo test gained
        its rounding band), it ends on max-iter after 2000 steps; with the
        band set to 0 it still does.  The final relative residual was about
        0.22 until the Newton steps on the eigen Lagrangian (415418f), and
        is 0.853 since.  A descent that converges here must rewrite this test.
        """
        from plapvar import eigen
        mesh = pv.build_interval_mesh(0.0, 1.0, 256)
        with pytest.raises(pv.EigenConvergenceError) as exc:
            pv.first_eigenpair(mesh, 1.2)
        res = exc.value.result
        assert res.stop_reason == "max-iter"
        assert res.iterations == 2000
        assert res.residual > eigen.RESIDUAL_STOP
