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
        a = pv.first_eigenpair(mesh, 3.0, seed=5)
        b = pv.first_eigenpair(mesh, 3.0, seed=5)
        assert a.lambda1 == b.lambda1
        assert np.array_equal(a.phi1.values, b.phi1.values)

    def test_deterministic_rectangle(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 8, 8)
        a = pv.first_eigenpair(mesh, 3.0, seed=5)
        b = pv.first_eigenpair(mesh, 3.0, seed=5)
        assert a.lambda1 == b.lambda1
        assert np.array_equal(a.phi1.values, b.phi1.values)

    def test_failure_carries_last_iterate(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        with pytest.raises(pv.EigenConvergenceError) as exc:
            pv.first_eigenpair(mesh, 3.0, max_iter=3)
        result = exc.value.result
        assert result.iterations == 3
        assert result.stop_reason == "max-iter"
        assert result.residual > 0.0
        assert result.phi1.values.shape == (mesh.n_free,)

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

    def test_warm_started_line_search(self):
        # the Armijo search starts at twice the last accepted step, so once
        # the step length settles a step costs about two trials; restarting
        # every search at t = 1 costs ~12 per step here (648 for 52 steps)
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        res = pv.first_eigenpair(mesh, 3.0)
        assert res.iterations > 0
        assert res.trials <= 3 * res.iterations

    def test_stalled_search_restarts_once(self, monkeypatch):
        # a failed search jitters the iterate once and searches again from
        # t = 1; a second failure ends on "line-search"
        from plapvar import eigen, solver
        starts = []

        def failing(at, f0, slope, t=1.0):
            starts.append(t)
            return None, None, solver.MAX_TRIALS

        monkeypatch.setattr(eigen, "armijo", failing)
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        with pytest.raises(pv.EigenConvergenceError) as exc:
            eigen.first_eigenpair(mesh, 3.0)
        result = exc.value.result
        assert result.stop_reason == "line-search"
        assert starts == [1.0, 1.0]
        assert result.iterations == 0
        assert result.trials == 2 * solver.MAX_TRIALS
        assert math.isclose(pv.lp_integral(mesh, result.phi1, 3.0), 1.0, rel_tol=1e-12)
        assert math.isclose(pv.rayleigh_quotient(mesh, result.phi1, 3.0),
                            result.lambda1, rel_tol=1e-12)

    def test_stop_reason_residual(self):
        # the p = 2 bubble start is the discrete eigenvector already
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        res = pv.first_eigenpair(mesh, 2.0)
        assert res.iterations == 0
        assert res.stop_reason == "residual"
        assert res.residual < 1e-9

    def test_stop_reason_stagnation(self):
        # the quotient settles long before the residual reaches 1e-9
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        res = pv.first_eigenpair(mesh, 3.0)
        assert res.stop_reason == "stagnation"
        assert res.iterations >= 25
        assert 1e-9 <= res.residual < 1e-6

    def test_rayleigh_quotient_zero_rejected(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            pv.rayleigh_quotient(mesh, pv.zero_field(mesh), 2.0)


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
    @pytest.mark.parametrize("mesh", [
        pv.build_interval_mesh(0.0, 1.0, 64),
        pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 8, 8),
    ], ids=["interval-64", "rectangle-8x8"])
    def test_trial_quotient_equals_rayleigh_quotient(self, mesh, p):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(mesh.n_free)
        d = rng.standard_normal(mesh.n_free)
        at = self._line(mesh, p, u, d)
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
