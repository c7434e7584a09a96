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
        # each line-search trial evaluates int |u|^p once, inside the
        # Rayleigh quotient; the only other calls renormalize the start,
        # each accepted step and the final iterate
        from plapvar import eigen
        calls = {"lp": 0, "rq": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(eigen, "lp_integral", counting("lp", eigen.lp_integral))
        monkeypatch.setattr(eigen, "rayleigh_quotient",
                            counting("rq", eigen.rayleigh_quotient))
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        res = eigen.first_eigenpair(mesh, 3.0)
        assert res.iterations > 0
        assert calls["lp"] <= calls["rq"] + res.iterations + 2

    def test_warm_started_line_search(self, monkeypatch):
        # the Armijo search starts at twice the last accepted step, so once
        # the step length settles a step costs about two trials; restarting
        # every search at t = 1 costs ~12 per step here (648 for 52 steps)
        from plapvar import eigen
        calls = {"rq": 0}
        quotient = eigen.rayleigh_quotient

        def counting(*args, **kwargs):
            calls["rq"] += 1
            return quotient(*args, **kwargs)

        monkeypatch.setattr(eigen, "rayleigh_quotient", counting)
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        res = eigen.first_eigenpair(mesh, 3.0)
        assert res.iterations > 0
        # one quotient at the start, one per accepted step and one final
        trials = calls["rq"] - res.iterations - 2
        assert trials <= 3 * res.iterations

    def test_stop_reason_residual(self):
        # the p = 2 bubble start is the discrete eigenvector already
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        res = pv.first_eigenpair(mesh, 2.0)
        assert res.iterations == 0
        assert res.stop_reason == "residual"
        assert res.residual < 1e-9

    def test_stop_reason_stagnation(self):
        # the quotient settles long before the residual reaches 1e-9
        mesh = pv.build_interval_mesh(0.0, 1.0, 128)
        res = pv.first_eigenpair(mesh, 2.5)
        assert res.stop_reason == "stagnation"
        assert res.iterations >= 25
        assert 1e-9 <= res.residual < 1e-6

    def test_rayleigh_quotient_zero_rejected(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            pv.rayleigh_quotient(mesh, pv.zero_field(mesh), 2.0)
