"""Catalog nonlinearities: branch values, derivatives, potentials, weights."""
from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import plapvar as pv

X = np.array([[0.5]])


def sc(v):
    """Collapse a length-1 evaluation to a Python float."""
    return float(np.asarray(v).reshape(-1)[0])


def fd_derivative(fn, s, eps=1e-6):
    return (fn(s + eps) - fn(s - eps)) / (2.0 * eps)


class TestSineExp:
    def test_branch_values_at_join(self):
        spec = pv.sine_exp(2.0)
        for s in (1.0, -1.0):
            sgn = math.copysign(1.0, s)
            assert math.isclose(sc(pv.eval_f(spec, X, s)), sgn * 1.0,
                                abs_tol=1e-13)
            assert math.isclose(sc(pv.eval_F(spec, X, s)), -2.0,
                                abs_tol=1e-13)

    def test_branches_continuous(self):
        spec = pv.sine_exp(1.0)
        for s0 in (1.0, -1.0):
            lo = sc(pv.eval_f(spec, X, s0 * (1 - 1e-9)))
            hi = sc(pv.eval_f(spec, X, s0 * (1 + 1e-9)))
            assert abs(hi - lo) < 1e-7
            lo = sc(pv.eval_F(spec, X, s0 * (1 - 1e-9)))
            hi = sc(pv.eval_F(spec, X, s0 * (1 + 1e-9)))
            assert abs(hi - lo) < 1e-7

    def test_potential_nonpositive(self):
        spec = pv.sine_exp(1.0)
        rng = np.random.default_rng(0)
        s = rng.uniform(-50.0, 50.0, size=5000)
        assert (pv.eval_F(spec, X, s) <= 0.0).all()

    def test_exponential_envelope(self):
        # |f| beats any power eventually (exp(s/2) passes s^20 near s = 230)
        spec = pv.sine_exp(1.0)
        big = float(np.max(np.abs(pv.eval_f(spec, X, np.linspace(300, 304, 401)))))
        assert big > 300.0 ** 20
        # the envelope multiplies by e^2 per oscillation period (4 units)
        lo = float(np.max(np.abs(pv.eval_f(spec, X, np.linspace(296, 300, 401)))))
        assert 6.0 < big / lo < 9.0

    def test_weight_scales_both(self):
        s = np.linspace(-3, 3, 41)
        f1 = pv.eval_f(pv.sine_exp(1.0), X, s)
        f4 = pv.eval_f(pv.sine_exp(4.0), X, s)
        assert np.allclose(f4, 4.0 * f1, rtol=1e-14)

    def test_spatial_weight(self):
        spec = pv.sine_exp(lambda x: x[:, 0])
        pts = np.array([[0.25], [0.5], [1.0]])
        vals = pv.eval_f(spec, pts, 0.5)
        base = sc(pv.eval_f(pv.sine_exp(1.0), X, 0.5))
        assert np.allclose(vals, base * pts[:, 0])
        assert not spec.autonomous


class TestPowerPerturbation:
    LAM = 9.8696

    def test_derivative_of_potential(self):
        spec = pv.power_perturbation(self.LAM, 1.9, 2.0)
        for s in (-2.3, -0.7, 0.4, 1.1, 5.0):
            fd = fd_derivative(lambda t: sc(pv.eval_F(spec, X, t)), s)
            assert math.isclose(fd, sc(pv.eval_f(spec, X, s)), rel_tol=1e-7)

    def test_g_closed_form(self):
        # F carries lambda1 |s|^p / p plus a pure power term -|s|^beta
        spec = pv.power_perturbation(self.LAM, 1.9, 2.0)
        s = np.array([0.5, 3.0, 1e3])
        assert np.allclose(pv.eval_G(spec, X, s), -np.abs(s) ** 1.9, rtol=1e-12)

    def test_g_survives_huge_arguments(self):
        # naive F - lambda1 |s|^p / p cancels to zero noise long before this
        spec = pv.power_perturbation(self.LAM, 1.9, 2.0)
        s = 2.0 ** 120
        assert math.isclose(sc(pv.eval_G(spec, X, s)), -s ** 1.9, rel_tol=1e-12)

    def test_validates_beta(self):
        with pytest.raises(ValueError):
            pv.power_perturbation(self.LAM, 2.5, 2.0)
        with pytest.raises(ValueError):
            pv.power_perturbation(self.LAM, 1.0, 2.0)


class TestPowerPotential:
    def test_potential_value(self):
        spec = pv.power_potential(6.0, 3.0)
        # F = mu |s|^p / p
        assert math.isclose(sc(pv.eval_F(spec, X, 2.0)), 6.0 * 8.0 / 3.0,
                            rel_tol=1e-14)

    def test_f_consistent(self):
        spec = pv.power_potential(4.0, 2.5)
        for s in (-1.5, 0.3, 2.0):
            fd = fd_derivative(lambda t: sc(pv.eval_F(spec, X, t)), s)
            assert math.isclose(fd, sc(pv.eval_f(spec, X, s)), rel_tol=1e-6)


class TestWeightedFamilies:
    LAM, P = 9.8696, 2.0

    def test_weighted_comparison_structure(self):
        phi = pv.power_comparison(1.5)
        spec = pv.weighted_comparison(lambda x: x[:, 0] - 0.9, phi,
                                      self.LAM, self.P, eta_exponent=math.inf)
        # G = eta(x) phi(s): negative where eta < 0, positive where eta > 0
        pts = np.array([[0.2], [1.0]])
        g = pv.eval_G(spec, pts, 2.0)
        assert g[0] < 0.0 < g[1]
        assert math.isclose(g[1] / 0.1, phi(2.0), rel_tol=1e-10)
        assert "eta" in spec.params

    def test_explicit_exponent_must_match_the_weight(self):
        weight = pv.SpatialWeight(lambda x: np.ones(len(x)), 4.0)
        for build in (lambda e: pv.weighted_absval(weight, 9.0, 3.0, eta_exponent=e),
                      lambda e: pv.weighted_comparison(weight, pv.power_comparison(1.5),
                                                       9.0, 3.0, eta_exponent=e)):
            with pytest.raises(ValueError, match="exponent"):
                build(2.0)
            assert build(4.0).params["eta"] is weight
            assert build(None).params["eta"].exponent == 4.0
        bounded = pv.SpatialWeight(lambda x: np.ones(len(x)))
        with pytest.raises(ValueError, match="exponent"):
            pv.weighted_absval(bounded, 9.0, 3.0, eta_exponent=2.0)
        assert pv.weighted_absval(lambda x: np.ones(len(x)), 9.0, 3.0,
                                  eta_exponent=2.0).params["eta"].exponent == 2.0

    def test_weighted_absval(self):
        spec = pv.weighted_absval(lambda x: np.full(len(x), -2.0),
                                  self.LAM, self.P)
        # G = eta(x) |s|
        assert math.isclose(sc(pv.eval_G(spec, X, -3.0)), -6.0, rel_tol=1e-12)
        fd = fd_derivative(lambda t: sc(pv.eval_F(spec, X, t)), 1.3)
        assert math.isclose(fd, sc(pv.eval_f(spec, X, 1.3)), rel_tol=1e-6)

    def test_modulated_resonance(self):
        phi = pv.power_comparison(1.5)
        spec = pv.modulated_resonance(lambda x: -np.ones(len(x)), phi,
                                      self.LAM, self.P)
        g = sc(pv.eval_G(spec, X, 4.0))
        assert g < 0.0
        assert "a" in spec.params

    @pytest.mark.parametrize("k", [128, 150])
    def test_modulated_resonance_finite_deep_in_the_tail(self, k):
        # sqrt(phi(s) |s|^p) overflows at s = 2^k for p = 5, alpha = 3,
        # although G / |s|^p -> a = -1 there
        p = 5.0
        spec = pv.modulated_resonance(lambda x: -np.ones(len(x)),
                                      pv.power_comparison((1.0 + p) / 2.0), self.LAM, p)
        s = 2.0 ** k
        assert math.isclose(sc(pv.eval_G(spec, X, s)) / s ** p, -1.0, rel_tol=1e-12)
        assert math.isfinite(sc(pv.eval_F(spec, X, s)))
        assert math.isfinite(sc(pv.eval_f(spec, X, s)))

    @pytest.mark.parametrize("p", [1.5, 3.0, 5.0])
    def test_modulated_resonance_matches_product_form(self, p):
        # with a = 0, G is the root term sqrt(phi(s) |s|^p) and f is
        # lambda1 sign(s) |s|^(p-1) plus its derivative
        alpha = (1.0 + p) / 2.0
        phi = pv.power_comparison(alpha)
        spec = pv.modulated_resonance(lambda x: np.zeros(len(x)), phi, self.LAM, p)
        k = np.linspace(-20.0, 20.0, 161)
        s = np.concatenate([2.0 ** k, -(2.0 ** k), [0.3, -7.7, 1e5]])
        x = np.full((s.size, 1), 0.5)
        a = np.abs(s)
        root = np.sqrt(phi(s) * a ** p)
        d_root = (phi.derivative(s) * a ** p + phi(s) * p * np.sign(s) * a ** (p - 1.0)) \
            / (2.0 * root)
        np.testing.assert_allclose(pv.eval_G(spec, x, s), root, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(pv.eval_F(spec, x, s), self.LAM / p * a ** p + root,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(pv.eval_f(spec, x, s),
                                   self.LAM * np.sign(s) * a ** (p - 1.0) + d_root,
                                   rtol=1e-14, atol=0.0)
        zero = np.zeros(1)
        assert pv.eval_G(spec, x[:1], zero)[0] == 0.0
        assert pv.eval_f(spec, x[:1], zero)[0] == 0.0

    def test_eval_g_needs_lambda(self):
        # a bare spec without stored lambda1 must be given one explicitly
        spec = pv.power_potential(3.0, 2.0)
        assert spec.lambda1 is None
        with pytest.raises(ValueError):
            pv.eval_G(spec, X, 1.0)
        val = pv.eval_G(spec, X, 1.0, lambda1=2.0, p=2.0)
        assert math.isclose(float(val), 3.0 / 2.0 - 2.0 / 2.0, rel_tol=1e-14)


class TestVectorization:
    @pytest.mark.parametrize("make", [
        lambda: pv.sine_exp(1.0),
        lambda: pv.power_perturbation(9.87, 1.9, 2.0),
        lambda: pv.power_potential(3.0, 2.0, lambda1=9.87),
    ])
    def test_shapes(self, make):
        spec = make()
        pts = np.array([[0.1], [0.5], [0.9]])
        s = np.array([-2.0, 0.0, 7.0])
        evals = [pv.eval_f(spec, pts, s), pv.eval_F(spec, pts, s),
                 pv.eval_G(spec, pts, s, lambda1=9.87, p=2.0)]
        for out in evals:
            assert np.shape(out) == (3,)
            assert np.isfinite(out).all()

    def test_scalar_in_scalar_out(self):
        spec = pv.sine_exp(1.0)
        assert np.ndim(pv.eval_f(spec, X, 0.5)) <= 1


LAM = 9.87
EXTREME_S = (0.0, 1e-300, -1e-300, 1.0, -1.0, 1e10, -1e10, 1e300, -1e300,
             math.inf, -math.inf)


@pytest.mark.parametrize("make", [
    lambda: pv.sine_exp(1.0),
    lambda: pv.sine_exp(lambda x: 1.0 + x[:, 0]),
    lambda: pv.power_perturbation(LAM, 1.9, 2.5),
    lambda: pv.power_potential(4.0, 2.5),
    lambda: pv.power_potential(4.0, 2.5, LAM),
    lambda: pv.weighted_comparison(lambda x: x[:, 0] - 0.9,
                                   pv.power_comparison(1.5), LAM, 2.5),
    lambda: pv.weighted_comparison(lambda x: x[:, 0] - 0.9,
                                   pv.log_power_comparison(1.5), LAM, 2.5),
    lambda: pv.weighted_absval(lambda x: -x[:, 0], LAM, 2.5),
    lambda: pv.modulated_resonance(lambda x: -x[:, 0], pv.power_comparison(1.5),
                                   LAM, 2.5),
    lambda: pv.modulated_resonance(lambda x: -x[:, 0],
                                   pv.log_power_comparison(1.5), LAM, 2.5),
], ids=["sine_exp", "sine_exp-spatial", "power_perturbation", "power_potential",
        "power_potential-lambda1", "weighted_comparison-power",
        "weighted_comparison-log-power", "weighted_absval",
        "modulated_resonance-power", "modulated_resonance-log-power"])
def test_catalog_evaluators_raise_no_warning(make):
    # eval_f/F/G own the floating-point error state for every entry, from
    # tiny to infinite arguments
    spec = make()
    pts = np.array([[0.25], [0.75]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in EXTREME_S:
            pv.eval_f(spec, pts, s)
            pv.eval_F(spec, pts, s)
            pv.eval_G(spec, pts, s, lambda1=LAM, p=2.5)


def test_import_leaves_scipy_integrate_unloaded():
    # the package needs no scipy.integrate: every spec has a closed-form F
    src = os.path.dirname(os.path.dirname(os.path.abspath(pv.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import plapvar; "
            "print('scipy.integrate' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
