"""Hypothesis checkers: limsup estimation, growth, envelopes, theorems."""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

import plapvar as pv
from plapvar import HOLDS, FAILS, INCONCLUSIVE, conditions, explain

LAM = math.pi**2


@pytest.fixture(scope="module")
def mesh():
    return pv.build_interval_mesh(0.0, 1.0, 64)


@pytest.fixture(scope="module")
def eig(mesh):
    return pv.first_eigenpair(mesh, 2.0)


class TestEstimateLimsup:
    def test_settling_from_below(self):
        est = pv.estimate_limsup(lambda s: 1.0 - 1.0 / s)
        assert est.converged
        assert math.isclose(est.value, 1.0, abs_tol=1e-3)

    def test_zero(self):
        est = pv.estimate_limsup(lambda s: np.zeros_like(s))
        assert est.converged and est.value == 0.0

    def test_strong_divergence_hits_sentinel(self):
        # -|s|^2.5 crosses the 1e12 cutoff inside the tail window at 40 levels
        est = pv.estimate_limsup(lambda s: -np.abs(s) ** 2.5)
        assert est.converged and est.value == -math.inf

    def test_slow_divergence_stays_finite(self):
        # -|s|^1.5 only reaches -2^30 at 40 levels: finite, converged
        est = pv.estimate_limsup(lambda s: -np.abs(s) ** 1.5)
        assert est.converged
        assert math.isclose(est.value, -(2.0**30), rel_tol=1e-12)

    def test_bounded_oscillation(self):
        est = pv.estimate_limsup(np.sin)
        assert est.converged
        assert 0.9 < est.value <= 1.0

    def test_slow_decay_needs_depth(self):
        g = lambda s: -np.abs(s) ** -0.1
        shallow = pv.estimate_limsup(g, levels=8)
        deep = pv.estimate_limsup(g, levels=200)
        assert not shallow.converged
        assert deep.converged
        assert -1e-5 < deep.value <= 0.0

    def test_nan_rejected(self):
        def g(s):
            out = np.ones_like(s)
            out[np.asarray(s) > 1e6] = np.nan
            return out
        est = pv.estimate_limsup(g)
        assert not est.converged

    def test_direction(self):
        g = lambda s: np.where(np.asarray(s) > 0, 5.0, 0.0) + 1.0 / (1.0 + np.abs(s))
        up = pv.estimate_limsup(g, direction=1)
        down = pv.estimate_limsup(g, direction=-1)
        assert math.isclose(up.value, 5.0, abs_tol=1e-3)
        assert math.isclose(down.value, 0.0, abs_tol=1e-3)

    def test_monotone_in_levels_for_settling_tails(self):
        # decaying-from-above samples: deeper grids can only lower the tail max
        g = lambda s: 1.0 / np.abs(s)
        vals = [pv.estimate_limsup(g, levels=k).value for k in (8, 16, 32, 64)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-9

    def test_validation(self):
        g = lambda s: np.zeros_like(s)
        with pytest.raises(ValueError):
            pv.estimate_limsup(g, levels=4)
        with pytest.raises(ValueError):
            pv.estimate_limsup(g, levels=2000)

    def test_result_of_the_wrong_shape_rejected(self):
        # g is called once on the whole grid; a scalar result is an error,
        # not a cue to call g once per sample
        with pytest.raises(ValueError, match="shape"):
            pv.estimate_limsup(lambda s: 1.0)

    def test_normalized_potential_recovers_eigenvalue(self):
        # p F / |s|^p for the mild power perturbation settles at lambda1
        spec = pv.power_perturbation(LAM, 1.5, 2.0)
        x = np.array([[0.5]])
        est = pv.estimate_limsup(
            lambda s: 2.0 * np.asarray(pv.eval_F(spec, x, s)).reshape(-1)
            / np.abs(s) ** 2)
        assert est.converged
        assert abs(est.value - LAM) / LAM < 0.02


def _block_limsup(spec, pts, denom, direction, lam, p, levels):
    """The (points x levels) reference: G sampled on every level, then the
    tail maxima of the K- and (K-1)-grids."""
    grid = np.exp2(np.arange(levels + 1, dtype=float))
    samples = np.empty((pts.shape[0], grid.size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, mag in enumerate(grid):
            samples[:, k] = np.asarray(pv.eval_G(spec, pts, direction * mag, lam, p),
                                       dtype=float) / denom(mag)
        m_cur = np.max(samples[:, (levels + 1) // 2:], axis=-1)
        m_prev = np.max(samples[:, levels // 2:levels], axis=-1)
    return conditions._tail_verdict(m_cur, m_prev)


def _audited_specs(mesh, p):
    lam = pv.first_eigenpair(mesh, p).lambda1
    phi = pv.power_comparison((1.0 + p) / 2.0)
    return {
        "power_perturbation": pv.power_perturbation(lam, (1.0 + p) / 2.0, p),
        "weighted_comparison": pv.weighted_comparison(
            conditions._tilted_weight(mesh), phi, lam, p),
        "weighted_absval": pv.weighted_absval(conditions._tilted_weight(mesh), lam, p),
        "modulated_resonance": pv.modulated_resonance(
            conditions._plateau_bump(mesh), phi, lam, p),
    }, lam, phi


class TestStreamedTailMaxima:
    @pytest.mark.parametrize("domain", ["interval", "rectangle"])
    def test_matches_block_reference_bit_for_bit(self, domain):
        if domain == "interval":
            mesh, p = pv.build_interval_mesh(0.0, 1.0, 16), 2.0
        else:
            mesh, p = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4), 3.0
        specs, lam, phi = _audited_specs(mesh, p)
        assert specs["power_perturbation"].autonomous
        pts = mesh.quad_points_flat()
        denoms = (lambda mag: mag ** p, lambda mag: float(phi(mag)), lambda mag: mag)
        for name, spec in specs.items():
            c = conditions._spatial(spec, pts)
            for direction in (1, -1):
                for levels in (8, 200):
                    streamed = conditions._tail_limsups(spec, c, denoms, direction,
                                                        lam, p, levels)
                    for denom, (vals, conv) in zip(denoms, streamed):
                        ref_vals, ref_conv = _block_limsup(spec, pts, denom, direction,
                                                           lam, p, levels)
                        key = (name, direction, levels)
                        assert vals.shape == ref_vals.shape == (pts.shape[0],), key
                        assert vals.tobytes() == ref_vals.tobytes(), key
                        assert np.array_equal(conv, ref_conv), key


class TestCheckGrowth:
    @pytest.mark.parametrize("q", [2.0, 5.0, 20.0])
    def test_exponential_fails_every_order(self, q):
        assert pv.check_growth(pv.sine_exp(1.0), q, [(0.0, 1.0)]).status == FAILS

    def test_pure_power_holds(self):
        v = pv.check_growth(pv.power_potential(3.0, 3.0), 3.0, [(0.0, 1.0)])
        assert v.status == HOLDS
        assert math.isclose(v.evidence["fitted_a"], 3.0, rel_tol=0.1)

    def test_zero_nonlinearity_holds(self):
        assert pv.check_growth(pv.sine_exp(0.0), 2.0, [(0.0, 1.0)]).status == HOLDS

    def test_under_declared_order_fails(self):
        # |f| ~ |s|^2 cannot satisfy a q = 1.5 bound
        v = pv.check_growth(pv.power_potential(3.0, 3.0), 1.5, [(0.0, 1.0)])
        assert v.status == FAILS

    def test_two_dimensional_box(self):
        spec = pv.weighted_absval(lambda x: x[:, 0] - x[:, 1], LAM, 2.0)
        v = pv.check_growth(spec, 2.0, [(0.0, 1.0), (0.0, 1.0)], per_dim=5)
        assert v.status == HOLDS


class TestCheckF0:
    def test_bounded_envelope(self, mesh):
        v = pv.check_f0(pv.sine_exp(1.0), 5.0, mesh)
        assert v.status == HOLDS
        assert v.evidence["values"][-1] > 0.0

    def test_refinement_stable(self, mesh):
        v = pv.check_f0(pv.sine_exp(1.0), 5.0, mesh, refinements=3)
        assert v.status == HOLDS
        vals = v.evidence["values"]
        assert abs(vals[-1] - vals[0]) < 1e-3 * vals[0]

    def test_log_divergent_weight(self, mesh):
        # envelope ~ 1/x adds log 2 per bisection: flagged as not integrable
        spec = pv.weighted_absval(lambda x: 1.0 / x[:, 0], LAM, 2.0)
        v = pv.check_f0(spec, 5.0, mesh, refinements=3)
        assert v.status == FAILS
        vals = v.evidence["values"]
        incs = np.diff(vals)
        assert np.all(incs > 0.5)

    def test_polynomial_divergence(self, mesh):
        spec = pv.weighted_absval(lambda x: x[:, 0] ** -2.0, LAM, 2.0)
        assert pv.check_f0(spec, 5.0, mesh, refinements=3).status == FAILS


def _f0_reference(spec, R, mesh):
    """The per-sample envelope: one eval_f call for each value of s."""
    pts = mesh.quad_points_flat()
    env = np.zeros(pts.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for s in np.linspace(-R, R, conditions.F0_SAMPLES):
            env = np.maximum(env, np.abs(np.asarray(pv.eval_f(spec, pts, s), dtype=float)))
    return conditions._reduce(mesh.quad_weights_flat() * env)


def _s_blind(x, s):
    """An f that ignores s: its values have shape (m,) whatever s is."""
    return 1.0 + x[:, 0]


def _f0_specs(mesh, p=3.0, lam=10.0):
    """Every catalog entry (spatial sine_exp, both phi forms, the suite's
    weights) plus an f that ignores s and one that ignores x."""
    from plapvar.cli import _CATALOG

    phi = pv.power_comparison((1.0 + p) / 2.0)
    eta, a = conditions._tilted_weight(mesh), conditions._plateau_bump(mesh)
    specs = [
        pv.sine_exp(1.0),
        pv.sine_exp(lambda x: 1.0 + x[:, 0] ** 2),
        pv.power_perturbation(lam, (1.0 + p) / 2.0, p),
        pv.power_potential(2.0, p, lam),
        pv.weighted_comparison(eta, phi, lam, p),
        pv.weighted_comparison(eta, pv.log_power_comparison(1.0), lam, p),
        pv.weighted_absval(eta, lam, p),
        pv.modulated_resonance(a, phi, lam, p),
        pv.NonlinearitySpec("s_blind", f=_s_blind, F=lambda x, s: _s_blind(x, s) * s),
    ]
    assert {spec.name for spec in specs} >= set(_CATALOG)
    return specs


class TestBlockedF0:
    @pytest.mark.parametrize("domain", ["interval", "rectangle"])
    def test_matches_per_sample_reference_bit_for_bit(self, domain):
        if domain == "interval":
            mesh = pv.build_interval_mesh(0.0, 1.0, 128)
        else:
            mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 32, 32)
        for spec in _f0_specs(mesh):
            assert conditions._f0_value(spec, 10.0, mesh) \
                == _f0_reference(spec, 10.0, mesh), spec.name

    def test_refinements_use_smaller_blocks_bit_for_bit(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 128)
        meshes = [mesh]
        for _ in range(3):
            meshes.append(pv.refine_structured(meshes[-1]))
        for spec in _f0_specs(mesh):
            values = pv.check_f0(spec, 10.0, mesh, refinements=3).evidence["values"]
            assert values == [_f0_reference(spec, 10.0, m) for m in meshes], spec.name

    def test_one_sample_per_block(self, monkeypatch):
        monkeypatch.setattr(conditions, "F0_BLOCK_BYTES", 1)
        mesh = pv.build_interval_mesh(0.0, 1.0, 4)
        for spec in _f0_specs(mesh):
            assert conditions._f0_value(spec, 10.0, mesh) \
                == _f0_reference(spec, 10.0, mesh), spec.name

    def test_s_blind_f_keeps_every_point(self):
        # a bare max over the (m,) values of an f that ignores s would
        # collapse the points to one number; the envelope is 1 + x
        mesh = pv.build_interval_mesh(0.0, 1.0, 128)
        spec = _f0_specs(mesh)[-1]
        assert spec.name == "s_blind"
        pts = mesh.quad_points_flat()
        distinct, inverse = conditions._quad_coefficient(spec, mesh)
        assert distinct.shape == pts.shape
        assert np.array_equal(distinct[inverse], pts)
        assert math.isclose(conditions._f0_value(spec, 10.0, mesh), 1.5, rel_tol=1e-12)

    def test_nan_propagates(self, mesh):
        spec = pv.NonlinearitySpec(
            "nan_tail", f=lambda x, s: np.where(s > 9.0, np.nan, 1.0) * x[:, 0],
            F=lambda x, s: s * x[:, 0])
        v = pv.check_f0(spec, 10.0, mesh)
        assert v.status == FAILS and math.isnan(v.evidence["values"][0])

    def test_eval_f_calls_bounded_by_blocks(self, monkeypatch):
        # the blocks go through _f_at with the weight's distinct values:
        # the tilted eta takes 291 of them at the 12288 quadrature points
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 32, 32)
        assert mesh.quad_points_flat().shape[0] == 12288
        n = 291
        rows = max(1, conditions.F0_BLOCK_BYTES // (8 * n))
        blocks = []
        f_at = conditions._f_at

        def recording_f_at(spec, c, s):
            assert np.shape(c) == (n,)
            blocks.append(np.size(s) * np.shape(c)[0] * 8)
            return f_at(spec, c, s)

        monkeypatch.setattr(conditions, "_f_at", recording_f_at)
        spec = pv.weighted_absval(conditions._tilted_weight(mesh), 10.0, 3.0)
        assert pv.check_f0(spec, 10.0, mesh).status == HOLDS
        assert len(blocks) <= math.ceil(conditions.F0_SAMPLES / rows)
        assert max(blocks) <= conditions.F0_BLOCK_BYTES


def _mixed_spec(lam=10.0, p=3.0):
    """A weighted |s| entry whose coefficient mixes 0.0, -0.0, NaN and
    repeated values; its f tells -0.0 from 0.0 and NaN from numbers while
    staying finite, and its G = eta |s| keeps the sign of a zero eta."""
    pattern = np.array([0.0, -0.0, np.nan, 1.5, -0.0, 1.5, -2.0, 0.0, -np.nan, -2.0])
    eta = pv.SpatialWeight(lambda pts: np.resize(pattern, pts.shape[0]))

    def f(eta, s):
        tag = np.where(np.isnan(eta), 3.0, np.where(np.signbit(eta), 2.0, 1.0))
        return tag * np.sign(s) + np.nan_to_num(eta) * s

    def G(eta, s):
        return eta * np.abs(s)

    return pv.NonlinearitySpec(
        "mixed", f=f, F=lambda eta, s: lam * np.abs(s) ** p / p + G(eta, s), G=G,
        p=p, lambda1=lam, params={"eta": eta}, coefficient="eta")


class TestDistinctCoefficients:
    def test_f0_exact_on_signed_zeros_and_nans(self):
        for mesh in (pv.build_interval_mesh(0.0, 1.0, 16),
                     pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)):
            spec = _mixed_spec()
            c = conditions._spatial(spec, mesh.quad_points_flat())
            distinct, inverse = conditions._quad_coefficient(spec, mesh)
            assert len(distinct) == 6  # 0.0, -0.0, 1.5, -2.0 and NaN of either sign
            assert distinct[inverse].tobytes() == c.tobytes()
            value = conditions._f0_value(spec, 10.0, mesh)
            assert np.isfinite(value)
            assert value == _f0_reference(spec, 10.0, mesh)

    def test_check_theorems_matches_per_point_tail_limsups(self, monkeypatch, mesh, eig):
        # the per-point arrays check_theorems feeds its verdicts equal a
        # _tail_limsups pass over the full c, signs of zero included
        spec = _mixed_spec(eig.lambda1, 2.0)
        phi = pv.power_comparison(1.5)
        seen = []
        strict, integral = conditions._strict_negative_set, conditions._weighted_integral

        def recording_strict(values, converged, weights):
            seen.append((values, converged))
            return strict(values, converged, weights)

        def recording_integral(values, weights, density):
            seen.append((values, None))
            return integral(values, weights, density)

        monkeypatch.setattr(conditions, "_strict_negative_set", recording_strict)
        monkeypatch.setattr(conditions, "_weighted_integral", recording_integral)
        pv.check_theorems(spec, eig, pv.zero_dual(mesh), mesh, 2.0, phi=phi, levels=40)

        c = conditions._spatial(spec, mesh.quad_points_flat())
        denoms = (lambda mag: mag ** 2.0, lambda mag: float(phi(mag)), lambda mag: mag)
        depth = conditions._finite_depth(denoms, 40)
        expected = []
        for direction in (1, -1):
            full = conditions._tail_limsups(spec, c, denoms, direction, eig.lambda1,
                                            2.0, depth)
            expected += [full[0], (full[1][0], None), (full[2][0], None)]
        assert len(seen) == len(expected) == 6
        assert any(np.any(np.signbit(v) & (v == 0.0)) for v, _ in expected)
        assert any(np.any(~np.signbit(v) & (v == 0.0)) for v, _ in expected)
        for (vals, conv), (ref_vals, ref_conv) in zip(seen, expected):
            assert np.array_equal(vals, ref_vals, equal_nan=True)
            assert np.array_equal(np.signbit(vals), np.signbit(ref_vals))
            if ref_conv is not None:
                assert np.array_equal(conv, ref_conv)

    def test_autonomous_spec_needs_one_point(self, monkeypatch, mesh, eig):
        # power_perturbation declares no coefficient and ignores x
        shapes = []
        f_at, G_at = conditions._f_at, conditions._G_at

        def recording_f_at(spec, c, s):
            shapes.append(("f", np.shape(c)))
            return f_at(spec, c, s)

        def recording_G_at(spec, c, s, lam, p):
            shapes.append(("G", np.shape(c)))
            return G_at(spec, c, s, lam, p)

        monkeypatch.setattr(conditions, "_f_at", recording_f_at)
        monkeypatch.setattr(conditions, "_G_at", recording_G_at)
        spec = pv.power_perturbation(eig.lambda1, 1.5, 2.0)
        pv.check_theorems(spec, eig, pv.zero_dual(mesh), mesh, 2.0, levels=40)
        assert {kind for kind, _ in shapes} == {"f", "G"}
        assert {shape for _, shape in shapes} == {(1, 1)}


    def test_autonomous_weighted_spec_needs_one_point(self, monkeypatch):
        # sine_exp(1.0) declares the constant weight d and is autonomous: its
        # f and G take d at the first quadrature point, and the reports keep
        # the bits of the weight read at every point
        shapes = []
        f_at, G_at = conditions._f_at, conditions._G_at

        def recording_f_at(spec, c, s):
            shapes.append(("f", np.shape(c)))
            return f_at(spec, c, s)

        def recording_G_at(spec, c, s, lam, p):
            shapes.append(("G", np.shape(c)))
            return G_at(spec, c, s, lam, p)

        monkeypatch.setattr(conditions, "_f_at", recording_f_at)
        monkeypatch.setattr(conditions, "_G_at", recording_G_at)
        mesh = pv.build_rectangle_mesh(0.0, 1.0, -0.5, 0.5, 24, 20)
        eig = pv.first_eigenpair(mesh, 2.5)
        assert eig.lambda1.hex() == "0x1.21b6ebd0984b6p+5"
        reports = pv.check_theorems(pv.sine_exp(1.0), eig, pv.zero_dual(mesh), mesh, 2.5)
        assert "quad_points" not in vars(mesh)
        assert {kind for kind, _ in shapes} == {"f", "G"}
        assert {shape for _, shape in shapes} == {(1,)}
        envelope = reports["sign"].conditions["local_envelope_integrable"]
        assert envelope.evidence["values"][0].hex() == "0x1.8b389b4c1e6a3p+5"
        text = json.dumps({k: explain._report(r) for k, r in reports.items()},
                          sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b3240b1ab70d4880eb51417da83adb602965476612f5e5637bffab980be9de4c")


class TestComparisonFunctions:
    def test_power_holds_between_one_and_p(self):
        rep = pv.verify_comparison_function(pv.power_comparison(1.5), 2.0)
        assert rep.overall == HOLDS
        assert all(v.status == HOLDS for v in rep.conditions.values())

    def test_alpha_equal_p_fails_vanishing(self):
        rep = pv.verify_comparison_function(pv.power_comparison(2.0), 2.0)
        assert rep.overall == FAILS
        assert dict(rep.rows())["vanishes_vs_power_p"] == FAILS

    def test_alpha_one_fails_superlinear(self):
        rep = pv.verify_comparison_function(pv.power_comparison(1.0), 2.0)
        assert rep.overall == FAILS
        assert dict(rep.rows())["superlinear"] == FAILS

    def test_log_correction_holds(self):
        rep = pv.verify_comparison_function(pv.log_power_comparison(1.0), 2.0)
        assert rep.overall == HOLDS

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            pv.ComparisonFunction(lambda s: np.asarray(s, dtype=float),
                                  order=1.0, label="odd")

    def test_evaluate_and_order(self):
        phi = pv.power_comparison(1.5)
        assert math.isclose(phi(2.0), 2.0**1.5, rel_tol=1e-14)
        assert phi.order == 1.5


class TestClassMembership:
    # dimension 2, p = 1.5: conjugate-exponent threshold for alpha = 1.25
    TAU = 1.263157894736842

    def test_threshold_is_sharp(self):
        assert pv.check_class_membership(self.TAU, 1.25, 1.5, 2, "X").status == FAILS
        assert pv.check_class_membership(self.TAU, 1.25, 1.5, 2, "Y").status == HOLDS
        assert pv.check_class_membership(1.3, 1.25, 1.5, 2, "X").status == HOLDS

    def test_p_above_dimension(self):
        assert pv.check_class_membership(1.0, 1.25, 3.0, 2, "X").status == HOLDS

    def test_p_equal_dimension_needs_strict(self):
        assert pv.check_class_membership(1.0, 1.25, 2.0, 2, "X").status == FAILS
        assert pv.check_class_membership(1.01, 1.25, 2.0, 2, "X").status == HOLDS

    def test_unknown_exponent(self):
        out = pv.check_class_membership(None, 1.25, 1.5, 2, "X")
        assert out.status == INCONCLUSIVE

    def test_negative_infinite_exponent_never_holds(self, mesh, eig):
        # only +inf declares an L^inf weight; -inf through the API is no class
        spec = pv.weighted_absval(conditions._tilted_weight(mesh).fn, eig.lambda1, 2.0,
                                  eta_exponent=-math.inf)
        exponent = conditions._declared_weight(spec).exponent
        assert exponent == -math.inf
        for p, ndim in ((1.5, 2), (2.0, 2), (3.0, 2), (2.0, 1)):
            for kind in ("X", "Y"):
                for alpha in (1.0, 1.25):
                    out = pv.check_class_membership(exponent, alpha, p, ndim, kind)
                    assert out.status != HOLDS, (p, ndim, kind, alpha)
        rep = pv.check_theorems(spec, eig, pv.zero_dual(mesh), mesh, 2.0)
        dom = rep["landesman_lazer"].conditions["dominated_in_Y"]
        assert dom.status != HOLDS
        assert dom.evidence["pos"]["membership"]["declared_exponent"] == -math.inf


class TestTheoremCheckers:
    def test_sign_holds_for_negative_potential(self, mesh, eig):
        spec = pv.power_perturbation(eig.lambda1, 1.9, 2.0)
        rep = pv.check_theorems(spec, eig, pv.zero_dual(mesh), mesh, 2.0)["sign"]
        assert rep.overall == HOLDS
        assert dict(rep.rows())["strictly_negative_set"] == HOLDS

    def test_sign_fails_above_resonance(self, mesh, eig):
        spec = pv.power_potential(2.0 * eig.lambda1, 2.0, eig.lambda1)
        rep = pv.check_theorems(spec, eig, pv.zero_dual(mesh), mesh, 2.0)["sign"]
        assert rep.overall == FAILS
        assert dict(rep.rows())["nonpositive_ae"] == FAILS

    def test_shallow_grids_are_inconclusive(self, mesh, eig):
        spec = pv.power_perturbation(eig.lambda1, 1.9, 2.0)
        rep = pv.check_theorems(spec, eig, pv.zero_dual(mesh), mesh, 2.0,
                                levels=8)["sign"]
        assert rep.overall == INCONCLUSIVE

    def test_comparison_with_declared_majorant(self, mesh, eig):
        spec = pv.power_perturbation(eig.lambda1, 1.9, 2.0)
        rep = pv.check_theorems(
            spec, eig, pv.zero_dual(mesh), mesh,
            phi=pv.log_power_comparison(1.0), levels=160)["comparison"]
        assert rep.overall == HOLDS
        rows = dict(rep.rows())
        assert rows["comparison_axioms"] == HOLDS
        assert rows["negative_weighted_integrals"] == HOLDS

    def test_landesman_lazer_bounded_perturbation(self, mesh, eig):
        # G = -|s| gives the classical finite bracket (-I, I), I = int(phi1)
        spec = pv.weighted_absval(lambda x: -np.ones(len(x)), LAM, 2.0)
        rep = pv.check_theorems(spec, eig, pv.zero_dual(mesh), mesh,
                                2.0)["landesman_lazer"]
        assert rep.overall == HOLDS

    def test_landesman_lazer_bracket_breaks(self, mesh, eig):
        # same nonlinearity, but a forcing with large phi1-component
        spec = pv.weighted_absval(lambda x: -np.ones(len(x)), LAM, 2.0)
        h = pv.load_vector(mesh, lambda x: 5.0 * np.sin(np.pi * x[:, 0]))
        rep = pv.check_theorems(spec, eig, h, mesh, 2.0)["landesman_lazer"]
        assert rep.overall == FAILS
        assert dict(rep.rows())["bracket"] == FAILS

    def test_verdict_list_is_stable(self, mesh, eig):
        spec = pv.power_perturbation(eig.lambda1, 1.9, 2.0)
        rep = pv.check_theorems(spec, eig, pv.zero_dual(mesh), mesh, 2.0)["sign"]
        assert list(rep.conditions) == [
            "nonpositive_ae", "strictly_negative_set",
            "local_envelope_integrable"]


class TestSuperlinearNegativity:
    def test_power_perturbation(self):
        spec = pv.power_perturbation(LAM, 1.5, 2.0)
        out = pv.check_superlinear_negativity(spec)
        assert out.status == HOLDS
        assert out.evidence["pos"]["value"] == -math.inf
        assert out.evidence["neg"]["value"] == -math.inf

    def test_subresonant_power_implies_it(self):
        # F = mu |s|^p / p with mu < lambda1 pushes G to -infinity
        spec = pv.power_potential(0.5 * LAM, 2.0, LAM)
        assert pv.check_superlinear_negativity(spec).status == HOLDS

    def test_superresonant_power_fails(self):
        spec = pv.power_potential(2.0 * LAM, 2.0, LAM)
        assert pv.check_superlinear_negativity(spec).status == FAILS

    def test_requires_autonomous(self):
        spec = pv.sine_exp(lambda x: x[:, 0])
        with pytest.raises(ValueError):
            pv.check_superlinear_negativity(spec, lambda1=LAM, p=2.0)

    def test_autonomous_sine_exp_fails(self):
        # F <= 0 but bounded away from -infinity along s = 4k: G -> -lam|s|^p/p
        # dominates, so the normalized limit is still -infinity ... unless the
        # potential itself decays; here F ~ -exp(|s|/2) which also diverges, so
        # the check holds.
        out = pv.check_superlinear_negativity(pv.sine_exp(1.0), lambda1=LAM,
                                              p=2.0)
        assert out.status == HOLDS


class TestIncomparabilitySuite:
    def test_three_regimes_split_cleanly(self, mesh):
        from plapvar.conditions import THEOREMS
        table = pv.incomparability_suite(2.0, mesh)
        assert table.is_exclusive_diagonal()
        mat = table.matrix()
        assert set(table.cases) == {"sign_case", "comparison_case",
                                    "landesman_case"}
        for case, row in zip(table.cases, mat):
            own = case.split("_")[0]
            own = "landesman_lazer" if own == "landesman" else own
            for theorem, status in zip(THEOREMS, row):
                expect = HOLDS if theorem == own else FAILS
                assert status == expect, (case, theorem, status)

    def test_p8_grid_stops_before_the_normalizers_overflow(self):
        # |s|^8 overflows from s = 2^128 on; the grid stops at level 127,
        # so no tail value reads nan (0 * inf where a = 0)
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        p = 8.0
        specs, lam, phi = _audited_specs(mesh, p)
        denoms = (lambda mag: mag ** p, lambda mag: float(phi(mag)), lambda mag: mag)
        depth = conditions._finite_depth(denoms, conditions.CHECKER_LEVELS)
        assert depth == 127
        for name, spec in specs.items():
            c = conditions._spatial(spec, mesh.quad_points_flat())
            for direction in (1, -1):
                for vals, _ in conditions._tail_limsups(spec, c, denoms, direction,
                                                        lam, p, depth):
                    assert not np.any(np.isnan(vals)), (name, direction)
        table = pv.incomparability_suite(p, mesh)
        sign = table.reports["sign_case"]["sign"].conditions["nonpositive_ae"]
        assert sign.status == HOLDS and sign.evidence["levels_used"] == 127

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0, 8.0])
    @pytest.mark.parametrize("domain", ["interval", "square"])
    def test_exclusive_diagonal_over_p(self, domain, p):
        # from p = 5 on the sign case's root term must stay finite on the
        # deep tail levels (s = 2^100 ... 2^200) for G / |s|^p to read a(x)
        mesh = pv.build_interval_mesh(0.0, 1.0, 64) if domain == "interval" \
            else pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        assert pv.incomparability_suite(p, mesh).is_exclusive_diagonal()


class TestWeightEvaluations:
    def test_once_per_point_set(self, monkeypatch):
        # the suite evaluates each case's weight once for the tail levels,
        # both directions and the domination candidates, and once for its
        # envelope; check_f0 evaluates it once per (refined) mesh
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 32, 32)
        eig = pv.first_eigenpair(mesh, 3.0)
        calls = []
        call = pv.SpatialWeight.__call__

        def counting(self, pts):
            calls.append(np.shape(pts))
            return call(self, pts)

        monkeypatch.setattr(pv.SpatialWeight, "__call__", counting)

        def counts(levels, block_bytes):
            monkeypatch.setattr(conditions, "F0_BLOCK_BYTES", block_bytes)
            calls.clear()
            pv.incomparability_suite(3.0, mesh, levels=levels, eigenpair=eig)
            suite = len(calls)
            calls.clear()
            spec = pv.sine_exp(conditions._plateau_bump(mesh))
            pv.check_f0(spec, 10.0, mesh)
            envelope = len(calls)
            calls.clear()
            coarse = pv.build_interval_mesh(0.0, 1.0, 16)
            pv.check_f0(pv.sine_exp(conditions._plateau_bump(coarse)), 10.0, coarse,
                        refinements=2)
            return suite, envelope, len(calls)

        assert counts(40, conditions.F0_BLOCK_BYTES) == (3 * 2, 1, 3)
        assert counts(200, 1 << 14) == (3 * 2, 1, 3)
