"""Energy, residual, and load assembly against hand-computed values."""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

import plapvar as pv


def unit_hat(n=2):
    """The nodal hat of height 1 at the midpoint of (0, 1) split into n cells."""
    mesh = pv.build_interval_mesh(0.0, 1.0, n)
    values = np.zeros(mesh.n_free)
    values[mesh.n_free // 2] = 1.0
    return mesh, pv.make_field(mesh, values)


class TestDirichletEnergy:
    # hat on two cells: slope +-2, so (1/p) * integral of |u'|^p = 2^p / p
    def test_hat_p2(self):
        mesh, u = unit_hat()
        assert math.isclose(pv.dirichlet_energy(mesh, u, 2.0), 2.0, rel_tol=1e-14)

    def test_hat_p3(self):
        mesh, u = unit_hat()
        assert math.isclose(pv.dirichlet_energy(mesh, u, 3.0), 8.0 / 3.0,
                            rel_tol=1e-14)

    def test_linear_profile_2d(self):
        # u = x interpolated, Dirichlet rows masked off: compare against the
        # same quantity assembled from the piecewise gradient directly.
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)
        rng = np.random.default_rng(3)
        u = pv.make_field(mesh, rng.standard_normal(mesh.n_free))
        p = 2.0
        K = pv.stiffness_matrix(mesh)
        quad = float(u.values @ (K @ u.values)) / 2.0
        assert math.isclose(pv.dirichlet_energy(mesh, u, p), quad, rel_tol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_homogeneous_of_degree_p(self, p):
        mesh = pv.build_interval_mesh(0.0, 1.0, 9)
        rng = np.random.default_rng(11)
        u = pv.make_field(mesh, rng.standard_normal(mesh.n_free))
        e1 = pv.dirichlet_energy(mesh, u, p)
        u3 = pv.make_field(mesh, -3.0 * u.values)
        assert math.isclose(pv.dirichlet_energy(mesh, u3, p), 3.0**p * e1,
                            rel_tol=1e-13)

    def test_zero_field(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 4)
        assert pv.dirichlet_energy(mesh, pv.zero_field(mesh), 2.5) == 0.0


class TestLpIntegral:
    def test_hat_squared(self):
        # int of hat^2 over (0,1) with the hat spanning the whole interval
        mesh, u = unit_hat()
        assert math.isclose(pv.lp_integral(mesh, u, 2.0), 1.0 / 3.0, rel_tol=1e-13)

    def test_hat_p3(self):
        # int of hat^3 = 2 * int_0^{1/2} (2x)^3 dx = 1/4
        mesh, u = unit_hat()
        assert math.isclose(pv.lp_integral(mesh, u, 3.0), 0.25, rel_tol=1e-10)

    def test_constant_on_free_part(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 200)
        u = pv.interpolate(mesh, lambda x: np.ones(len(x)))
        # trapezoid of the boundary ramps: 1 - h where h = 1/200
        assert math.isclose(pv.lp_integral(mesh, u, 1.0), 1.0 - 1.0 / 200,
                            rel_tol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_scaling(self, p):
        mesh = pv.build_interval_mesh(0.0, 1.0, 7)
        rng = np.random.default_rng(5)
        u = pv.make_field(mesh, rng.standard_normal(mesh.n_free))
        v = pv.make_field(mesh, 2.0 * u.values)
        assert math.isclose(pv.lp_integral(mesh, v, p),
                            2.0**p * pv.lp_integral(mesh, u, p), rel_tol=1e-12)


class TestStiffnessMatrix:
    def test_interval_tridiagonal(self):
        n = 5
        mesh = pv.build_interval_mesh(0.0, 1.0, n)
        K = pv.stiffness_matrix(mesh).toarray()
        h = 1.0 / n
        expect = (np.diag(np.full(n - 1, 2.0 / h))
                  + np.diag(np.full(n - 2, -1.0 / h), 1)
                  + np.diag(np.full(n - 2, -1.0 / h), -1))
        assert np.allclose(K, expect, atol=1e-13)

    def test_matches_p2_residual(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 5, 5)
        rng = np.random.default_rng(0)
        u = pv.make_field(mesh, rng.standard_normal(mesh.n_free))
        r = pv.plap_residual(mesh, u, 2.0)
        K = pv.stiffness_matrix(mesh)
        assert np.allclose(r.values, K @ u.values, atol=1e-12)


def reference_basis_gradients(mesh):
    """(ne, ndim + 1, ndim) P1 basis gradients by the closed-form formulas."""
    if mesh.ndim == 1:
        _, a, b, n = mesh.structure
        h = (b - a) / n
        return np.broadcast_to([[-1.0 / h], [1.0 / h]], (n, 2, 1))
    v = mesh.vertices[mesh.elements]                       # (ne, 3, 2)
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    inv_det = 1.0 / (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    grads = np.empty((mesh.n_elements, 3, 2))
    grads[:, 1] = np.column_stack([e2[:, 1], -e2[:, 0]]) * inv_det[:, None]
    grads[:, 2] = np.column_stack([-e1[:, 1], e1[:, 0]]) * inv_det[:, None]
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return grads


def reference_scatter(mesh, contrib):
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.elements.ravel(), contrib.ravel())
    return out[mesh.free_vertices]


OPERATOR_MESHES = {
    "interval": lambda: pv.build_interval_mesh(0.0, 1.0, 128),
    "square": lambda: pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 32, 32),
    "rectangle": lambda: pv.build_rectangle_mesh(0.0, 2.0, 0.0, 1.0, 24, 16),
}


@pytest.fixture(params=sorted(OPERATOR_MESHES))
def mesh_and_field(request):
    mesh = OPERATOR_MESHES[request.param]()
    rng = np.random.default_rng(21)
    return mesh, pv.make_field(mesh, rng.standard_normal(mesh.n_free))


class TestGradientOperator:
    # each kernel built on Mesh.grad_op against the per-element formula
    # it replaced: gather + einsum, COO assembly, einsum + scatter

    def test_layout(self, mesh_and_field):
        mesh, _ = mesh_and_field
        D = mesh.grad_op
        assert D.format == "csr"
        assert D.shape == (mesh.n_elements * mesh.ndim, mesh.n_free)
        assert D.indices.dtype == np.int32 and D.indptr.dtype == np.int32
        assert D.has_canonical_format

    def test_gradients_match_gather_einsum(self, mesh_and_field):
        mesh, u = mesh_and_field
        full = np.zeros(mesh.n_vertices)
        full[mesh.free_vertices] = u.values
        expect = np.einsum("ek,ekd->ed", full[mesh.elements],
                           reference_basis_gradients(mesh))
        got = pv.assembly.gradients_on_elements(mesh, u)
        assert np.array_equal(got, expect)
        assert np.array_equal(mesh.grad_op @ u.values, expect.ravel())

    @pytest.mark.parametrize("name, rel", [("interval", 0.0), ("square", 0.0),
                                           ("rectangle", 1e-15)])
    def test_stiffness_matches_coo_assembly(self, name, rel):
        # D^T diag(|T|) D adds the d-terms of one element one at a time, the
        # COO build adds them per element first: the same bits on square
        # cells, a last-bit difference on the 4:3 cells of "rectangle"
        mesh = OPERATOR_MESHES[name]()
        grads = reference_basis_gradients(mesh)
        nloc = mesh.elements.shape[1]
        local = np.einsum("e,ekd,eld->ekl", mesh.measures, grads, grads)
        rows = np.repeat(mesh.elements, nloc, axis=1).ravel()
        cols = np.tile(mesh.elements, (1, nloc)).ravel()
        K_full = sp.coo_matrix((local.ravel(), (rows, cols)),
                               shape=(mesh.n_vertices, mesh.n_vertices)).tocsc()
        free = mesh.free_vertices
        expect = K_full[np.ix_(free, free)].toarray()
        K = pv.stiffness_matrix(mesh)
        assert sp.issparse(K) and K.format == "csc"
        assert np.max(np.abs(K.toarray() - expect)) <= rel * np.max(np.abs(expect))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_residual_matches_einsum_scatter(self, mesh_and_field, p):
        mesh, u = mesh_and_field
        grads = reference_basis_gradients(mesh)
        full = np.zeros(mesh.n_vertices)
        full[mesh.free_vertices] = u.values
        g = np.einsum("ek,ekd->ed", full[mesh.elements], grads)
        norms = np.sqrt(np.einsum("ed,ed->e", g, g))
        with np.errstate(divide="ignore"):
            factor = np.where(norms >= 1e-14, norms ** (p - 2.0), 0.0)
        flux = (mesh.measures * factor)[:, None] * g
        expect = reference_scatter(mesh, np.einsum("ed,ekd->ek", flux, grads))
        got = pv.plap_residual(mesh, u, p).values
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_hat_energies_match_gradient_norms(self, mesh_and_field, p):
        mesh, _ = mesh_and_field
        gnorm_p = np.linalg.norm(reference_basis_gradients(mesh), axis=2) ** p
        expect = reference_scatter(mesh, mesh.measures[:, None] * gnorm_p)
        got = pv.assembly.hat_energies(mesh, p)
        assert np.allclose(got, expect, rtol=1e-14, atol=0.0)

    def test_arrays_are_read_only(self, mesh_and_field):
        mesh, _ = mesh_and_field
        D = mesh.grad_op
        for arr in (D.data, D.indices, D.indptr):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        # scipy methods that canonicalize in place still work on it
        assert abs(D).max() == D.power(2).sqrt().max() > 0.0


class TestKernelFormulas:
    # the field-level kernels call the array-level helpers that the eigen
    # line search shares; each must keep the arithmetic of this reference,
    # the kernels' formulas written out in full

    @staticmethod
    def reference(mesh, u, p):
        full = np.zeros(mesh.n_vertices)
        full[mesh.free_vertices] = u.values
        q = full[mesh.elements] @ mesh.basis_at_quad.T
        g = (mesh.grad_op @ u.values).reshape(mesh.n_elements, mesh.ndim)
        norms = np.sqrt(np.einsum("ed,ed->e", g, g))
        energy = float(np.sum(mesh.measures * norms ** p)) / p
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(norms >= 1e-14, norms ** (p - 2.0), 0.0)
        residual = mesh.grad_op.T @ ((mesh.measures * factor)[:, None] * g).ravel()
        lp = float(np.sum(np.einsum("eq,eq->e", mesh.quad_weights, np.abs(q) ** p)))
        density = mesh.quad_weights * (np.sign(q) * np.abs(q) ** (p - 1.0))
        load = reference_scatter(mesh, density @ mesh.basis_at_quad)
        return energy, residual, lp, load

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_bit_identical_to_reference(self, mesh_and_field, p):
        mesh, u = mesh_and_field
        # zero a block of coefficients so that the gradient floor is hit
        values = u.values.copy()
        values[: mesh.n_free // 3] = 0.0
        for field in (u, pv.make_field(mesh, values)):
            energy, residual, lp, load = self.reference(mesh, field, p)
            assert pv.dirichlet_energy(mesh, field, p) == energy
            assert np.array_equal(pv.plap_residual(mesh, field, p).values, residual)
            assert pv.lp_integral(mesh, field, p) == lp
            assert np.array_equal(pv.assembly.lp_residual(mesh, field, p).values, load)


class TestResidualAndGradient:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_residual_is_energy_gradient(self, p, dim):
        if dim == 1:
            mesh = pv.build_interval_mesh(0.0, 1.0, 12)
        else:
            mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 5, 4)
        rng = np.random.default_rng(17)
        u0 = rng.standard_normal(mesh.n_free)
        r = pv.plap_residual(mesh, pv.make_field(mesh, u0), p)
        eps = 1e-6
        worst = 0.0
        scale = float(np.max(np.abs(r.values)))
        for j in range(mesh.n_free):
            up = u0.copy(); up[j] += eps
            um = u0.copy(); um[j] -= eps
            fd = (pv.dirichlet_energy(mesh, pv.make_field(mesh, up), p)
                  - pv.dirichlet_energy(mesh, pv.make_field(mesh, um), p)) / (2 * eps)
            worst = max(worst, abs(fd - r.values[j]))
        assert worst <= 5e-5 * scale

    def test_residual_p_minus_one_homogeneous(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 10)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(mesh.n_free)
        p = 3.0
        r1 = pv.plap_residual(mesh, pv.make_field(mesh, u), p).values
        r2 = pv.plap_residual(mesh, pv.make_field(mesh, 2.0 * u), p).values
        assert np.allclose(r2, 2.0 ** (p - 1) * r1, rtol=1e-12)

    def test_odd_symmetry(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 10)
        rng = np.random.default_rng(4)
        u = rng.standard_normal(mesh.n_free)
        rp = pv.plap_residual(mesh, pv.make_field(mesh, u), 2.5).values
        rm = pv.plap_residual(mesh, pv.make_field(mesh, -u), 2.5).values
        assert np.allclose(rm, -rp, atol=1e-13)


class TestLoadAndPairing:
    def test_hat_against_unit_density(self):
        # int of the midpoint hat is half its support length = 1/2
        mesh, u = unit_hat()
        h = pv.load_vector(mesh, 1.0)
        assert math.isclose(pv.pairing(h, u), 0.5, rel_tol=1e-13)

    def test_callable_density(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 64)
        h = pv.load_vector(mesh, lambda x: x[:, 0])
        u = pv.interpolate(mesh, lambda x: np.sin(np.pi * x[:, 0]))
        # int x sin(pi x) = 1/pi, P1 interpolation error O(h^2)
        assert math.isclose(pv.pairing(h, u), 1.0 / math.pi, rel_tol=1e-3)
        # the same density sampled at the quadrature nodes gives the same bits
        q = pv.assembly.quad_load(mesh, mesh.quad_points[:, :, 0])
        assert np.array_equal(q.values, h.values)

    def test_pairing_is_bilinear(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 8)
        rng = np.random.default_rng(9)
        h = pv.make_dual(mesh, rng.standard_normal(mesh.n_free))
        u = pv.make_field(mesh, rng.standard_normal(mesh.n_free))
        v = pv.make_field(mesh, rng.standard_normal(mesh.n_free))
        s = pv.make_field(mesh, u.values + 2.0 * v.values)
        assert math.isclose(pv.pairing(h, s),
                            pv.pairing(h, u) + 2.0 * pv.pairing(h, v),
                            rel_tol=1e-12)

    def test_mismatched_mesh_rejected(self):
        m1 = pv.build_interval_mesh(0.0, 1.0, 4)
        m2 = pv.build_interval_mesh(0.0, 1.0, 8)
        h = pv.zero_dual(m1)
        u = pv.zero_field(m2)
        with pytest.raises(ValueError):
            pv.pairing(h, u)


class TestSupNorm:
    def test_nodal_max(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 6)
        vals = np.array([0.1, -2.5, 0.3, 0.0, 1.0])
        assert pv.sup_norm(mesh, pv.make_field(mesh, vals)) == 2.5

    def test_zero(self):
        mesh = pv.build_interval_mesh(0.0, 1.0, 6)
        assert pv.sup_norm(mesh, pv.zero_field(mesh)) == 0.0


class TestSummationPolicy:
    # every scalar sum is one pairwise np.sum over the contributions, in
    # the mesh's element order; math.fsum is not on any path

    def test_reduce_is_one_numpy_sum(self):
        from plapvar.assembly import _reduce
        x = np.random.default_rng(0).standard_normal(32768)
        got = _reduce(x)
        assert type(got) is float
        assert got == float(np.sum(x))
        assert got != math.fsum(x.tolist())  # this vector tells the two apart

    def test_pipeline_never_calls_fsum(self, monkeypatch):
        def refuse(_):
            raise AssertionError("math.fsum called")

        monkeypatch.setattr(math, "fsum", refuse)
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16)
        p = 2.5
        eig = pv.first_eigenpair(mesh, p)
        spec = pv.power_perturbation(eig.lambda1, (1.0 + p) / 2.0, p)
        h = pv.load_vector(mesh, 1.0)
        res = pv.minimize_phi(mesh, spec, h, p)
        check = pv.verify_weak_solution(mesh, res.u, spec, h, p)
        assert math.isfinite(res.phi) and math.isfinite(check.max_relative)
        reports = pv.check_theorems(spec, eig, h, mesh, p)
        assert set(reports) == {"sign", "comparison", "landesman_lazer"}
        assert mesh.domain_measure == pytest.approx(1.0, rel=1e-14)

    def test_agrees_with_exact_summation(self, monkeypatch):
        from plapvar import assembly
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 128, 128)
        x = mesh.free_coordinates()
        rng = np.random.default_rng(5)
        u = pv.make_field(mesh, np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
                          + 1e-3 * rng.standard_normal(mesh.n_free))
        p = 3.0
        pairwise = (pv.dirichlet_energy(mesh, u, p), pv.lp_integral(mesh, u, p))
        monkeypatch.setattr(assembly, "_reduce", lambda v: math.fsum(v.tolist()))
        exact = (pv.dirichlet_energy(mesh, u, p), pv.lp_integral(mesh, u, p))
        for got, ref in zip(pairwise, exact):
            assert math.isclose(got, ref, rel_tol=1e-14)
