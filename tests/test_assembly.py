"""Energy, residual, and load assembly against hand-computed values."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from fem_reference import (_weights, coarse_hat_loads, gradient_tolerance,
                           matrix_free_hessian, reference_basis_gradients,
                           reference_corner_values, reference_hat_lp, reference_hessian,
                           reference_scatter, reference_values_at_quad, stiffness_matrix)

import plapvar as pv
from plapvar import meshing
from plapvar.assembly import (GRADIENT_FLOOR, _edges, _flux_weights, _grad, _grad_T, _hat_norm,
                              _hessian_stencil, _lp, _lp_load, _pad, _restrict, _spacing)


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
        K = stiffness_matrix(mesh)
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
        K = stiffness_matrix(mesh).toarray()
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
        K = stiffness_matrix(mesh)
        assert np.allclose(r.values, K @ u.values, atol=1e-12)


OPERATOR_MESHES = {
    "interval": lambda: pv.build_interval_mesh(0.0, 1.0, 128),
    "square": lambda: pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 32, 32),
    "rectangle": lambda: pv.build_rectangle_mesh(0.0, 2.0, 0.0, 1.0, 24, 16),
    "interval-2": lambda: pv.build_interval_mesh(-1.0, 2.5, 2),
    "interval-128": lambda: pv.build_interval_mesh(-1.0, 2.5, 128),
    "interval-4096": lambda: pv.build_interval_mesh(-1.0, 2.5, 4096),
    "rect-12x20": lambda: pv.build_rectangle_mesh(0.5, 2.5, -1.0, -0.3, 12, 20),
}


@pytest.fixture(params=sorted(OPERATOR_MESHES))
def mesh_and_field(request):
    mesh = OPERATOR_MESHES[request.param]()
    rng = np.random.default_rng(21)
    return mesh, pv.make_field(mesh, rng.standard_normal(mesh.n_free))


class TestGradientOperator:
    # the grid stencils that apply D and D^T, and each kernel built on them,
    # against the per-element formulas: gather + einsum, COO assembly,
    # einsum + scatter; the stencils match them to 1e-15 relative, plus on a
    # rectangle the rounding of the linspace vertices that the reference
    # gradients read (fem_reference.gradient_tolerance)

    def test_layout(self, mesh_and_field):
        # D is applied, never stored: (ne, ndim) element gradients out of
        # (nf,) free values and back
        mesh, u = mesh_and_field
        assert not hasattr(mesh, "grad_op")
        g = _grad(mesh, u.values)
        assert g.shape == (mesh.n_elements, mesh.ndim)
        assert g.dtype == np.float64 and g.flags.c_contiguous
        back = _grad_T(mesh, g)
        assert back.shape == (mesh.n_free,) and back.dtype == np.float64

    def test_gradients_match_gather_einsum(self, mesh_and_field):
        mesh, u = mesh_and_field
        expect = np.einsum("ek,ekd->ed", reference_corner_values(mesh, u.values),
                           reference_basis_gradients(mesh))
        got = pv.assembly.gradients_on_elements(mesh, u)
        assert np.array_equal(got, _grad(mesh, u.values))
        err = np.max(np.abs(got - expect))
        assert err <= gradient_tolerance(mesh) * np.max(np.abs(expect))

    def test_transpose_matches_einsum_scatter(self, mesh_and_field):
        mesh, _ = mesh_and_field
        G = np.random.default_rng(mesh.n_free).standard_normal((mesh.n_elements, mesh.ndim))
        expect = reference_scatter(
            mesh, np.einsum("ed,ekd->ek", G, reference_basis_gradients(mesh)))
        err = np.max(np.abs(_grad_T(mesh, G) - expect))
        assert err <= gradient_tolerance(mesh) * np.max(np.abs(expect))

    def test_adjoint(self, mesh_and_field):
        # (D v) . G = v . (D^T G) up to the rounding of the two sums
        mesh, u = mesh_and_field
        G = np.random.default_rng(mesh.n_free).standard_normal((mesh.n_elements, mesh.ndim))
        Dv, DtG = _grad(mesh, u.values), _grad_T(mesh, G)
        scale = float(np.abs(Dv).ravel() @ np.abs(G).ravel())
        assert abs(float(Dv.ravel() @ G.ravel()) - float(u.values @ DtG)) <= 1e-15 * scale

    @pytest.mark.parametrize("name, rel", [("interval", 0.0), ("square", 0.0),
                                           ("rectangle", 1e-15)])
    def test_stiffness_matches_coo_assembly(self, name, rel):
        # D^T diag(|T|) D applied by the stencils to each unit vector, against
        # the COO build, which adds each element's terms first: the same
        # bits on the interval and on square cells, a last-bit difference
        # on the 4:3 cells of "rectangle"
        mesh = OPERATOR_MESHES[name]()
        expect = stiffness_matrix(mesh).toarray()
        K = np.column_stack([_grad_T(mesh, mesh.measures[:, None] * _grad(mesh, e))
                             for e in np.eye(mesh.n_free)])
        assert np.max(np.abs(K - expect)) <= rel * np.max(np.abs(expect))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_residual_matches_einsum_scatter(self, mesh_and_field, p):
        mesh, u = mesh_and_field
        grads = reference_basis_gradients(mesh)
        g = np.einsum("ek,ekd->ed", reference_corner_values(mesh, u.values), grads)
        norms = np.sqrt(np.einsum("ed,ed->e", g, g))
        with np.errstate(divide="ignore"):
            factor = np.where(norms >= 1e-14, norms ** (p - 2.0), 0.0)
        flux = (mesh.measures * factor)[:, None] * g
        expect = reference_scatter(mesh, np.einsum("ed,ekd->ek", flux, grads))
        got = pv.plap_residual(mesh, u, p).values
        assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_hat_energies_match_gradient_norms(self, mesh_and_field, p):
        # the closed-form W^{1,p} norm of a hat against every free hat's
        # integrals summed element by element: int |grad psi_j|^p from the
        # basis gradients, int |psi_j|^p from the Dirichlet integral
        mesh, _ = mesh_and_field
        gnorm_p = np.linalg.norm(reference_basis_gradients(mesh), axis=2) ** p
        energies = reference_scatter(mesh, mesh.measures[:, None] * gnorm_p)
        expect = (reference_hat_lp(mesh, p) + energies) ** (1.0 / p)
        got = _hat_norm(_spacing(mesh), p)
        assert np.allclose(got, expect, rtol=1e-14, atol=0.0)

    def test_arrays_are_read_only(self, mesh_and_field):
        # every array of the mesh is frozen, and the stencils read frozen
        # inputs without writing to them
        mesh, u = mesh_and_field
        arrays = [mesh.measures, mesh.quad_points, mesh.quad_weights, mesh.basis_at_quad,
                  *mesh.bounds]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = arr.flat[0]
        assert not u.values.flags.writeable
        g = _grad(mesh, u.values)
        frozen = g.copy()
        frozen.flags.writeable = False
        assert np.array_equal(_grad_T(mesh, frozen), _grad_T(mesh, g))
        assert np.array_equal(frozen, g)


class TestRestrict:
    # full weighting against the coarse hats written out vertex by vertex
    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("shape", ["interval", "rectangle"])
    def test_matches_coarse_hat_pairing(self, shape, levels):
        mesh = pv.build_interval_mesh(-1.0, 2.5, 32) if shape == "interval" \
            else pv.build_rectangle_mesh(0.0, 2.0, 0.0, 1.0, 16, 8)
        load = np.random.default_rng(7).standard_normal(mesh.n_free)
        F = _pad(mesh, load)
        for _ in range(levels):
            F = _restrict(F)
        assert F.shape == tuple(n // 2 ** levels + 1 for n in mesh.structure)
        inner = (slice(1, -1),) * mesh.ndim
        expect = coarse_hat_loads(mesh, load, levels)
        assert np.max(np.abs(F[inner] - expect)) <= 1e-14 * np.max(np.abs(expect))
        F[inner] = 0.0
        assert not np.any(F)


def _floored_field(mesh):
    """Values whose gradient is exactly 0 on some elements: zero beside the
    x = a side (and beside y = a on a rectangle), and equal on two neighbours."""
    values = np.random.default_rng(mesh.n_free).uniform(0.5, 2.0, mesh.n_free)
    if mesh.ndim == 1:
        values[:2] = 0.0
        values[4] = values[3]
    else:
        grid = values.reshape(mesh.structure[0] - 1, mesh.structure[1] - 1)
        grid[0] = 0.0
        grid[:, 0] = 0.0
        grid[2, 2] = grid[2, 3] = grid[3, 3]
    return values


HESSIAN_MESHES = {
    "interval-9": lambda: pv.build_interval_mesh(-1.0, 2.5, 9),
    "rect-5x7": lambda: pv.build_rectangle_mesh(0.5, 2.5, -1.0, -0.3, 5, 7),
}


class TestHessianStencil:
    # the assembled Newton matrix against COO assembly of the element matrices
    # (fem_reference.reference_hessian), on u with elements below the floor

    @staticmethod
    def case(name, p, mass):
        """The mesh, the COO matrix and the stencil, with or without mass."""
        mesh = HESSIAN_MESHES[name]()
        g = _grad(mesh, _floored_field(mesh))
        norms = np.linalg.norm(g, axis=1)
        assert np.any(norms < GRADIENT_FLOOR) and np.any(norms >= GRADIENT_FLOOR)
        mass_q = (np.random.default_rng(7).standard_normal(mesh.quad_weights.shape)
                  if mass else None)
        expect = reference_hessian(mesh, p, g, mass_q).toarray()
        stencil = _hessian_stencil(mesh, _flux_weights(mesh, g, p),
                                   None if mass_q is None else mass_q.copy())
        return mesh, expect, stencil

    @pytest.mark.parametrize("mass", [False, True], ids=["energy", "with-mass"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(HESSIAN_MESHES))
    def test_matches_coo_assembly(self, name, p, mass):
        mesh, expect, apply = self.case(name, p, mass)
        H = np.column_stack([apply(e) for e in np.eye(mesh.n_free)])
        assert np.max(np.abs(H - expect)) <= 1e-13 * np.max(np.abs(expect))
        assert np.array_equal(H, H.T)
        if p == 2.0 and not mass:
            K = stiffness_matrix(mesh).toarray()
            assert np.max(np.abs(H - K)) <= 1e-13 * np.max(np.abs(K))

    @pytest.mark.parametrize("mass", [False, True], ids=["energy", "with-mass"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(HESSIAN_MESHES))
    def test_arrays_are_the_coo_entries(self, name, p, mass):
        # the arrays read without the product: the diagonal and the coupling
        # of each edge step are the COO matrix's entries at (I, I) and
        # (I, I + step), and every other entry of it is zero
        mesh, expect, stencil = self.case(name, p, mass)
        tol = 1e-13 * np.max(np.abs(expect))
        free = np.arange(mesh.n_free).reshape([n - 1 for n in mesh.structure])
        assert stencil.diag.shape == free.shape
        assert np.max(np.abs(stencil.diag.ravel() - np.diag(expect))) <= tol
        assert list(stencil.couplings) == _edges(mesh.ndim)
        read = np.eye(mesh.n_free, dtype=bool)
        for step, C in stencil.couplings.items():
            lo = free[tuple(slice(None, -d or None) for d in step)]
            hi = free[tuple(slice(d, None) for d in step)]
            assert C.shape == lo.shape
            assert np.max(np.abs(C - expect[lo, hi])) <= tol
            read[lo, hi] = read[hi, lo] = True
        assert not np.any(expect[~read])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(HESSIAN_MESHES))
    def test_coefficient_matches_reference_weights(self, name, p):
        # M = c (I + (p-2) g_hat g_hat^T) from the reference's element-by-element
        # c and g_hat; below the floor M is exactly |T| I at p = 2 and 0 otherwise
        mesh = HESSIAN_MESHES[name]()
        g = _grad(mesh, _floored_field(mesh))
        dead = np.linalg.norm(g, axis=1) < GRADIENT_FLOOR
        assert np.any(dead) and not np.all(dead)
        c, g_hat = _weights(mesh, p, g)
        M = _flux_weights(mesh, g, p)
        assert sorted(M) == [(i, j) for i in range(mesh.ndim) for j in range(i, mesh.ndim)]
        for (i, j), m in M.items():
            expect = c * ((i == j) + (p - 2.0) * g_hat[:, i] * g_hat[:, j])
            assert m.shape == (mesh.n_elements,)
            assert np.all(np.abs(m - expect) <= 1e-14 * c)
            assert np.array_equal(m[dead], mesh.measures[dead] * float(p == 2.0 and i == j))

    @pytest.mark.parametrize("name", sorted(OPERATOR_MESHES))
    def test_product_matches_matrix_free(self, name):
        # on the larger meshes, against the gradient stencils and quad_load
        mesh = OPERATOR_MESHES[name]()
        rng = np.random.default_rng(mesh.n_free)
        g = _grad(mesh, rng.standard_normal(mesh.n_free))
        mass_q = rng.standard_normal(mesh.quad_weights.shape)
        v = rng.standard_normal(mesh.n_free)
        M = _flux_weights(mesh, g, 2.5)
        expect = matrix_free_hessian(mesh, M, mass_q)(v)
        got = _hessian_stencil(mesh, M, mass_q.copy())(v)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


class TestKernelFormulas:
    # the field-level kernels call the array-level helpers that the eigen
    # line search shares; each must keep the arithmetic of this reference,
    # the kernels' formulas written out in full

    @staticmethod
    def reference(mesh, u, p):
        q = reference_values_at_quad(mesh, u.values)
        g = _grad(mesh, u.values)
        norms = np.sqrt(np.einsum("ed,ed->e", g, g))
        energy = float(np.sum(mesh.measures * norms ** p)) / p
        with np.errstate(divide="ignore", invalid="ignore"):
            factor = np.where(norms >= 1e-14, norms ** (p - 2.0), 0.0)
        residual = _grad_T(mesh, (mesh.measures * factor)[:, None] * g)
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


class TestQuadratureBlocks:
    """The kernels at the quadrature nodes walk the elements in blocks of
    QUAD_BLOCK; each equals its unblocked formula bit for bit, also where
    the last block is partial (4096 = 110 * 37 + 26, 2400 = 2 * 1024 + 352)."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("block", [1024, 37])
    @pytest.mark.parametrize("mesh", [
        pv.build_interval_mesh(-1.0, 2.5, 4096),
        pv.build_rectangle_mesh(0.0, 2.0, 0.0, 1.0, 40, 30),
    ], ids=["interval-4096", "rect-40x30"])
    def test_bit_identical_to_unblocked(self, mesh, block, p, monkeypatch):
        monkeypatch.setattr(pv.assembly, "QUAD_BLOCK", block)
        rng = np.random.default_rng(block)
        v = rng.standard_normal(mesh.n_free)
        w, basis = mesh.quad_weights, mesh.basis_at_quad
        q = reference_values_at_quad(mesh, v)
        assert np.array_equal(pv.assembly.values_at_quad(mesh, pv.make_field(mesh, v)), q)
        g = rng.standard_normal(w.shape)
        assert np.array_equal(pv.assembly.quad_load(mesh, g).values,
                              reference_scatter(mesh, (w * g) @ basis))
        assert _lp(mesh, q, p) == float(np.sum(np.einsum("eq,eq->e", w, np.abs(q) ** p)))
        density = np.copysign(np.abs(q) ** (p - 1.0), q)
        assert np.array_equal(_lp_load(mesh, q, p), reference_scatter(mesh, (w * density) @ basis))

    @pytest.mark.parametrize("block", [1024, 37])
    @pytest.mark.parametrize("mesh", [
        pv.build_interval_mesh(0.0, 1.0, 9),
        pv.build_interval_mesh(-1.0, 2.5, 4096),
        pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 5, 7),
        pv.build_rectangle_mesh(0.0, 2.0, -0.5, 0.5, 24, 16),
        pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 32, 32),
        pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 700),
    ], ids=["interval-9", "interval-4096", "rect-5x7", "rect-24x16", "rect-32x32",
            "rect-3x700"])
    def test_gather_and_scatter_keep_the_table_bits(self, mesh, block, monkeypatch):
        # the grid gather and scatter against the element table's gather and
        # np.add.at, bit for bit (signed zeros too), on values spread over 26
        # decades, so that adding any vertex's terms in another order than
        # ascending element index changes its sum; 3 x 700 has cell rows of
        # 1400 elements, longer than a block
        monkeypatch.setattr(pv.assembly, "QUAD_BLOCK", block)
        rng = np.random.default_rng(mesh.n_elements)

        def spread(shape):
            return rng.standard_normal(shape) * np.exp(rng.uniform(-30.0, 30.0, shape))

        def bits(a):
            return np.asarray(a).tobytes()

        v = spread(mesh.n_free)
        q = pv.assembly.values_at_quad(mesh, pv.make_field(mesh, v))
        assert bits(q) == bits(reference_values_at_quad(mesh, v))
        contrib = spread((mesh.n_elements, mesh.ndim + 1))
        sums = meshing._scatter_corners(mesh, contrib)[(slice(1, -1),) * mesh.ndim]
        assert bits(sums.ravel()) == bits(reference_scatter(mesh, contrib))
        w, g = mesh.quad_weights, spread(mesh.quad_weights.shape)
        assert bits(pv.assembly.quad_load(mesh, g).values) == bits(
            reference_scatter(mesh, (w * g) @ mesh.basis_at_quad))


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

    def test_blocked_density_matches_whole_mesh_evaluation(self):
        # 24 x 24 has 1152 triangles: two `_blocks` slices, one call each
        mesh = pv.build_rectangle_mesh(0.1, 1.3, -0.7, 0.4, 24, 24)
        calls = []

        def g(x):
            calls.append(x.shape[0])
            return np.sin(3.0 * x[:, 0]) * np.exp(x[:, 1])

        h = pv.load_vector(mesh, g)
        assert calls == [1024 * 6, 128 * 6]
        whole = pv.assembly.quad_load(mesh, g(mesh.quad_points_flat()))
        assert np.array_equal(h.values, whole.values)

    def test_scalar_returning_callable_broadcasts(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 24, 24)
        h = pv.load_vector(mesh, lambda x: 2.5)
        assert np.array_equal(h.values, pv.load_vector(mesh, 2.5).values)

    def test_non_finite_in_last_block_names_the_point(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 24, 24)
        target = mesh.quad_points[-1, 3]
        assert mesh.n_elements - 1 >= pv.assembly.QUAD_BLOCK

        def g(x):
            return np.where(np.all(x == target, axis=1), np.inf, 1.0)

        with pytest.raises(ValueError, match=re.escape(str(target))):
            pv.load_vector(mesh, g)

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


class TestFieldStorage:
    @pytest.mark.parametrize("cls", [pv.DiscreteField, pv.DualVector])
    def test_private_read_only_copy(self, cls):
        # the caller's array stays writeable, and writing to it later does
        # not reach the stored values
        mesh = pv.build_interval_mesh(0.0, 1.0, 8)
        u = np.zeros(mesh.n_free)
        v = cls(mesh, u)
        u[0] = 1.0
        assert v.values[0] == 0.0
        assert not v.values.flags.writeable

    @pytest.mark.parametrize("cls", [pv.DiscreteField, pv.DualVector])
    def test_wrong_length_rejected(self, cls):
        mesh = pv.build_interval_mesh(0.0, 1.0, 8)
        with pytest.raises(ValueError, match=f"{cls.__name__} needs 7 values"):
            cls(mesh, np.zeros(3))

    @pytest.mark.parametrize("cls", [pv.DiscreteField, pv.DualVector])
    def test_identity_equality_and_hash(self, cls):
        # comparing two fields used to raise on the array's truth value,
        # and hashing one raised TypeError
        mesh = pv.build_interval_mesh(0.0, 1.0, 8)
        a, b = cls(mesh, np.zeros(mesh.n_free)), cls(mesh, np.zeros(mesh.n_free))
        assert a == a
        assert not a == b
        assert a != b
        assert {a, b, a} == {a, b}
        assert a in {a} and b not in {a}


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
        assert check.passed and res.stop_reason == "stationarity"
        reports = pv.check_theorems(spec, eig, h, mesh, p)
        assert set(reports) == {"sign", "comparison", "landesman_lazer"}
        assert np.sum(mesh.measures) == pytest.approx(1.0, rel=1e-14)

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
