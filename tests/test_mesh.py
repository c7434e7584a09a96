"""Mesh construction and geometric bookkeeping."""
from __future__ import annotations

import math

import numpy as np
import pytest
from fem_reference import reference_measures, reference_quad_points

import plapvar as pv
from plapvar import assembly, cli, meshing
from plapvar.meshing import _INTERVAL_WEIGHTS, _TRI_WEIGHTS


class TestIntervalMesh:
    def test_counts(self):
        m = pv.build_interval_mesh(0.0, 1.0, 8)
        assert m.ndim == 1
        assert m.n_vertices == 9
        assert m.n_elements == 8
        assert m.n_free == 7

    def test_endpoints_are_boundary(self):
        # the free vertices are the interior ones, in vertex order
        m = pv.build_interval_mesh(-1.0, 3.0, 5)
        assert np.array_equal(m.free_vertices, [1, 2, 3, 4])
        assert m.vertices[0, 0] == -1.0
        assert m.vertices[-1, 0] == 3.0

    def test_element_measures_sum_to_length(self):
        m = pv.build_interval_mesh(0.25, 0.75, 13)
        assert math.isclose(float(np.sum(m.measures)), 0.5, rel_tol=1e-14)

    def test_needs_two_elements(self):
        with pytest.raises(ValueError):
            pv.build_interval_mesh(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            pv.build_interval_mesh(1.0, 0.0, 4)

    def test_quadrature_integrates_polynomials(self):
        # the 3-point Gauss rule is exact through degree 5 per element
        m = pv.build_interval_mesh(0.0, 1.0, 3)
        x = m.quad_points_flat()[:, 0]
        w = m.quad_weights_flat()
        for k in range(6):
            assert math.isclose(float(w @ x**k), 1.0 / (k + 1), rel_tol=1e-13)

    @pytest.mark.parametrize("degree", range(1, 12))
    def test_gauss_rule_matches_leggauss(self, degree):
        # the mesh's interval rule against numpy's 3-point rule on [0, 1]:
        # the same nodes and weights, and the same integral of t**degree,
        # exact through degree 5 and equally inexact beyond
        t, w = np.polynomial.legendre.leggauss(3)
        t, w = (t + 1.0) / 2.0, w / 2.0
        m = pv.build_interval_mesh(0.0, 1.0, 2)
        nodes = m.basis_at_quad[:, 1]
        weights = m.quad_weights[0] / m.measures[0]
        assert np.max(np.abs(nodes - t)) <= 1e-15
        assert np.max(np.abs(weights - w)) <= 1e-15
        integral = float(weights @ nodes**degree)
        assert abs(integral - float(w @ t**degree)) <= 1e-15
        if degree <= 5:
            assert abs(integral - 1.0 / (degree + 1)) <= 1e-15


class TestRectangleMesh:
    def test_counts(self):
        m = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 2.0, 4, 3)
        assert m.ndim == 2
        assert m.n_vertices == 5 * 4
        assert m.n_elements == 2 * 4 * 3  # two triangles per cell
        assert m.n_free == 3 * 2

    def test_measures(self):
        m = pv.build_rectangle_mesh(0.0, 2.0, -1.0, 1.0, 5, 7)
        assert math.isclose(float(np.sum(m.measures)), 4.0, rel_tol=1e-13)
        # structured split: every triangle has the same area
        assert np.allclose(m.measures, 4.0 / m.n_elements)

    def test_bounds(self):
        m = pv.build_rectangle_mesh(0.0, 2.0, -1.0, 1.0, 5, 7)
        lo, hi = m.bounds
        assert lo.tolist() == [0.0, -1.0] and hi.tolist() == [2.0, 1.0]
        lo, hi = pv.build_interval_mesh(-0.5, 3.0, 9).bounds
        assert lo.tolist() == [-0.5] and hi.tolist() == [3.0]

    def test_boundary_ring(self):
        m = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)
        v = m.vertices
        on_ring = (np.isclose(v[:, 0], 0) | np.isclose(v[:, 0], 1)
                   | np.isclose(v[:, 1], 0) | np.isclose(v[:, 1], 1))
        assert np.array_equal(m.free_vertices, np.flatnonzero(~on_ring))

    def test_quadrature_integrates_bilinears(self):
        m = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 2)
        pts = m.quad_points_flat()
        w = m.quad_weights_flat()
        assert math.isclose(float(np.sum(w)), 1.0, rel_tol=1e-13)
        assert math.isclose(float(w @ (pts[:, 0] * pts[:, 1])), 0.25, rel_tol=1e-12)
        assert math.isclose(float(w @ pts[:, 0] ** 2), 1.0 / 3.0, rel_tol=1e-12)

    def test_quadrature_is_exact_through_degree_4(self):
        # int x^a y^b over (0, 2) x (-1, 1) for every a + b <= 4
        m = pv.build_rectangle_mesh(0.0, 2.0, -1.0, 1.0, 3, 2)
        x, y = m.quad_points_flat().T
        w = m.quad_weights_flat()
        for a in range(5):
            for b in range(5 - a):
                exact = 2.0 ** (a + 1) / (a + 1) * (1.0 - (-1.0) ** (b + 1)) / (b + 1)
                assert math.isclose(float(w @ (x ** a * y ** b)), exact,
                                    rel_tol=1e-13, abs_tol=1e-13)

    @pytest.mark.parametrize("nx, ny", [(2, 2), (3, 5), (5, 3)])
    def test_element_table_matches_cell_loop(self, nx, ny):
        # cell (i, j), i-major, split along v00 -- v11, first triangle first
        ref = []
        for i in range(nx):
            for j in range(ny):
                v00, v10 = i * (ny + 1) + j, (i + 1) * (ny + 1) + j
                v01, v11 = v00 + 1, v10 + 1
                ref += [(v00, v10, v11), (v00, v11, v01)]
        m = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 2.0, nx, ny)
        assert m.elements.dtype == np.asarray(ref).dtype
        assert np.array_equal(m.elements, np.asarray(ref))


class TestFreeDofs:
    @pytest.mark.parametrize("mesh", [
        pv.build_interval_mesh(0.0, 1.0, 6),
        pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 3, 4),
    ])
    def test_dof_index_roundtrip(self, mesh):
        # dof j lives on vertex free_vertices[j]: the interior vertices,
        # in vertex order
        lo, hi = mesh.bounds
        v = mesh.vertices
        interior = np.all((v > lo) & (v < hi), axis=1)
        assert np.array_equal(mesh.free_vertices, np.flatnonzero(interior))
        assert len(mesh.free_vertices) == mesh.n_free

    def test_free_coordinates_match(self):
        m = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 4, 4)
        assert np.array_equal(m.free_coordinates(), m.vertices[m.free_vertices])


class TestMeshIdentity:
    @pytest.mark.parametrize("build, args", [
        (pv.build_interval_mesh, (0.0, 1.0, 6)),
        (pv.build_rectangle_mesh, (0.0, 1.0, 0.0, 1.0, 3, 4)),
    ], ids=["interval", "rectangle"])
    def test_equality_is_identity(self, build, args):
        # equal arguments build distinct meshes; comparing them never
        # compares arrays, and a mesh can key a dict
        m1, m2 = build(*args), build(*args)
        assert m1 == m1 and m1 != m2
        cache = {m1: "first", m2: "second"}
        assert cache[m1] == "first" and cache[m2] == "second"


class TestRefineCoarsen:
    def test_interval_refine_doubles(self):
        m = pv.build_interval_mesh(0.0, 1.0, 8)
        r = pv.refine_structured(m)
        assert r.n_elements == 16
        assert r.structure == (16,)
        assert all(np.array_equal(x, y) for x, y in zip(r.bounds, m.bounds))

    def test_rectangle_refine(self):
        m = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 2.0, 3, 5)
        r = pv.refine_structured(m)
        assert r.n_elements == 4 * m.n_elements
        assert r.structure == (6, 10)


class TestFieldsAndInterpolation:
    def test_zero_field(self):
        m = pv.build_interval_mesh(0.0, 1.0, 5)
        u = pv.zero_field(m)
        assert u.values.shape == (m.n_free,)
        assert not u.values.any()

    def test_make_field_validates_length(self):
        m = pv.build_interval_mesh(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            pv.make_field(m, np.ones(3))

    def test_interpolate_hits_nodes(self):
        m = pv.build_interval_mesh(0.0, 1.0, 16)
        u = pv.interpolate(m, lambda x: np.sin(np.pi * x[:, 0]))
        x = m.free_coordinates()[:, 0]
        assert np.allclose(u.values, np.sin(np.pi * x), atol=1e-14)

    def test_interpolate_2d(self):
        m = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 8, 8)
        u = pv.interpolate(m, lambda x: x[:, 0] * (1 - x[:, 1]))
        c = m.free_coordinates()
        assert np.allclose(u.values, c[:, 0] * (1 - c[:, 1]))


REFERENCE_MESHES = {
    "rectangle-pi": lambda: pv.build_rectangle_mesh(0.0, math.pi, -1.3, 2.7, 37, 53),
    "rectangle-offset": lambda: pv.build_rectangle_mesh(1e5, 1e5 + 1, 0.0, 3.0, 17, 9),
    "interval-4096": lambda: pv.build_interval_mesh(-2.5, 7.1, 4096),
}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestAgainstGatherReference:
    # the grid formulas against gathers of each element's vertices, on
    # non-dyadic bounds and steps
    @pytest.fixture(params=sorted(REFERENCE_MESHES))
    def mesh(self, request):
        return REFERENCE_MESHES[request.param]()

    def test_points_and_measures_bit_for_bit(self, mesh):
        rule = _INTERVAL_WEIGHTS if mesh.ndim == 1 else _TRI_WEIGHTS
        measures = reference_measures(mesh)
        assert same_bits(mesh.measures, measures)
        assert same_bits(mesh.quad_weights, np.array(rule)[None, :] * measures[:, None])
        assert same_bits(mesh.quad_points, reference_quad_points(mesh))

    def test_points_of_each_block_bit_for_bit(self, mesh):
        # every `assembly._blocks` slice: the rectangles' 3922 and 306
        # elements leave a partial last block; the interval's 4096 fill four
        # blocks, so a shifted slice past the last element checks the clip
        reference = reference_quad_points(mesh)
        for sl in [*assembly._blocks(mesh), slice(5, mesh.n_elements + 9)]:
            assert same_bits(mesh.quad_points_of(sl), reference[sl])
        assert "quad_points" not in vars(mesh)

    def test_blocks_inside_a_cell_row_longer_than_a_block(self):
        # 3 x 700: one cell row holds 1400 elements, more than QUAD_BLOCK, so
        # blocks start and end inside a row; 4200 elements leave a partial block
        mesh = pv.build_rectangle_mesh(-0.3, 1.7, 0.25, 9.5, 3, 700)
        assert 2 * 700 > assembly.QUAD_BLOCK and mesh.n_elements % assembly.QUAD_BLOCK
        reference = reference_quad_points(mesh)
        slices = [slice(0, 1), slice(1399, 1401), slice(4199, 5000), slice(7, 7)]
        for sl in [*assembly._blocks(mesh), *slices]:
            assert same_bits(mesh.quad_points_of(sl), reference[sl])

    def test_grid_lines_are_the_vertex_coordinates(self, mesh):
        lines = mesh.grid_lines()
        grid = np.stack(np.meshgrid(*lines, indexing="ij"), axis=-1)
        assert same_bits(mesh.vertices, grid.reshape(-1, mesh.ndim))
        assert same_bits(mesh.bounds[0], [xs[0] for xs in lines])
        assert same_bits(mesh.bounds[1], [xs[-1] for xs in lines])

    def test_arrays_frozen_and_contiguous(self, mesh):
        arrays = [mesh.vertices, mesh.elements, mesh.free_vertices, mesh.measures,
                  mesh.quad_points, mesh.quad_weights, mesh.basis_at_quad, *mesh.bounds]
        for arr in arrays:
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous


class TestQuadPointsOnFirstRead:
    def test_made_once_and_kept(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 2.0, 5, 3)
        assert "quad_points" not in vars(mesh)
        pts = mesh.quad_points
        assert pts.shape == (mesh.n_elements, 6, 2)
        assert mesh.quad_points is pts and not pts.flags.writeable

    def test_constant_load_reads_no_point(self):
        mesh = pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 24, 24)
        pv.load_vector(mesh, 1.0)
        assert "quad_points" not in vars(mesh)

    @pytest.mark.parametrize("mesh", [
        pv.build_interval_mesh(0.0, 1.0, 64),
        pv.build_rectangle_mesh(0.0, 1.0, 0.0, 1.0, 16, 16),
    ], ids=["interval", "rectangle"])
    def test_eigenpair_makes_no_points(self, mesh):
        pv.first_eigenpair(mesh, 3.0)
        assert "quad_points" not in vars(mesh)

    def test_eigen_pipeline_makes_no_points(self, tmp_path, monkeypatch):
        built = []

        def build(cfg):
            built.append(build_mesh(cfg))
            return built[-1]

        build_mesh = cli._build_mesh
        monkeypatch.setattr(cli, "_build_mesh", build)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("pipeline = eigen\ndomain = rectangle\nnx = 12\nny = 10\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert len(built) == 1 and "quad_points" not in vars(built[0])

    def test_autonomous_solve_pipeline_makes_no_points(self, tmp_path, monkeypatch):
        # power_perturbation ignores x, and the density h is loaded block by block
        built = []

        def build(cfg):
            built.append(build_mesh(cfg))
            return built[-1]

        build_mesh = cli._build_mesh
        monkeypatch.setattr(cli, "_build_mesh", build)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("pipeline = solve\ndomain = rectangle\nnx = 12\nny = 10\np = 2.5\n"
                       "nonlinearity = power_perturbation\nnonlinearity.beta = 2.0\n"
                       "h = density: 0.2*sin(pi*x)*sin(pi*y)\n")
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert len(built) == 1 and "quad_points" not in vars(built[0])


class TestNonFiniteGrids:
    """Infinite bounds, and finite ones whose steps or areas overflow, are refused."""

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                      (-1e308, 1e308)])
    def test_interval(self, a, b):
        with pytest.raises(ValueError, match="finite bounds and steps"):
            pv.build_interval_mesh(a, b, 8)

    @pytest.mark.parametrize("box", [(0.0, math.inf, 0.0, 1.0), (0.0, 1.0, -math.inf, 1.0),
                                     (0.0, 1.0, -1e308, 1e308)])
    def test_rectangle(self, box):
        with pytest.raises(ValueError, match="finite bounds, steps and area"):
            pv.build_rectangle_mesh(*box, 4, 4)

    def test_overflowing_area(self):
        # steps of 5e199 are finite, but a cell's area is not
        with pytest.raises(ValueError, match="finite bounds, steps and area"):
            pv.build_rectangle_mesh(0.0, 1e200, 0.0, 1e200, 2, 2)

    def test_nan_measure(self):
        m = pv.build_interval_mesh(0.0, 1.0, 4)
        measures = np.array([0.25, np.nan, 0.25, 0.25])
        with pytest.raises(ValueError, match="not positive"):
            meshing._finish_mesh(1, m.vertices, m.elements, m.free_vertices, measures,
                                 m.quad_weights, m.basis_at_quad, m.structure)
