"""Simplicial meshes for intervals and axis-aligned rectangles.

Meshes carry everything the assembly kernels need: vertex coordinates,
element connectivity, boundary flags, per-element measures, a fixed
Gauss quadrature rule, and the grid they were cut from (`Mesh.bounds`,
`Mesh.structure`).  No basis gradient is stored: every mesh is a uniform
tensor grid, so the P1 gradient operator D is a pair of grid difference
stencils (`assembly._grad`, `assembly._grad_T`).  All arrays are frozen
(non-writeable) once the mesh is built.

Interval meshes are uniform partitions of (a, b).  Rectangle meshes are
structured triangulations: each grid cell is split into two triangles
along the cell diagonal, so every interior grid vertex is a free degree
of freedom and the piecewise-linear space is nested under bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mesh",
    "build_interval_mesh",
    "build_rectangle_mesh",
    "refine_structured",
    "gauss_points_interval",
    "gauss_points_triangle",
]


def gauss_points_interval(order: int):
    """Gauss-Legendre nodes/weights on the reference interval [0, 1].

    The returned rule integrates polynomials of degree >= `order`
    exactly (an n-point rule is exact through degree 2n - 1).  The rule
    on [-1, 1] comes from Golub-Welsch: its nodes are the eigenvalues of
    the Legendre Jacobi matrix, whose off-diagonal is k / sqrt(4k^2 - 1),
    and its weights twice the squared first components of the
    eigenvectors.
    """
    if order < 1:
        raise ValueError("quadrature order must be at least 1")
    npts = (order + 2) // 2
    k = np.arange(1.0, npts)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    t, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    return (t + 1.0) / 2.0, vecs[0] ** 2


# Symmetric triangle rules on the reference triangle {xi, eta >= 0, xi + eta <= 1}.
# Barycentric points with weights summing to 1 (scaled by the area later).
# Degree 2: 3-point midpoint-style rule; degree 4: 6-point rule; degree 5:
# 7-point rule.  Coordinates are the classical Strang/Cowper values.
_TRI_RULES = {
    1: ([(1 / 3, 1 / 3, 1 / 3)], [1.0]),
    2: (
        [(2 / 3, 1 / 6, 1 / 6), (1 / 6, 2 / 3, 1 / 6), (1 / 6, 1 / 6, 2 / 3)],
        [1 / 3, 1 / 3, 1 / 3],
    ),
    4: (
        [
            (0.816847572980459, 0.091576213509771, 0.091576213509771),
            (0.091576213509771, 0.816847572980459, 0.091576213509771),
            (0.091576213509771, 0.091576213509771, 0.816847572980459),
            (0.108103018168070, 0.445948490915965, 0.445948490915965),
            (0.445948490915965, 0.108103018168070, 0.445948490915965),
            (0.445948490915965, 0.445948490915965, 0.108103018168070),
        ],
        [
            0.109951743655322,
            0.109951743655322,
            0.109951743655322,
            0.223381589678011,
            0.223381589678011,
            0.223381589678011,
        ],
    ),
    5: (
        [
            (1 / 3, 1 / 3, 1 / 3),
            (0.797426985353087, 0.101286507323456, 0.101286507323456),
            (0.101286507323456, 0.797426985353087, 0.101286507323456),
            (0.101286507323456, 0.101286507323456, 0.797426985353087),
            (0.059715871789770, 0.470142064105115, 0.470142064105115),
            (0.470142064105115, 0.059715871789770, 0.470142064105115),
            (0.470142064105115, 0.470142064105115, 0.059715871789770),
        ],
        [
            0.225,
            0.125939180544827,
            0.125939180544827,
            0.125939180544827,
            0.132394152788506,
            0.132394152788506,
            0.132394152788506,
        ],
    ),
}


def gauss_points_triangle(order: int):
    """Barycentric points and weights (summing to 1) of degree >= `order`."""
    if order < 1:
        raise ValueError("quadrature order must be at least 1")
    for deg in sorted(_TRI_RULES):
        if deg >= order:
            pts, w = _TRI_RULES[deg]
            return np.asarray(pts, dtype=float), np.asarray(w, dtype=float)
    raise ValueError(f"no triangle quadrature rule of order {order} available (max 5)")


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Mesh:
    """Conforming P1 mesh of an interval or rectangle.

    Attributes
    ----------
    ndim : 1 or 2.
    vertices : (nv, ndim) coordinates.
    elements : (ne, ndim + 1) vertex indices per simplex.
    is_boundary : (nv,) flags for vertices on the geometric boundary.
    free_vertices : (nf,) indices of interior vertices, in vertex order.
    dof_index : (nv,) free-dof index per vertex, -1 on the boundary.
    measures : (ne,) element lengths/areas, all positive.
    quad_points : (ne, nq, ndim) physical quadrature points.
    quad_weights : (ne, nq) physical quadrature weights (include measures).
    basis_at_quad : (nq, ndim + 1) reference P1 basis values at the rule nodes.
    quad_order : polynomial exactness degree of the rule.
    bounds : (lo, hi) corners of the bounding box, each of shape (ndim,).
    structure : element counts per axis, (n,) or (nx, ny).
    """

    ndim: int
    vertices: np.ndarray
    elements: np.ndarray
    is_boundary: np.ndarray
    free_vertices: np.ndarray
    dof_index: np.ndarray
    measures: np.ndarray
    quad_points: np.ndarray
    quad_weights: np.ndarray
    basis_at_quad: np.ndarray
    quad_order: int
    bounds: tuple
    structure: tuple

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_free(self) -> int:
        return self.free_vertices.shape[0]

    @property
    def domain_measure(self) -> float:
        return float(np.sum(self.measures))

    def free_coordinates(self) -> np.ndarray:
        """Coordinates of the free vertices, shape (nf, ndim)."""
        return self.vertices[self.free_vertices]

    def quad_points_flat(self) -> np.ndarray:
        """All quadrature points as one (ne * nq, ndim) array."""
        return self.quad_points.reshape(-1, self.ndim)

    def quad_weights_flat(self) -> np.ndarray:
        return self.quad_weights.reshape(-1)


def _finish_mesh(ndim, vertices, elements, is_boundary, measures,
                 qpts, qw, basis_at_quad, quad_order, structure) -> Mesh:
    if np.any(measures <= 0.0):
        raise ValueError("mesh has a non-positive element measure")
    dof_index = np.full(vertices.shape[0], -1, dtype=int)
    free = np.flatnonzero(~is_boundary)
    dof_index[free] = np.arange(free.size)
    return Mesh(
        ndim=ndim,
        vertices=_freeze(vertices),
        elements=_freeze(elements),
        is_boundary=_freeze(is_boundary),
        free_vertices=_freeze(free),
        dof_index=_freeze(dof_index),
        measures=_freeze(measures),
        quad_points=_freeze(qpts),
        quad_weights=_freeze(qw),
        basis_at_quad=_freeze(basis_at_quad),
        quad_order=quad_order,
        bounds=(_freeze(vertices.min(axis=0)), _freeze(vertices.max(axis=0))),
        structure=structure,
    )


def build_interval_mesh(a: float, b: float, n: int, quad_order: int = 4) -> Mesh:
    """Uniform mesh of (a, b) with n elements and n - 1 free vertices."""
    if not (a < b):
        raise ValueError(f"interval requires a < b, got a={a}, b={b}")
    if n < 2:
        raise ValueError(f"interval mesh needs at least 2 elements, got n={n}")
    xs = np.linspace(a, b, n + 1)
    vertices = xs.reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    is_boundary = np.zeros(n + 1, dtype=bool)
    is_boundary[0] = is_boundary[-1] = True
    h = (b - a) / n
    measures = np.full(n, h)

    xi, w = gauss_points_interval(quad_order)
    qpts = (vertices[elements[:, 0]][:, None, :]
            + xi[None, :, None] * (vertices[elements[:, 1]] - vertices[elements[:, 0]])[:, None, :])
    qw = np.broadcast_to(w[None, :] * h, (n, xi.size)).copy()
    basis_at_quad = np.column_stack([1.0 - xi, xi])

    return _finish_mesh(1, vertices, elements, is_boundary, measures,
                        qpts, qw, basis_at_quad, quad_order,
                        (int(n),))


def build_rectangle_mesh(ax: float, bx: float, ay: float, by: float,
                         nx: int, ny: int, quad_order: int = 4) -> Mesh:
    """Structured triangulation of (ax, bx) x (ay, by).

    Each of the nx * ny grid cells is split along its diagonal into two
    triangles, giving 2 * nx * ny elements and (nx - 1) * (ny - 1) free
    vertices.  All diagonals are parallel, so bisecting nx and ny yields
    a nested refinement.
    """
    if not (ax < bx and ay < by):
        raise ValueError(f"rectangle requires ax < bx and ay < by, got "
                         f"({ax}, {bx}) x ({ay}, {by})")
    if nx < 2 or ny < 2:
        raise ValueError(f"rectangle mesh needs nx, ny >= 2, got nx={nx}, ny={ny}")
    xs = np.linspace(ax, bx, nx + 1)
    ys = np.linspace(ay, by, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    # cell (i, j), i-major, has corner v00 = i (ny + 1) + j; it is split
    # along the diagonal v00 -- v11 into (v00, v10, v11) and (v00, v11, v01)
    v00 = (np.arange(nx)[:, None] * (ny + 1) + np.arange(ny)).ravel()
    v10, v01 = v00 + (ny + 1), v00 + 1
    v11 = v10 + 1
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)

    ii, jj = np.divmod(np.arange(vertices.shape[0]), ny + 1)
    is_boundary = (ii == 0) | (ii == nx) | (jj == 0) | (jj == ny)

    v0 = vertices[elements[:, 0]]
    e1 = vertices[elements[:, 1]] - v0
    e2 = vertices[elements[:, 2]] - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    measures = np.abs(det) / 2.0

    bary, w = gauss_points_triangle(quad_order)
    # physical points: sum_k bary_k * vertex_k
    qpts = np.einsum("qk,ekd->eqd", bary, vertices[elements])
    qw = w[None, :] * measures[:, None]
    basis_at_quad = bary.copy()

    return _finish_mesh(2, vertices, elements, is_boundary, measures,
                        qpts, qw, basis_at_quad, quad_order,
                        (int(nx), int(ny)))


def refine_structured(mesh: Mesh) -> Mesh:
    """One dyadic bisection of a structured mesh (nested refinement)."""
    lo, hi = mesh.bounds
    if mesh.ndim == 1:
        (n,) = mesh.structure
        return build_interval_mesh(lo[0], hi[0], 2 * n, quad_order=mesh.quad_order)
    nx, ny = mesh.structure
    return build_rectangle_mesh(lo[0], hi[0], lo[1], hi[1], 2 * nx, 2 * ny,
                                quad_order=mesh.quad_order)
