"""Simplicial meshes for intervals and axis-aligned rectangles.

Meshes carry everything the assembly kernels need: vertex coordinates,
element connectivity, the free (interior) vertices, per-element measures,
the quadrature weights of one fixed rule per element type, and the grid
they were cut from (`Mesh.bounds`, `Mesh.structure`).  Intervals use the
3-point Gauss-Legendre rule (exact through degree 5), triangles a 6-point
rule exact through degree 4.  Every mesh is a uniform tensor grid, so
the mesh holds only what the grid cannot give cheaply:
- the measures are the products of the grid steps, |dx_i dy_j| / 2 for
  both triangles of cell (i, j);
- the quadrature points are made from the grid lines (`Mesh.grid_lines`)
  by `Mesh.quad_points_of`, for any slice of elements; a block of
  elements costs only its own cell rows.  `Mesh.quad_points` keeps all
  of them once read, for the hypothesis checkers and for an f that reads
  x.  The eigen problem reads no point, a density load makes one block at
  a time, and an f that ignores x gets one point, so neither the eigen
  nor an autonomous solve pipeline ever holds the whole array;
- no basis gradient is stored: the P1 gradient operator D is a pair of
  grid difference stencils (`assembly._grad`, `assembly._grad_T`).
All arrays the mesh keeps are frozen (non-writeable) once made.

Interval meshes are uniform partitions of (a, b).  Rectangle meshes are
structured triangulations: each grid cell is split into two triangles
along the cell diagonal, so every interior grid vertex is a free degree
of freedom and the piecewise-linear space is nested under bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Mesh",
    "build_interval_mesh",
    "build_rectangle_mesh",
    "refine_structured",
]

# The two rules are plain tuples; the builders make the arrays, so that
# importing the module allocates none (it showed in the import's peak RSS).

#: 3-point Gauss-Legendre rule on [0, 1], exact through degree 5.  These are
#: the float64 values of the Golub-Welsch eigen-solve, kept bit for bit: the
#: symmetric closed form (5/18, 4/9) moves every lambda1 and Phi in its last
#: digits.
_INTERVAL_NODES = (0.11270166537925824, 0.5, 0.8872983346207417)
_INTERVAL_WEIGHTS = (0.2777777777777777, 0.44444444444444425, 0.2777777777777778)

#: 6-point symmetric rule on the reference triangle {xi, eta >= 0,
#: xi + eta <= 1}, exact through degree 4 (the classical Strang/Cowper
#: values): barycentric points, and weights summing to 1 that the element
#: area scales.
_TRI_POINTS = (
    (0.816847572980459, 0.091576213509771, 0.091576213509771),
    (0.091576213509771, 0.816847572980459, 0.091576213509771),
    (0.091576213509771, 0.091576213509771, 0.816847572980459),
    (0.108103018168070, 0.445948490915965, 0.445948490915965),
    (0.445948490915965, 0.108103018168070, 0.445948490915965),
    (0.445948490915965, 0.445948490915965, 0.108103018168070),
)
_TRI_WEIGHTS = (0.109951743655322,) * 3 + (0.223381589678011,) * 3


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming P1 mesh of an interval or rectangle.

    Two meshes are equal only when they are the same object, so a mesh can
    key a dict and `==` never compares arrays.

    Attributes
    ----------
    ndim : 1 or 2.
    vertices : (nv, ndim) coordinates.
    elements : (ne, ndim + 1) vertex indices per simplex.
    free_vertices : (nf,) indices of interior vertices, in vertex order.
    measures : (ne,) element lengths/areas, all positive.
    quad_weights : (ne, nq) physical quadrature weights (include measures).
    basis_at_quad : (nq, ndim + 1) reference P1 basis values at the rule nodes.
    bounds : (lo, hi) corners of the bounding box, each of shape (ndim,).
    structure : element counts per axis, (n,) or (nx, ny).

    `quad_points_of(sl)` makes the (k, nq, ndim) quadrature points of a
    slice of elements from the grid lines; `quad_points`, those of every
    element, is made by it on first read and kept.
    """

    ndim: int
    vertices: np.ndarray
    elements: np.ndarray
    free_vertices: np.ndarray
    measures: np.ndarray
    quad_weights: np.ndarray
    basis_at_quad: np.ndarray
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

    def free_coordinates(self) -> np.ndarray:
        """Coordinates of the free vertices, shape (nf, ndim)."""
        return self.vertices[self.free_vertices]

    def grid_lines(self) -> list:
        """Each axis' grid lines, np.linspace(lo, hi, n + 1): the vertex
        coordinates bit for bit, since the builders cut the grid so."""
        lo, hi = self.bounds
        return [np.linspace(a, b, n + 1) for a, b, n in zip(lo, hi, self.structure)]

    def quad_points_of(self, sl: slice) -> np.ndarray:
        """(k, nq, ndim) physical quadrature points of the elements in sl.

        sl is a slice of element indices with step 1, such as an
        `assembly._blocks` slice; a stop past the last element is clipped.
        The points come from the grid lines of the cells sl meets, so a
        block of elements costs only its own cell rows.  Interval element
        i: x_i + xi (x_{i+1} - x_i).  Rectangle cell (i, j): sum_k b_k v_k
        over the corners of each triangle, i.e.
        x = b0 x_i + b1 x_{i+1} + b2 x_{i+1}, y = b0 y_j + b1 y_j + b2 y_{j+1}
        on (v00, v10, v11) and x = b0 x_i + b1 x_{i+1} + b2 x_i,
        y = b0 y_j + b1 y_{j+1} + b2 y_{j+1} on (v00, v11, v01).
        """
        start, stop, _ = sl.indices(self.n_elements)
        stop = max(start, stop)
        lines = self.grid_lines()
        b = self.basis_at_quad
        if self.ndim == 1:
            (xs,) = lines
            x0, x1 = xs[start:stop, None], xs[start + 1:stop + 1, None]
            return (x0 + b[:, 1] * (x1 - x0))[:, :, None]
        # cell (i, j) holds elements 2 (i ny + j) and 2 (i ny + j) + 1, so
        # the slice meets the cell rows i0 <= i < i1; x varies with the row
        # and y with the column, so each is made once and broadcast
        nq, ny = b.shape[0], self.structure[1]
        i0, i1 = start // (2 * ny), -(-stop // (2 * ny))
        xs, ys = lines
        x0, x1 = xs[i0:i1, None], xs[i0 + 1:i1 + 1, None]
        y0, y1 = ys[:-1, None], ys[1:, None]
        b0, b1, b2 = b.T
        x, y = np.empty((i1 - i0, 1, 2, nq)), np.empty((ny, 2, nq))  # row/column, triangle, node
        x[:, 0, 0] = b0 * x0 + b1 * x1 + b2 * x1
        x[:, 0, 1] = b0 * x0 + b1 * x1 + b2 * x0
        y[:, 0] = b0 * y0 + b1 * y0 + b2 * y1
        y[:, 1] = b0 * y0 + b1 * y1 + b2 * y1
        pts = np.empty((i1 - i0, ny, 2, nq, 2))
        pts[..., 0] = x
        pts[..., 1] = y
        first = 2 * ny * i0
        return pts.reshape(-1, nq, 2)[start - first:stop - first]

    @cached_property
    def quad_points(self) -> np.ndarray:
        """(ne, nq, ndim) physical quadrature points of every element, made
        by `quad_points_of` on first read and kept."""
        return _freeze(self.quad_points_of(slice(None)))

    def quad_points_flat(self) -> np.ndarray:
        """All quadrature points as one (ne * nq, ndim) array."""
        return self.quad_points.reshape(-1, self.ndim)

    def quad_weights_flat(self) -> np.ndarray:
        return self.quad_weights.reshape(-1)


def _finish_mesh(ndim, vertices, elements, free, measures,
                 qw, basis_at_quad, structure) -> Mesh:
    if np.any(measures <= 0.0):
        raise ValueError("mesh has a non-positive element measure")
    return Mesh(
        ndim=ndim,
        vertices=_freeze(vertices),
        elements=_freeze(elements),
        free_vertices=_freeze(free),
        measures=_freeze(measures),
        quad_weights=_freeze(qw),
        basis_at_quad=_freeze(basis_at_quad),
        bounds=(_freeze(vertices.min(axis=0)), _freeze(vertices.max(axis=0))),
        structure=structure,
    )


def build_interval_mesh(a: float, b: float, n: int) -> Mesh:
    """Uniform mesh of (a, b) with n elements and n - 1 free vertices."""
    if not (a < b):
        raise ValueError(f"interval requires a < b, got a={a}, b={b}")
    if n < 2:
        raise ValueError(f"interval mesh needs at least 2 elements, got n={n}")
    xs = np.linspace(a, b, n + 1)
    vertices = xs.reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    h = (b - a) / n
    measures = np.full(n, h)

    xi, w = np.array(_INTERVAL_NODES), np.array(_INTERVAL_WEIGHTS)
    qw = np.broadcast_to(w[None, :] * h, (n, xi.size)).copy()
    basis_at_quad = np.column_stack([1.0 - xi, xi])

    return _finish_mesh(1, vertices, elements, np.arange(1, n), measures,
                        qw, basis_at_quad, (int(n),))


def build_rectangle_mesh(ax: float, bx: float, ay: float, by: float,
                         nx: int, ny: int) -> Mesh:
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
    free = np.flatnonzero((0 < ii) & (ii < nx) & (0 < jj) & (jj < ny))

    # both triangles' edge determinants reduce to dx_i dy_j exactly
    cells = np.abs((xs[1:] - xs[:-1])[:, None] * (ys[1:] - ys[:-1])) / 2.0
    measures = np.repeat(cells.ravel(), 2)

    bary, w = np.array(_TRI_POINTS), np.array(_TRI_WEIGHTS)
    qw = w[None, :] * measures[:, None]

    return _finish_mesh(2, vertices, elements, free, measures,
                        qw, bary, (int(nx), int(ny)))


def refine_structured(mesh: Mesh) -> Mesh:
    """One dyadic bisection of a structured mesh (nested refinement)."""
    lo, hi = mesh.bounds
    if mesh.ndim == 1:
        (n,) = mesh.structure
        return build_interval_mesh(lo[0], hi[0], 2 * n)
    nx, ny = mesh.structure
    return build_rectangle_mesh(lo[0], hi[0], lo[1], hi[1], 2 * nx, 2 * ny)
