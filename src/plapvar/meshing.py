"""Simplicial meshes for intervals and axis-aligned rectangles.

Interval meshes are uniform partitions of (a, b).  Rectangle meshes are
structured triangulations: each grid cell is split into two triangles
along the cell diagonal, so every interior grid vertex is a free degree
of freedom and the piecewise-linear space is nested under bisection.

A mesh is its grid (`Mesh.bounds`, `Mesh.structure`) and what the grid
cannot give cheaply, all frozen: the one element measure of the uniform
grid, and the weights and basis values of one quadrature rule per element
type (3-point Gauss-Legendre on intervals, exact through degree 5; 6
points on triangles, exact through degree 4).  The per-element measures
and weights are read-only views of that measure and of the one weight
row, broadcast along the elements.  It stores no connectivity:
`CELL_LAYOUT` places the elements in a grid cell, and by it
`_gather_corners` reads a vertex grid at the vertices of a slice of
elements and `_scatter_corners`, its adjoint, sums element-local entries
onto the grid.  `Mesh.quad_points_of` makes the quadrature points of a
slice of elements from the grid lines, at the cost of the cell rows it
meets; `Mesh.quad_points`, all of them, is kept once read, for the
hypothesis checkers and a spec that is not autonomous.
"""

from __future__ import annotations

import math
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


#: The cell layout: for each element type t, the offsets of its vertices in
#: their grid cell, in the element's vertex order.  Interval cell i is element
#: i; rectangle cell (i, j), i-major, holds elements 2 (i ny + j) + t.
CELL_LAYOUT = {1: (((0,), (1,)),),
               2: (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))}


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _corners(mesh: Mesh):
    """Yield (t, k, at) for each corner k of each element type t: at slices
    a vertex grid to that corner of every cell's type-t element.  Vertex P
    is that corner of cell P - o, o its offset, so this order, by -o, then
    t, meets the elements at each vertex in ascending index."""
    pairs = [(t, k, off) for t, offsets in enumerate(CELL_LAYOUT[mesh.ndim])
             for k, off in enumerate(offsets)]
    for t, k, off in sorted(pairs, key=lambda tko: ([-o for o in tko[2]], tko[0])):
        yield t, k, tuple(slice(o, o + n) for o, n in zip(off, mesh.structure))


def _gather_corners(mesh: Mesh, U: np.ndarray):
    """gather(sl): the (ndim + 1, k) values of the vertex grid U at the
    vertices of the elements in sl, corner-major, copied from the corner
    views of U (taken once) over the cell rows that sl meets."""
    views = [(t, k, U[at]) for t, k, at in _corners(mesh)]
    n_types = len(CELL_LAYOUT[mesh.ndim])

    def gather(sl):
        i0, i1, lo, hi = mesh._cell_rows(sl)
        V = np.empty((mesh.ndim + 1, i1 - i0, *mesh.structure[1:], n_types))
        for t, k, corner in views:
            V[k, ..., t] = corner[i0:i1]
        return V.reshape(mesh.ndim + 1, -1)[:, lo:hi]

    return gather


def _scatter_corners(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """The vertex grid of the sums of element-local entries, shape
    (ne, ndim + 1) or flat: the adjoint of `_gather_corners`, one shifted +=
    per element type and corner.  Each vertex adds its terms one at a time
    from 0 in ascending element order, as adding element by element does."""
    C = contrib.reshape(*mesh.structure, len(CELL_LAYOUT[mesh.ndim]), mesh.ndim + 1)
    U = np.zeros([n + 1 for n in mesh.structure])
    for t, k, at in _corners(mesh):
        U[at] += C[..., t, k]
    return U


@dataclass(frozen=True, eq=False)
class Mesh:
    """Conforming P1 mesh of an interval or rectangle.

    Two meshes are equal only when they are the same object, so a mesh can
    key a dict and `==` never compares arrays.

    Attributes
    ----------
    ndim : 1 or 2.
    measures : (ne,) element lengths/areas: one positive value, the grid
        step (b - a) / n or hx hy / 2, as a read-only stride-0 view.
    quad_weights : (ne, nq) physical quadrature weights w_q |T|: one row,
        as a read-only view with stride 0 along the elements (a flat copy
        is `quad_weights_flat()`).
    basis_at_quad : (nq, ndim + 1) reference P1 basis values at the rule nodes.
    bounds : (lo, hi) corners of the bounding box, each of shape (ndim,).
    structure : element counts per axis, (n,) or (nx, ny).

    Elements and free vertices are those of the grid (`CELL_LAYOUT`).
    `quad_points_of(sl)` makes the (k, nq, ndim) quadrature points of a
    slice of elements from the grid lines; `quad_points`, those of every
    element, is made by it on first read and kept.
    """

    ndim: int
    measures: np.ndarray
    quad_weights: np.ndarray
    basis_at_quad: np.ndarray
    bounds: tuple
    structure: tuple

    @property
    def n_elements(self) -> int:
        return math.prod(self.structure) * len(CELL_LAYOUT[self.ndim])

    @property
    def n_free(self) -> int:
        return math.prod(n - 1 for n in self.structure)

    def free_coordinates(self) -> np.ndarray:
        """Coordinates of the free vertices, shape (nf, ndim): the interior
        grid lines' points in C order."""
        inner = [xs[1:-1] for xs in self.grid_lines()]
        return np.stack(np.meshgrid(*inner, indexing="ij"), axis=-1).reshape(-1, self.ndim)

    def grid_lines(self) -> list:
        """Each axis' grid lines, np.linspace(lo, hi, n + 1): the builders'
        own lines bit for bit, since `bounds` holds their ends."""
        lo, hi = self.bounds
        return [np.linspace(a, b, n + 1) for a, b, n in zip(lo, hi, self.structure)]

    def quad_points_of(self, sl: slice) -> np.ndarray:
        """(k, nq, ndim) physical quadrature points of the elements in sl.

        sl is a slice of element indices with step 1, such as an
        `assembly._blocks` slice (a stop past the last element is clipped);
        the points come from the grid lines of the cell rows sl meets.
        Interval element i: x_i + xi (x_{i+1} - x_i).  Rectangle cell (i, j):
        sum_k b_k v_k over the corners of each triangle, i.e.
        x = b0 x_i + b1 x_{i+1} + b2 x_{i+1}, y = b0 y_j + b1 y_j + b2 y_{j+1}
        on (v00, v10, v11) and x = b0 x_i + b1 x_{i+1} + b2 x_i,
        y = b0 y_j + b1 y_{j+1} + b2 y_{j+1} on (v00, v11, v01).
        """
        i0, i1, lo, hi = self._cell_rows(sl)
        lines = self.grid_lines()
        b = self.basis_at_quad
        if self.ndim == 1:
            (xs,) = lines
            x0, x1 = xs[i0:i1, None], xs[i0 + 1:i1 + 1, None]
            return (x0 + b[:, 1] * (x1 - x0))[:, :, None]
        # x varies with the cell row and y with the column, so each is made
        # once and broadcast
        nq, ny = b.shape[0], self.structure[1]
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
        return pts.reshape(-1, nq, 2)[lo:hi]

    def _cell_rows(self, sl: slice) -> tuple:
        """(i0, i1, lo, hi): the cell rows i0 <= i < i1 (an interval's
        cells) that the elements of sl meet, and sl's bounds in them."""
        start, stop, _ = sl.indices(self.n_elements)
        per_row = self.n_elements // self.structure[0]
        stop = max(start, stop)
        i0, i1 = start // per_row, -(-stop // per_row)
        return i0, i1, start - per_row * i0, stop - per_row * i0

    @cached_property
    def quad_points(self) -> np.ndarray:
        """(ne, nq, ndim) physical quadrature points of every element, made
        by `quad_points_of` on first read and kept."""
        return _freeze(self.quad_points_of(slice(None)))

    def quad_points_flat(self) -> np.ndarray:
        """All quadrature points as one (ne * nq, ndim) array."""
        return self.quad_points.reshape(-1, self.ndim)

    def quad_weights_flat(self) -> np.ndarray:
        """All quadrature weights as one (ne * nq,) array, a copy of the row."""
        return self.quad_weights.reshape(-1)


def _finish_mesh(lines, measure, weights, basis_at_quad) -> Mesh:
    """The mesh of the grid with these per-axis grid lines, element measure
    (one value, shared by every element) and quadrature rule (reference
    weights summing to 1, basis values).  `measures` and `quad_weights` are
    read-only views of the measure and of the one row w_q |T|, broadcast
    along the elements, so the mesh holds no element-sized array."""
    if not np.all(measure > 0.0):
        raise ValueError("mesh has an element measure that is not positive")
    structure = tuple(int(xs.size - 1) for xs in lines)
    ne = math.prod(structure) * len(CELL_LAYOUT[len(lines)])
    return Mesh(
        ndim=len(lines),
        measures=np.broadcast_to(measure, (ne,)),
        quad_weights=np.broadcast_to(np.array(weights) * measure, (ne, len(weights))),
        basis_at_quad=_freeze(basis_at_quad),
        bounds=(_freeze([xs[0] for xs in lines]), _freeze([xs[-1] for xs in lines])),
        structure=structure,
    )


def build_interval_mesh(a: float, b: float, n: int) -> Mesh:
    """Uniform mesh of (a, b) with n elements and n - 1 free vertices."""
    # an infinite bound, or a length b - a that overflows, has no finite steps
    if not (a < b and math.isfinite(float(b) - float(a))):
        raise ValueError(f"interval requires a < b, finite bounds and steps, got a={a}, b={b}")
    if n < 2:
        raise ValueError(f"interval mesh needs at least 2 elements, got n={n}")
    xi = np.array(_INTERVAL_NODES)
    return _finish_mesh([np.linspace(a, b, n + 1)], (float(b) - float(a)) / n,
                        _INTERVAL_WEIGHTS, np.column_stack([1.0 - xi, xi]))


def build_rectangle_mesh(ax: float, bx: float, ay: float, by: float,
                         nx: int, ny: int) -> Mesh:
    """Structured triangulation of (ax, bx) x (ay, by).

    Each of the nx * ny grid cells is split along its diagonal into two
    triangles (`CELL_LAYOUT`), giving 2 * nx * ny elements and
    (nx - 1) * (ny - 1) free vertices.  All diagonals are parallel, so
    bisecting nx and ny yields a nested refinement.
    """
    # a finite area bounds both lengths, every step and every cell's area
    if not (ax < bx and ay < by and math.isfinite((float(bx) - float(ax))
                                                  * (float(by) - float(ay)))):
        raise ValueError(f"rectangle requires ax < bx and ay < by, finite bounds, steps "
                         f"and area, got ({ax}, {bx}) x ({ay}, {by})")
    if nx < 2 or ny < 2:
        raise ValueError(f"rectangle mesh needs nx, ny >= 2, got nx={nx}, ny={ny}")
    # both triangles of cell (i, j) have edge determinant dx_i dy_j, which
    # is hx hy wherever the linspace steps do not round; every element gets
    # hx hy / 2 from the uniform steps, the ones `assembly._spacing` gives
    # the gradient stencil, so the areas and the gradients agree
    hx, hy = (float(bx) - float(ax)) / nx, (float(by) - float(ay)) / ny
    return _finish_mesh([np.linspace(ax, bx, nx + 1), np.linspace(ay, by, ny + 1)],
                        hx * hy / 2.0, _TRI_WEIGHTS, np.array(_TRI_POINTS))


def refine_structured(mesh: Mesh) -> Mesh:
    """One dyadic bisection of a structured mesh (nested refinement)."""
    lo, hi = mesh.bounds
    if mesh.ndim == 1:
        (n,) = mesh.structure
        return build_interval_mesh(lo[0], hi[0], 2 * n)
    nx, ny = mesh.structure
    return build_rectangle_mesh(lo[0], hi[0], lo[1], hi[1], 2 * nx, 2 * ny)
