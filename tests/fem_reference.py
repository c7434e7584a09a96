"""Element-by-element oracles for the grid kernels: the vertex coordinates,
element table and free-vertex indices of a mesh's grid (`mesh_tables`);
the quadrature points and element measures by gathers of the element
vertices, closed-form P1 basis gradients, the values at the quadrature
nodes by one unblocked gather, a scatter by `np.add.at`, the p = 2
stiffness matrix and the Newton matrix by COO assembly, the Newton
matrix's stencil built from a whole mass array, and the Newton matrix
applied matrix-free; and for the dual-norm estimate, the hats' L^p
integrals element by element, the loads of coarse hats paired explicitly,
and the dense matrix of dyadic tents on an interval."""
from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from plapvar.assembly import GRADIENT_FLOOR, _blocks, _edges, _grad, _grad_T, _spacing
from plapvar.meshing import CELL_LAYOUT


def mesh_tables(mesh):
    """(vertices, elements, free_vertices) of the mesh's grid: the (nv, ndim)
    vertex coordinates, i-major on a rectangle; the (ne, ndim + 1) vertex
    indices of each element, rectangle cell (i, j) split along v00 -- v11
    into (v00, v10, v11) and (v00, v11, v01); the (nf,) interior vertices,
    in vertex order.  The builders' own index arithmetic from when meshes
    stored these tables."""
    lo, hi = mesh.bounds
    if mesh.ndim == 1:
        (n,) = mesh.structure
        xs = np.linspace(lo[0], hi[0], n + 1)
        vertices = xs.reshape(-1, 1)
        elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        return vertices, elements, np.arange(1, n)
    nx, ny = mesh.structure
    xs = np.linspace(lo[0], hi[0], nx + 1)
    ys = np.linspace(lo[1], hi[1], ny + 1)
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
    return vertices, elements, free


def reference_quad_points(mesh):
    """(ne, nq, ndim) quadrature points from gathers of each element's
    vertices: x_0 + xi (x_1 - x_0) on an interval, sum_k b_k v_k by
    einsum on a triangle."""
    vertices, elements, _ = mesh_tables(mesh)
    v = vertices[elements]                                 # (ne, ndim + 1, ndim)
    if mesh.ndim == 1:
        xi = mesh.basis_at_quad[:, 1]
        return v[:, 0][:, None, :] + xi[None, :, None] * (v[:, 1] - v[:, 0])[:, None, :]
    return np.einsum("qk,ekd->eqd", mesh.basis_at_quad, v)


def reference_measures(mesh):
    """(ne,) element lengths/areas: the uniform step on an interval, half
    the edge determinant of each gathered triangle."""
    if mesh.ndim == 1:
        (n,) = mesh.structure
        return np.full(n, (mesh.bounds[1][0] - mesh.bounds[0][0]) / n)
    vertices, elements, _ = mesh_tables(mesh)
    v0 = vertices[elements[:, 0]]
    e1 = vertices[elements[:, 1]] - v0
    e2 = vertices[elements[:, 2]] - v0
    return np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]) / 2.0


def reference_basis_gradients(mesh):
    """(ne, ndim + 1, ndim) P1 basis gradients by the closed-form formulas."""
    if mesh.ndim == 1:
        (n,) = mesh.structure
        h = (mesh.bounds[1][0] - mesh.bounds[0][0]) / n
        return np.broadcast_to([[-1.0 / h], [1.0 / h]], (n, 2, 1))
    vertices, elements, _ = mesh_tables(mesh)
    v = vertices[elements]                                 # (ne, 3, 2)
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    inv_det = 1.0 / (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    grads = np.empty((mesh.n_elements, 3, 2))
    grads[:, 1] = np.column_stack([e2[:, 1], -e2[:, 0]]) * inv_det[:, None]
    grads[:, 2] = np.column_stack([-e1[:, 1], e1[:, 0]]) * inv_det[:, None]
    grads[:, 0] = -grads[:, 1] - grads[:, 2]
    return grads


def reference_corner_values(mesh, v):
    """(ne, ndim + 1) values at each element's vertices of the field with
    free values v, gathered through the element table."""
    vertices, elements, free = mesh_tables(mesh)
    full = np.zeros(len(vertices))
    full[free] = v
    return full[elements]


def reference_values_at_quad(mesh, v):
    """(ne, nq) values at the quadrature nodes of the field with free values
    v, gathered for all elements at once."""
    return reference_corner_values(mesh, v) @ mesh.basis_at_quad.T


def reference_scatter(mesh, contrib):
    """Element-local entries, shape (ne, ndim + 1) or flat, summed into
    free-dof order by `np.add.at` over the element table."""
    vertices, elements, free = mesh_tables(mesh)
    out = np.zeros(len(vertices))
    np.add.at(out, elements.ravel(), contrib.ravel())
    return out[free]


def stiffness_matrix(mesh):
    """p = 2 stiffness matrix on free dofs, int grad psi_i . grad psi_j (CSC).

    Local matrices |T| grad(lambda_k) . grad(lambda_l) summed by COO
    assembly over all vertices, then restricted to the free ones.
    """
    grads = reference_basis_gradients(mesh)
    local = np.einsum("e,ekd,eld->ekl", mesh.measures, grads, grads)
    return _coo_free(mesh, local)


def _coo_free(mesh, local):
    """The (ne, ndim + 1, ndim + 1) local matrices summed by COO assembly
    over all vertices, then restricted to the free ones (CSC)."""
    vertices, elements, free = mesh_tables(mesh)
    nloc = elements.shape[1]
    rows = np.repeat(elements, nloc, axis=1).ravel()
    cols = np.tile(elements, (1, nloc)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(len(vertices), len(vertices))).tocsc()
    return K[np.ix_(free, free)]


def gradient_tolerance(mesh):
    """Relative bound for the grid stencils against `reference_basis_gradients`.

    1e-15, plus on a rectangle twice the largest relative gap between a
    vertex spacing and the uniform grid step.  The vertices come from
    `np.linspace`, so their differences carry the rounding of the
    coordinates: the rectangle gradients above read the vertices, the
    stencils read the uniform step.  The interval gradients above read
    the uniform step too, and the gap is 0 where every vertex lies on
    the grid exactly.
    """
    if mesh.ndim == 1:
        return 1e-15
    lo, hi = mesh.bounds
    grid = mesh_tables(mesh)[0].reshape(mesh.structure[0] + 1, mesh.structure[1] + 1, 2)
    gaps = []
    for steps, a, b, n in ((np.diff(grid[:, 0, 0]), lo[0], hi[0], mesh.structure[0]),
                           (np.diff(grid[0, :, 1]), lo[1], hi[1], mesh.structure[1])):
        h = (b - a) / n
        gaps.append(float(np.max(np.abs(steps - h))) / h)
    return 1e-15 + 2.0 * max(gaps)


def _weights(mesh, p, grads):
    """|T| w and g_hat per element, with w = 1 at p = 2 and 0 otherwise
    below the gradient floor, element by element."""
    c, g_hat = np.zeros(mesh.n_elements), np.zeros_like(grads)
    for e, g in enumerate(grads):
        r = float(np.linalg.norm(g))
        if r >= GRADIENT_FLOOR:
            c[e], g_hat[e] = mesh.measures[e] * r ** (p - 2.0), g / r
        elif p == 2.0:
            c[e] = mesh.measures[e]
    return c, g_hat


def reference_hessian(mesh, p, grads, mass_q=None):
    """The Newton matrix on free dofs (CSC) by COO assembly: the p-energy
    Hessian at element gradients grads, with local matrices
    |T| w (L_k . L_l + (p-2) (g_hat . L_k) (g_hat . L_l)) from
    `reference_basis_gradients`, minus int m psi_k psi_l for m = mass_q at
    the quadrature nodes."""
    L = reference_basis_gradients(mesh)
    c, g_hat = _weights(mesh, p, grads)
    s = np.einsum("ed,ekd->ek", g_hat, L)
    local = c[:, None, None] * (np.einsum("ekd,eld->ekl", L, L)
                                + (p - 2.0) * s[:, :, None] * s[:, None, :])
    if mass_q is not None:
        phi = mesh.basis_at_quad
        local -= np.einsum("eq,qk,ql->ekl", mesh.quad_weights * mass_q, phi, phi)
    return _coo_free(mesh, local)


def in_blocks(mesh, a):
    """(sl, a[sl]) for each `assembly._blocks` slice sl of an (ne, ...)
    array a: the form in which `_lp`, `_lp_load` and `_hessian_stencil`
    take values at the quadrature nodes."""
    return ((sl, a[sl]) for sl in _blocks(mesh))


def whole_mass_stencil(mesh, M, mass_q):
    """(diag, couplings) on the whole vertex grid of the Newton matrix as
    `assembly._hessian_stencil` built it from a whole (ne, nq) mass array:
    the mass entries made one `_blocks` slice at a time into one (ne, nq)
    array, then, per element type and entry (a, b), a <= b, its M parts
    added and its mass entries subtracted over all cells at once."""
    types = list(zip(CELL_LAYOUT[mesh.ndim], [((-1,), (1,))] if mesh.ndim == 1 else
                     [((-1, 0), (1, -1), (0, 1)), ((0, -1), (1, 0), (-1, 1))]))
    cells = mesh.structure
    pairs = [(a, b) for a in range(mesh.ndim + 1) for b in range(a, mesh.ndim + 1)]
    psi_pairs = np.stack([mesh.basis_at_quad[:, a] * mesh.basis_at_quad[:, b]
                          for a, b in pairs], axis=1)
    entries = np.empty((mesh.n_elements, len(pairs)))
    for sl in _blocks(mesh):
        np.matmul(mesh.quad_weights[sl] * mass_q[sl], psi_pairs, out=entries[sl])
    entries = entries.reshape(*cells, len(types), len(pairs))
    M = {ij: m.reshape(*cells, len(types)) for ij, m in M.items()}
    diag = np.zeros([n + 1 for n in cells])
    couplings = {step: np.zeros_like(diag) for step in _edges(mesh.ndim)}
    h = _spacing(mesh)
    for t, (off, grads) in enumerate(types):
        L = [[k / h_k for k, h_k in zip(row, h)] for row in grads]
        for k, (a, b) in enumerate(pairs):
            step = tuple(abs(y - x) for x, y in zip(off[a], off[b]))
            target = (diag if a == b else couplings[step])[
                tuple(slice(min(x, y), min(x, y) + n) for x, y, n in zip(off[a], off[b], cells))]
            for (i, j), m in M.items():
                coef = L[a][i] * L[b][j] + (L[a][j] * L[b][i] if i != j else 0.0)
                if coef:
                    target += coef * m[..., t]
            target -= entries[..., t, k]
    return diag, couplings


def matrix_free_hessian(mesh, M, mass=None):
    """v -> the Newton matrix times v, applied matrix-free, with the same
    signature as `assembly._hessian_stencil`: the p-energy part D^T (M D v),
    with the element coefficient M applied per element from its entries
    {(i, j): (ne,) array}, i <= j, by the gradient stencils, minus the load
    of m times v at the quadrature nodes, by `reference_values_at_quad`
    and `reference_scatter`; mass gives m in (sl, m) blocks, as
    `_hessian_stencil` takes it, and they are collected first."""
    mass_q = None
    if mass is not None:
        mass_q = np.full(mesh.quad_weights.shape, np.nan)
        for sl, m in mass:
            mass_q[sl] = m

    def apply(v):
        G = _grad(mesh, v)
        MG = np.zeros_like(G)
        for (i, j), m in M.items():
            MG[:, i] += m * G[:, j]
            if i != j:
                MG[:, j] += m * G[:, i]
        out = _grad_T(mesh, MG)
        if mass_q is not None:
            v_q = reference_values_at_quad(mesh, v)
            out -= reference_scatter(mesh, (mesh.quad_weights * (mass_q * v_q))
                                     @ mesh.basis_at_quad)
        return out

    return apply


def reference_hat_lp(mesh, p):
    """int |psi_j|^p of each free hat, summed element by element.

    On a d-simplex T a hat is a barycentric coordinate, whose p-th power
    integrates to |T| d! Gamma(p + 1) / Gamma(p + d + 1) (the Dirichlet
    integral)."""
    d = mesh.ndim
    per_vertex = math.factorial(d) * math.gamma(p + 1.0) / math.gamma(p + d + 1.0)
    return reference_scatter(mesh, np.outer(mesh.measures, np.full(d + 1, per_vertex)))


def coarse_hat_loads(mesh, load, levels):
    """<load, v_I> for the hats v_I of the grid with every step 2^levels
    times the mesh's, one per interior coarse vertex I (shape of the coarse
    interior grid).  Each v_I is written out by its values at the mesh's
    free vertices: 1 - |dx| on an interval, 1 - max(|dx|, |dy|, |dx - dy|)
    on a rectangle, clipped at 0, with (dx, dy) the offset from I in
    coarse steps."""
    k = 2 ** levels
    cells = [n // k for n in mesh.structure]
    fine = np.stack(np.meshgrid(*[np.arange(1, n) for n in mesh.structure],
                                indexing="ij"), axis=-1).reshape(-1, mesh.ndim)
    out = np.empty([n - 1 for n in cells])
    for I in np.ndindex(*out.shape):
        off = (fine - k * (np.array(I) + 1)) / k
        if mesh.ndim == 1:
            dist = np.abs(off[:, 0])
        else:
            dist = np.max(np.abs(np.column_stack([off, off[:, 0] - off[:, 1]])), axis=1)
        out[I] = np.maximum(0.0, 1.0 - dist) @ load
    return out


def tent_lambda_u(mesh, load, p):
    """The dual-norm estimate on an interval from the dense (tents x free
    vertices) matrix of dyadic tents: half-widths h_c = k h for
    k = 1, 2, 4, ... while k <= n // 2 and 2k divides n at the step
    before, centred at the interior multiples of h_c, with
    ||v|| = (2 h_c / (p + 1) + 2 h_c^(1 - p))^(1/p)."""
    (n,) = mesh.structure
    a, b = float(mesh.bounds[0][0]), float(mesh.bounds[1][0])
    h = (b - a) / n
    x_free = mesh.free_coordinates()[:, 0]
    best, k = 0.0, 1
    while k <= n // 2:
        hc = k * h
        centers = a + h * np.arange(k, n - k + 1, k, dtype=float)
        vals = np.maximum(0.0, 1.0 - np.abs(x_free[None, :] - centers[:, None]) / hc)
        denom = (2.0 * hc / (p + 1.0) + 2.0 * hc ** (1.0 - p)) ** (1.0 / p)
        best = max(best, float(np.max(np.abs(vals @ load))) / denom)
        if n % (2 * k) != 0:
            break
        k *= 2
    return best
