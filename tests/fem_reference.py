"""Element-by-element oracles for the grid kernels: closed-form P1 basis
gradients, a scatter by `np.add.at`, and the p = 2 stiffness matrix by COO
assembly."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def reference_basis_gradients(mesh):
    """(ne, ndim + 1, ndim) P1 basis gradients by the closed-form formulas."""
    if mesh.ndim == 1:
        (n,) = mesh.structure
        h = (mesh.bounds[1][0] - mesh.bounds[0][0]) / n
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


def stiffness_matrix(mesh):
    """p = 2 stiffness matrix on free dofs, int grad psi_i . grad psi_j (CSC).

    Local matrices |T| grad(lambda_k) . grad(lambda_l) summed by COO
    assembly over all vertices, then restricted to the free ones.
    """
    grads = reference_basis_gradients(mesh)
    nloc = mesh.elements.shape[1]
    local = np.einsum("e,ekd,eld->ekl", mesh.measures, grads, grads)
    rows = np.repeat(mesh.elements, nloc, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, nloc)).ravel()
    K = sp.coo_matrix((local.ravel(), (rows, cols)),
                      shape=(mesh.n_vertices, mesh.n_vertices)).tocsc()
    free = mesh.free_vertices
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
    grid = mesh.vertices.reshape(mesh.structure[0] + 1, mesh.structure[1] + 1, 2)
    gaps = []
    for steps, a, b, n in ((np.diff(grid[:, 0, 0]), lo[0], hi[0], mesh.structure[0]),
                           (np.diff(grid[0, :, 1]), lo[1], hi[1], mesh.structure[1])):
        h = (b - a) / n
        gaps.append(float(np.max(np.abs(steps - h))) / h)
    return 1e-15 + 2.0 * max(gaps)
