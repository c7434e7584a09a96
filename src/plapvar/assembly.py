"""P1 assembly kernels for p-Laplacian energies on simplicial meshes.

Discrete fields store coefficients for free (interior) vertices only;
the homogeneous Dirichlet trace is structural, never enforced by
penalties.  Gradients of P1 fields are constant per element, so the
p-Dirichlet energy (1/p) int |grad u|^p is evaluated exactly.  With the
mesh's gradient operator D, element gradients are D u, the residual is
D^T (|T| |D u|^(p-2) D u) and the p = 2 stiffness matrix D^T diag(|T|) D.
Zeroth order integrals (int |u|^p, loads, potential terms) use the mesh's
Gauss rule, which has polynomial exactness degree >= 4 by default.
Each kernel's formula lives in one array-level helper (`_energy`,
`_flux` of element gradients; `_lp`, `_lp_load` of values at the
quadrature nodes) that the public field-level function calls, so a
caller that already holds D u or the quadrature values skips the gather.

Every scalar sum goes through `_reduce`, the one summation policy: one
pairwise `np.sum` over the contiguous contributions, in the mesh's fixed
element order.  Sums are deterministic per mesh and per numpy build, but
permuting the element array may change their last bits; the pairwise
error, O(eps log n) times the sum of |contributions|, is far below
every tolerance in the package.  Every other element-to-free-dof sum
goes through `_scatter`, the one scatter, which like D^T accumulates in
a fixed element order; `quad_load` builds on it to turn a density at the
quadrature nodes into a dual vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .meshing import Mesh

__all__ = [
    "DiscreteField",
    "DualVector",
    "make_field",
    "zero_field",
    "make_dual",
    "zero_dual",
    "interpolate",
    "dirichlet_energy",
    "plap_residual",
    "lp_integral",
    "lp_residual",
    "pairing",
    "load_vector",
    "quad_load",
    "stiffness_matrix",
    "values_at_quad",
    "gradients_on_elements",
    "sup_norm",
]

# Elements whose P1 gradient is below this threshold contribute nothing to
# the residual, which keeps |grad u|^(p-2) finite for 1 < p < 2.
GRADIENT_FLOOR = 1e-14


@dataclass(frozen=True)
class DiscreteField:
    """P1 function with zero boundary trace; one coefficient per free vertex."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.shape != (self.mesh.n_free,):
            raise ValueError(
                f"field needs {self.mesh.n_free} coefficients, got shape {v.shape}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class DualVector:
    """Linear functional on the discrete space, paired via the Euclidean dot."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.shape != (self.mesh.n_free,):
            raise ValueError(
                f"dual vector needs {self.mesh.n_free} entries, got shape {v.shape}"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def make_field(mesh: Mesh, values) -> DiscreteField:
    return DiscreteField(mesh, np.asarray(values, dtype=float))


def zero_field(mesh: Mesh) -> DiscreteField:
    return DiscreteField(mesh, np.zeros(mesh.n_free))


def make_dual(mesh: Mesh, values) -> DualVector:
    return DualVector(mesh, np.asarray(values, dtype=float))


def zero_dual(mesh: Mesh) -> DualVector:
    return DualVector(mesh, np.zeros(mesh.n_free))


def _check_mesh(mesh: Mesh, u) -> None:
    if u.mesh is not mesh:
        raise ValueError("field/dual vector belongs to a different mesh")


def _check_p(p: float) -> None:
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got p={p}")


def _reduce(x: np.ndarray) -> float:
    """Pairwise sum of a 1-D array in element order (one `np.sum`).

    Deterministic for a fixed mesh and numpy build; permuting the
    elements may change the last bits.
    """
    return float(np.sum(x))


def _scatter(mesh: Mesh, contrib: np.ndarray) -> np.ndarray:
    """Sum element-local entries, shape (ne, ndim+1) or flat, into free-dof order."""
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.elements.ravel(), contrib.ravel())
    return out[mesh.free_vertices]


def interpolate(mesh: Mesh, fn) -> DiscreteField:
    """Interpolate a callable of the free-vertex coordinates into P1."""
    vals = np.asarray(fn(mesh.free_coordinates()), dtype=float)
    return DiscreteField(mesh, vals)


def gradients_on_elements(mesh: Mesh, u: DiscreteField) -> np.ndarray:
    """Constant gradient of u on each element, shape (ne, ndim): D u."""
    _check_mesh(mesh, u)
    return (mesh.grad_op @ u.values).reshape(mesh.n_elements, mesh.ndim)


def values_at_quad(mesh: Mesh, u: DiscreteField) -> np.ndarray:
    """u evaluated at the quadrature points, shape (ne, nq)."""
    _check_mesh(mesh, u)
    full = np.zeros(mesh.n_vertices)
    full[mesh.free_vertices] = u.values
    return full[mesh.elements] @ mesh.basis_at_quad.T


def sup_norm(mesh: Mesh, u: DiscreteField) -> float:
    """max |u| over the mesh; for P1 fields this is the nodal max."""
    _check_mesh(mesh, u)
    if u.values.size == 0:
        return 0.0
    return float(np.max(np.abs(u.values)))


def _energy(mesh: Mesh, g: np.ndarray, p: float) -> float:
    """(1/p) int |g|^p for element gradients g, shape (ne, ndim)."""
    norms = np.sqrt(np.einsum("ed,ed->e", g, g))
    return _reduce(mesh.measures * norms ** p) / p


def _flux(mesh: Mesh, g: np.ndarray, p: float) -> np.ndarray:
    """D^T (|T| |g|^(p-2) g) for element gradients g, with the gradient floor."""
    norms = np.sqrt(np.einsum("ed,ed->e", g, g))
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(norms >= GRADIENT_FLOOR, norms ** (p - 2.0), 0.0)
    flux = (mesh.measures * factor)[:, None] * g          # (ne, ndim)
    return mesh.grad_op.T @ flux.ravel()


def _lp(mesh: Mesh, q: np.ndarray, p: float) -> float:
    """int |u|^p from u at the quadrature nodes q, shape (ne, nq)."""
    return _reduce(np.einsum("eq,eq->e", mesh.quad_weights, np.abs(q) ** p))


def _lp_load(mesh: Mesh, q: np.ndarray, p: float) -> np.ndarray:
    """Entries int |u|^(p-2) u psi_j from u at the quadrature nodes q."""
    return quad_load(mesh, np.sign(q) * np.abs(q) ** (p - 1.0)).values


def dirichlet_energy(mesh: Mesh, u: DiscreteField, p: float) -> float:
    """(1/p) int_Omega |grad u|^p, exact for P1 fields."""
    _check_mesh(mesh, u)
    _check_p(p)
    return _energy(mesh, gradients_on_elements(mesh, u), p)


def plap_residual(mesh: Mesh, u: DiscreteField, p: float) -> DualVector:
    """Gradient of the p-Dirichlet energy: entries int |grad u|^(p-2) grad u . grad psi_j.

    Elements with |grad u| < 1e-14 contribute zero, which keeps the
    degenerate factor finite for p < 2 (and is the correct limit for
    p >= 2).
    """
    _check_mesh(mesh, u)
    _check_p(p)
    return DualVector(mesh, _flux(mesh, gradients_on_elements(mesh, u), p))


def lp_integral(mesh: Mesh, u: DiscreteField, p: float) -> float:
    """int_Omega |u|^p by the mesh's Gauss rule (exact for p = 2)."""
    _check_mesh(mesh, u)
    if not (p >= 1.0):
        raise ValueError(f"lp_integral needs p >= 1, got p={p}")
    return _lp(mesh, values_at_quad(mesh, u), p)


def lp_residual(mesh: Mesh, u: DiscreteField, p: float) -> DualVector:
    """Entries int |u|^(p-2) u psi_j dx, with the same rule as lp_integral.

    This is (1/p) times the coefficient gradient of lp_integral, so the
    two stay consistent at stationary points of Rayleigh quotients.
    """
    _check_mesh(mesh, u)
    _check_p(p)
    return DualVector(mesh, _lp_load(mesh, values_at_quad(mesh, u), p))


def pairing(h: DualVector, v: DiscreteField) -> float:
    """Duality pairing <h, v> (Euclidean dot of coefficient vectors)."""
    if h.mesh is not v.mesh:
        raise ValueError("pairing requires h and v on the same mesh")
    return float(np.dot(h.values, v.values))


def load_vector(mesh: Mesh, g) -> DualVector:
    """Dual vector with entries int g psi_j dx.

    `g` is a callable of point arrays of shape (m, ndim) returning (m,),
    or a constant.  Non-finite values of g at quadrature points are
    rejected with the offending point named.
    """
    pts = mesh.quad_points_flat()
    if callable(g):
        gv = np.asarray(g(pts), dtype=float)
        gv = np.broadcast_to(gv, (pts.shape[0],)).astype(float)
    else:
        gv = np.full(pts.shape[0], float(g))
    bad = ~np.isfinite(gv)
    if np.any(bad):
        where = pts[np.argmax(bad)]
        raise ValueError(f"load density is not finite at quadrature point {where}")
    return quad_load(mesh, gv)


def quad_load(mesh: Mesh, density_q) -> DualVector:
    """Dual vector with entries int g psi_j dx from g at the quadrature nodes.

    density_q holds g at `mesh.quad_points`, shape (ne, nq) or flat.
    """
    weighted = mesh.quad_weights * np.reshape(density_q, mesh.quad_weights.shape)
    return DualVector(mesh, _scatter(mesh, weighted @ mesh.basis_at_quad))


def stiffness_matrix(mesh: Mesh) -> sp.csc_matrix:
    """Sparse p=2 stiffness matrix on free dofs: int grad psi_i . grad psi_j.

    D^T diag(|T|) D, used as the fixed symmetric positive definite metric
    for descent directions; it is not a Riesz identification of residuals.
    """
    D = mesh.grad_op
    weights = sp.diags_array(np.repeat(mesh.measures, mesh.ndim))
    return sp.csc_matrix(D.T @ (weights @ D))


def hat_energies(mesh: Mesh, p: float) -> np.ndarray:
    """int |grad psi_j|^p of each free-vertex basis function psi_j."""
    rows = mesh.n_elements * mesh.ndim
    element_sum = sp.csr_array((np.ones(rows), np.arange(rows),
                                np.arange(rows + 1, step=mesh.ndim)))
    norms = (element_sum @ mesh.grad_op.power(2)).sqrt()  # (ne, nf): |grad psi_j| on e
    return norms.power(p).T @ mesh.measures
