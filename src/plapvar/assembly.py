"""P1 assembly kernels for p-Laplacian energies on simplicial meshes.

Discrete fields store coefficients for free (interior) vertices only;
the homogeneous Dirichlet trace is structural, never enforced by
penalties.  Gradients of P1 fields are constant per element, so the
p-Dirichlet energy (1/p) int |grad u|^p is evaluated exactly.  With the
P1 gradient operator D, element gradients are D u and the residual is
D^T (|T| |D u|^(p-2) D u).  Every mesh is a uniform tensor grid, so D is
never stored: `_grad` applies it as difference stencils on the grid and
`_grad_T` applies D^T as the matching negated differences; `_restrict`
takes hat loads to the grid of twice the step, for the coarse hats of
the dual-norm estimate (norms by `_hat_norm`).  The p = 2 stiffness
matrix D^T diag(|T|) D is never assembled either; the descents apply
its inverse in closed form (`solver._poisson_solve`).  The one matrix
assembled is the Newton matrix, once per descent step, as a grid stencil
(`_hessian_stencil`): the p-energy Hessian minus a mass matrix, of f' in
the energy descent and of lambda (p-1) |u|^(p-2) in the eigen descent.
Zeroth order integrals (int |u|^p, loads, potential terms) use the mesh's
one fixed rule: 3-point Gauss-Legendre on intervals (exact through degree
5), a 6-point rule on triangles (exact through degree 4).
Each kernel's formula lives in one array-level helper (`_energy`,
`_flux` of element gradients; `_lp`, `_lp_load` of values at the
quadrature nodes) that the public field-level function calls, so a
caller that already holds D u or the quadrature values skips the gather.
`_flux_weights` holds the derivative of `_flux`, the element weights of
the p-energy Hessian that `_hessian_stencil` assembles.

Every scalar sum goes through `_reduce`, the one summation policy: one
pairwise `np.sum` over the contiguous contributions, in the mesh's fixed
element order.  Sums are deterministic per mesh and per numpy build, but
permuting the element array may change their last bits; the pairwise
error, O(eps log n) times the sum of |contributions|, is far below
every tolerance in the package.  Every other element-to-free-dof sum
goes through `_scatter`, the one scatter, which accumulates in a fixed
element order.

All work at the quadrature nodes walks the elements in the blocks of
QUAD_BLOCK elements that `_blocks` yields, so its temporaries are block
sized.  `_quad_blocks` is the one gather: it yields a field's values at
the quadrature nodes block by block, and `values_at_quad` collects them,
so a caller that evaluates a user's function there (the energy descent's
f, F and f') or reduces each block (the eigen line search) never holds
an (ne, nq) temporary.  `_load` is the one load: it turns a density
given block by block into a dual vector, writing each block's element
contributions into one (ne, ndim+1) array that is scattered once;
`quad_load` and `_lp_load` call it, and `load_vector` and the energy
descent's f load call it through `_finite_load`, which names the first
node of a non-finite density.  `load_vector` evaluates a density on the
quadrature points of one block at a time, made by `Mesh.quad_points_of`
and not kept, so no pipeline makes the whole-mesh `Mesh.quad_points` for
its load; the x of f, F and G is `nonlinearity._quad_x`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "values_at_quad",
    "gradients_on_elements",
    "sup_norm",
]

# Elements whose P1 gradient is below this threshold contribute nothing to
# the residual, which keeps |grad u|^(p-2) finite for 1 < p < 2.
GRADIENT_FLOOR = 1e-14

# Elements per block of `_blocks`: 1024 triangles hold 6144 quadrature
# nodes, so each block's temporaries are 48 KB.
QUAD_BLOCK = 1024


@dataclass(frozen=True, eq=False)
class _FreeVector:
    """One float per free vertex of `mesh`, held as a read-only copy.

    The copy keeps the caller's array writeable and keeps later writes
    to it out of the object.  Equality is identity and the hash is
    object's: compare values with np.array_equal.
    """

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, order="C")
        if v.shape != (self.mesh.n_free,):
            raise ValueError(f"{type(self).__name__} needs {self.mesh.n_free} "
                             f"values, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


class DiscreteField(_FreeVector):
    """P1 function with zero boundary trace; one coefficient per free vertex."""


class DualVector(_FreeVector):
    """Linear functional on the discrete space, paired via the Euclidean dot."""


def make_field(mesh: Mesh, values) -> DiscreteField:
    return DiscreteField(mesh, values)


def zero_field(mesh: Mesh) -> DiscreteField:
    return DiscreteField(mesh, np.zeros(mesh.n_free))


def make_dual(mesh: Mesh, values) -> DualVector:
    return DualVector(mesh, values)


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


def _spacing(mesh: Mesh) -> list:
    """Grid step per axis, (h,) or (hx, hy), from the mesh's bounds and structure."""
    lo, hi = mesh.bounds
    return [(b - a) / n for a, b, n in zip(lo.tolist(), hi.tolist(), mesh.structure)]


def _pad(mesh: Mesh, v: np.ndarray) -> np.ndarray:
    """The vertex grid of the field with free values v: zero on the boundary."""
    U = np.zeros([n + 1 for n in mesh.structure])
    U[(slice(1, -1),) * mesh.ndim] = v.reshape([n - 1 for n in mesh.structure])
    return U


def _edges(ndim: int) -> list:
    """Edge steps: +x on an interval; +x, +y and the v00-v11 diagonal on a rectangle."""
    return [(1,)] if ndim == 1 else [(1, 0), (0, 1), (1, 1)]


def _grad(mesh: Mesh, v: np.ndarray) -> np.ndarray:
    """D v: the gradient on each element of the field with free values v.

    v is padded with the zero boundary values to the grid U.  On an
    interval element e has gradient (U[e+1] - U[e]) / h.  On a rectangle,
    with dx = diff(U, 0) / hx and dy = diff(U, 1) / hy, cell (i, j) gives
    triangle (v00, v10, v11) the gradient (dx[i, j], dy[i+1, j]) and
    triangle (v00, v11, v01) the gradient (dx[i, j+1], dy[i, j]).
    Shape (ne, ndim), in element order.
    """
    U = _pad(mesh, v)
    if mesh.ndim == 1:
        g = U[1:] - U[:-1]
        g /= _spacing(mesh)[0]
        return g.reshape(-1, 1)
    nx, ny = mesh.structure
    hx, hy = _spacing(mesh)
    dx = U[1:] - U[:-1]
    dx /= hx
    dy = U[:, 1:] - U[:, :-1]
    dy /= hy
    g = np.empty((nx, ny, 2, 2))  # cell (i, j), triangle, component
    g[:, :, 0, 0] = dx[:, :-1]
    g[:, :, 0, 1] = dy[1:]
    g[:, :, 1, 0] = dx[:, 1:]
    g[:, :, 1, 1] = dy[:-1]
    return g.reshape(-1, 2)


def _grad_T(mesh: Mesh, G: np.ndarray) -> np.ndarray:
    """D^T G for element vectors G, shape (ne, ndim): the adjoint of `_grad`.

    Each element's components are summed onto the grid differences they
    pair with in `_grad` (Wx on dx, Wy on dy), and each free vertex takes
    the negated differences of those sums.
    """
    if mesh.ndim == 1:
        W = G.reshape(-1)
        out = W[:-1] - W[1:]
        out /= _spacing(mesh)[0]
        return out
    nx, ny = mesh.structure
    hx, hy = _spacing(mesh)
    G = G.reshape(nx, ny, 2, 2)
    Wx = np.zeros((nx, ny + 1))
    Wx[:, :-1] = G[:, :, 0, 0]
    Wx[:, 1:] += G[:, :, 1, 0]
    Wy = np.zeros((nx + 1, ny))
    Wy[1:] = G[:, :, 0, 1]
    Wy[:-1] += G[:, :, 1, 1]
    out = Wx[:-1, 1:-1] - Wx[1:, 1:-1]
    out /= hx
    y = Wy[1:-1, :-1] - Wy[1:-1, 1:]
    y /= hy
    out += y
    return out.ravel()


def _restrict(F: np.ndarray) -> np.ndarray:
    """Full weighting, the transpose of P1 prolongation: hat loads int g psi
    on a vertex grid of even cell counts (zero on the boundary) to those of
    the grid of twice the step, whose hat is the fine hat at its vertex plus
    half those at its `_edges` neighbours: C[I] = F[2I] + (1/2) sum_s
    (F[2I + s] + F[2I - s]) at interior I, and 0 on the boundary."""
    def at(s):  # F[2I + s] over the interior coarse vertices I
        return F[tuple(slice(2 + d, d - 1 or None, 2) for d in s)]

    C = np.zeros([n // 2 + 1 for n in F.shape])
    inner = C[(slice(1, -1),) * F.ndim]
    inner += at((0,) * F.ndim)
    for s in _edges(F.ndim):
        inner += 0.5 * (at(s) + at(tuple(-d for d in s)))
    return C


def _hessian_stencil(mesh: Mesh, p: float, g: np.ndarray, mass_q=None):
    """apply(v) = H v for H the P1 matrix of the p-energy Hessian at the
    element gradients g, minus, when mass_q holds m at the quadrature nodes,
    the mass matrix int m psi_a psi_b.  H is assembled once, as a grid stencil.

    On an element with basis gradients L_a, H has the entries
    L_a . M L_b - sum_q w_q m_q psi_a psi_b, with M = |T| w (I + (p-2) g_hat g_hat^T)
    from `_flux_weights`' output, computed in place over its arrays (plus
    one array for M's off-diagonal on a rectangle).  The elements of one
    type (an interval's cells; a rectangle cell's (v00, v10, v11) and
    (v00, v11, v01)) share their vertex offsets in the cell and their L_a,
    so each entry is one array over the cells, added at its offset on the
    vertex grid: to the diagonal, or to the coupling along its edge, +x on
    an interval, +x, +y and the v00-v11 diagonal on a rectangle.  H v is the
    diagonal times v plus two shifted products per coupling: 3 slice
    products on an interval, 7 on a rectangle.  The mass entries, a <= b,
    overwrite mass_q one QUAD_BLOCK of elements at a time; there are nq of
    them (3 on intervals, 6 on triangles).
    """
    # per element type, in the layout of `_grad`: its vertices' offsets in the
    # cell and their basis gradients in units of 1/h; then the edge directions
    if mesh.ndim == 1:
        types = [(((0,), (1,)), ((-1,), (1,)))]
    else:
        types = [(((0, 0), (1, 0), (1, 1)), ((-1, 0), (1, -1), (0, 1))),
                 (((0, 0), (1, 1), (0, 1)), ((0, -1), (1, 0), (-1, 1)))]
    steps = _edges(mesh.ndim)
    cells = mesh.structure
    pairs = [(a, b) for a in range(mesh.ndim + 1) for b in range(a, mesh.ndim + 1)]
    if mass_q is not None:
        psi_pairs = np.stack([mesh.basis_at_quad[:, a] * mesh.basis_at_quad[:, b]
                              for a, b in pairs], axis=1)
        for sl in _blocks(mesh):
            np.matmul(mesh.quad_weights[sl] * mass_q[sl], psi_pairs, out=mass_q[sl])
        mass_q = mass_q.reshape(*cells, len(types), len(pairs))
    c, g_hat = _flux_weights(mesh, g, p)
    # M's off-diagonal first: its diagonal then overwrites g_hat's columns
    M = {}
    for i in range(mesh.ndim):
        for j in range(i + 1, mesh.ndim):
            M[i, j] = g_hat[:, i] * g_hat[:, j]
            M[i, j] *= c
            M[i, j] *= p - 2.0
    for i in range(mesh.ndim):
        M[i, i] = g_hat[:, i]
        M[i, i] *= M[i, i]
        M[i, i] *= c
        M[i, i] *= p - 2.0
        M[i, i] += c
    M = {ij: m.reshape(*cells, len(types)) for ij, m in M.items()}
    arrays = np.zeros((1 + len(steps), *(n + 1 for n in cells)))
    diag, couplings = arrays[0], dict(zip(steps, arrays[1:]))
    h = _spacing(mesh)
    for t, (off, grads) in enumerate(types):
        L = [[k / h_k for k, h_k in zip(row, h)] for row in grads]
        for k, (a, b) in enumerate(pairs):
            # every edge runs along a step from its lower vertex
            step = tuple(abs(y - x) for x, y in zip(off[a], off[b]))
            target = (diag if a == b else couplings[step])[
                tuple(slice(min(x, y), min(x, y) + n) for x, y, n in zip(off[a], off[b], cells))]
            for (i, j), m in M.items():
                coef = L[a][i] * L[b][j] + (L[a][j] * L[b][i] if i != j else 0.0)
                if coef:
                    target += coef * m[..., t]
            if mass_q is not None:
                target -= mass_q[..., t, k]
    diag = diag[(slice(1, -1),) * mesh.ndim]
    # a coupling joins free vertices when its lower vertex is one step inside
    stencil = [(couplings[step][tuple(slice(1, -1 - d) for d in step)],
                tuple(slice(None, -d or None) for d in step),
                tuple(slice(d, None) for d in step)) for step in steps]
    shape = diag.shape

    def apply(v):
        V = v.reshape(shape)
        out = diag * V
        for C, lo, hi in stencil:
            out[lo] += C * V[hi]
            out[hi] += C * V[lo]
        return out.ravel()

    return apply


def interpolate(mesh: Mesh, fn) -> DiscreteField:
    """Interpolate a callable of the free-vertex coordinates into P1."""
    vals = np.asarray(fn(mesh.free_coordinates()), dtype=float)
    return DiscreteField(mesh, vals)


def gradients_on_elements(mesh: Mesh, u: DiscreteField) -> np.ndarray:
    """Constant gradient of u on each element, shape (ne, ndim): D u."""
    _check_mesh(mesh, u)
    return _grad(mesh, u.values)


def values_at_quad(mesh: Mesh, u: DiscreteField) -> np.ndarray:
    """u evaluated at the quadrature points, shape (ne, nq)."""
    _check_mesh(mesh, u)
    out = np.empty(mesh.quad_weights.shape)
    for sl, u_q in _quad_blocks(mesh, u.values):
        out[sl] = u_q
    return out


def _blocks(mesh: Mesh):
    """Yield the slices of QUAD_BLOCK elements that cover the mesh, in element order."""
    for start in range(0, mesh.n_elements, QUAD_BLOCK):
        yield slice(start, start + QUAD_BLOCK)


def _quad_blocks(mesh: Mesh, v: np.ndarray):
    """Yield (sl, v_q) for each `_blocks` slice sl: v_q, shape (len, nq), is
    the field with free values v at the block's quadrature nodes.

    A caller that reduces each block before the next keeps its
    temporaries at block size.
    """
    full = np.zeros(mesh.n_vertices)
    full[mesh.free_vertices] = v
    for sl in _blocks(mesh):
        yield sl, full[mesh.elements[sl]] @ mesh.basis_at_quad.T


def _load(mesh: Mesh, densities) -> np.ndarray:
    """Entries int g psi_j from (sl, g at the quadrature nodes of block sl)
    pairs, one for each `_blocks` slice; a scalar g is a constant density.

    Each block's element contributions (w g) @ basis go into one
    (ne, ndim+1) array, which is scattered once.
    """
    contrib = np.empty((mesh.n_elements, mesh.ndim + 1))
    for sl, g in densities:
        np.matmul(mesh.quad_weights[sl] * g, mesh.basis_at_quad, out=contrib[sl])
    return _scatter(mesh, contrib)


def _finite_load(mesh: Mesh, densities, what: str) -> np.ndarray:
    """`_load` of (sl, g) pairs after checking that each g is finite; the
    first node where it is not is named in a ValueError about `what`."""
    def checked(sl, g):
        bad = ~np.isfinite(g)
        if np.any(bad):
            where = mesh.quad_points_of(sl).reshape(-1, mesh.ndim)[np.argmax(bad)]
            raise ValueError(f"{what} is not finite at quadrature point {where}")
        return sl, g

    return _load(mesh, (checked(sl, g) for sl, g in densities))


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
    return _grad_T(mesh, flux)


def _flux_weights(mesh: Mesh, g: np.ndarray, p: float):
    """Element weights (|T| w, g_hat) of the derivative of `_flux` at g.

    With r = |g|, w = r^(p-2) and g_hat = g / r, the derivative maps
    element gradients G to |T| w (G + (p-2) g_hat (g_hat . G)), so the
    energy Hessian is D^T of that applied to D v.  Below the gradient
    floor w is 1 at p = 2 and 0 otherwise, the limit `_flux` takes.
    """
    r = np.sqrt(np.einsum("ed,ed->e", g, g))
    dead = ~(r >= GRADIENT_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = r ** (p - 2.0)
        g_hat = g / r[:, None]
    w[dead] = 1.0 if p == 2.0 else 0.0
    g_hat[dead] = 0.0
    w *= mesh.measures
    return w, g_hat


def _lp(mesh: Mesh, q: np.ndarray, p: float) -> float:
    """int |u|^p from u at the quadrature nodes q, shape (ne, nq)."""
    sums = np.empty(mesh.n_elements)
    for sl in _blocks(mesh):
        a = np.abs(q[sl])
        a **= p
        np.einsum("eq,eq->e", mesh.quad_weights[sl], a, out=sums[sl])
    return _reduce(sums)


def _lp_load(mesh: Mesh, q: np.ndarray, p: float) -> np.ndarray:
    """Entries int |u|^(p-2) u psi_j from u at the quadrature nodes q."""
    def densities():
        for sl in _blocks(mesh):
            v = np.abs(q[sl])
            v **= p - 1.0
            yield sl, np.copysign(v, q[sl], out=v)

    return _load(mesh, densities())


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

    `g` is a callable of point arrays of shape (m, ndim) returning (m,)
    or a scalar, or a constant.  A callable is evaluated on the points of
    one `_blocks` slice at a time, made by `Mesh.quad_points_of` and
    dropped after the block, so its temporaries are block sized and
    `Mesh.quad_points` is never made; a constant never reads a point.
    Non-finite values of g at quadrature points are rejected with the
    first offending point named (`_finite_load`).
    """
    if not callable(g):
        c = float(g)
        densities = ((sl, c) for sl in _blocks(mesh))
    else:
        def density(sl):
            pts = mesh.quad_points_of(sl).reshape(-1, mesh.ndim)
            gv = np.broadcast_to(np.asarray(g(pts), dtype=float), (pts.shape[0],))
            return gv.reshape(-1, mesh.quad_weights.shape[1])
        densities = ((sl, density(sl)) for sl in _blocks(mesh))
    return DualVector(mesh, _finite_load(mesh, densities, "load density"))


def quad_load(mesh: Mesh, density_q) -> DualVector:
    """Dual vector with entries int g psi_j dx from g at the quadrature nodes.

    density_q holds g at `mesh.quad_points`, shape (ne, nq) or flat.
    """
    g = np.reshape(density_q, mesh.quad_weights.shape)
    return DualVector(mesh, _load(mesh, ((sl, g[sl]) for sl in _blocks(mesh))))


def _hat_norm(h: list, p: float) -> float:
    """(int |v|^p + int |grad v|^p)^(1/p) for a nodal hat v of the grid of steps h.

    On an interval v has slope +-1/h on two elements: 2h/(p+1) + 2 h^(1-p).
    On a rectangle it is a barycentric coordinate on six triangles of area
    hx hy / 2: int |v|^p = 6 hx hy / ((p+1)(p+2)); its gradient lengths 1/hx,
    1/hy, r = hypot(1/hx, 1/hy), twice each, give hx hy (hx^-p + hy^-p + r^p)."""
    if len(h) == 1:
        return (2.0 * h[0] / (p + 1.0) + 2.0 * h[0] ** (1.0 - p)) ** (1.0 / p)
    hx, hy = h
    lp = 6.0 * hx * hy / ((p + 1.0) * (p + 2.0))
    energy = hx * hy * (hx ** -p + hy ** -p + math.hypot(1.0 / hx, 1.0 / hy) ** p)
    return (lp + energy) ** (1.0 / p)
