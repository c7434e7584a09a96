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
assembled is the Newton matrix, once per descent step: the p-energy
Hessian D^T M D minus a mass matrix, of f' in the energy descent and of
lambda (p-1) |u|^(p-2) in the eigen descent.  Only `_flux_weights` forms
the element coefficient M; `_hessian_stencil` knows only the grid and
turns M and the mass weight, given block by block, into a `_Stencil`,
the matrix's diagonal and edge couplings as grid arrays, which applies
the matrix when called.
Zeroth order integrals (int |u|^p, loads, potential terms) use the mesh's
one fixed rule: 3-point Gauss-Legendre on intervals (exact through degree
5), a 6-point rule on triangles (exact through degree 4).
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
goes through `meshing._scatter_corners`, the one scatter, a grid operator
driven by the cell layout that adds at each vertex in ascending element
order.

All work at the quadrature nodes walks the elements in the blocks of
QUAD_BLOCK elements that `_blocks` yields, so its temporaries are block
sized.  `_quad_blocks` is the one gather: it reads the field's vertex
grid at each block's element vertices (`meshing._gather_corners`) and
yields the values at the block's quadrature nodes; `values_at_quad`
collects them, and a caller that evaluates a user's function there (the
energy descent's f, F and f') or reduces each block (the eigen line
search) never holds an (ne, nq) temporary.  `_row_chunks` regroups
per-block element entries into chunks of whole cell rows, a few blocks
long, which the grid operators take.  `_load` is the one load: it turns a
density given block by block into a dual vector, scattering the element
contributions chunk by chunk, so it holds no (ne, ndim+1) array and each
vertex still adds its terms in ascending element order; `quad_load` and
`_lp_load` call it, and `load_vector`
and the energy descent's f load call it through `_finite_load`, which
names the first node of a non-finite density.  `load_vector` makes the
quadrature points one block at a time (`Mesh.quad_points_of`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meshing import CELL_LAYOUT, Mesh, _gather_corners, _scatter_corners

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


@dataclass(frozen=True, eq=False)
class _Stencil:
    """A symmetric matrix H on the free-vertex grid as arrays: diag[I] is
    H[I, I] and couplings[s][I] is H[I, I + s], for each `_edges` step s and
    free I + s.  Calling it applies H: the diagonal times v plus two shifted
    products per coupling, 3 slice products on an interval, 7 on a rectangle."""

    diag: np.ndarray
    couplings: dict

    def __call__(self, v: np.ndarray) -> np.ndarray:
        V = v.reshape(self.diag.shape)
        out = self.diag * V
        for step, C in self.couplings.items():
            lo = tuple(slice(None, -d or None) for d in step)
            hi = tuple(slice(d, None) for d in step)
            out[lo] += C * V[hi]
            out[hi] += C * V[lo]
        return out.ravel()


def _hessian_stencil(mesh: Mesh, M: dict, mass=None) -> _Stencil:
    """The `_Stencil` of the P1 matrix H of int Dv . M Dv, minus, when mass
    gives m at the quadrature nodes, the mass matrix int m psi_a psi_b.

    M holds a symmetric (ndim, ndim) coefficient per element, its entries
    (i, j), i <= j, as (ne,) arrays: `_flux_weights`' Newton coefficient.
    mass gives m as `_load` takes densities, and is the one form of it:
    (sl, m at the quadrature nodes of block sl) pairs, one for each
    `_blocks` slice, in order.  On an element with basis gradients L_a, H
    has the entries L_a . M L_b - sum_q w_q m_q psi_a psi_b.  The
    elements of one type of `CELL_LAYOUT` share their vertex offsets in
    the cell and their L_a, so each entry is one array over the cells,
    added at its offset on the vertex grid: to the diagonal, or to the
    coupling along its edge, +x on an interval, +x, +y and the v00-v11
    diagonal on a rectangle.  The mass entries, a <= b, nq of them (3 on
    intervals, 6 on triangles), are made per block, and all entries go in
    one chunk of whole cell rows at a time (`_row_chunks`: as many rows as
    4 QUAD_BLOCKs fill, at least one), so the build holds one chunk of
    mass entries, not an (ne, nq) array.
    Within a chunk every (element type, entry), in type-major order, adds
    its M part and then subtracts its mass part, so a mesh whose rows make
    one chunk (up to 4 QUAD_BLOCKs of elements) gets the bits of a build
    from a whole mass array; on more chunks a vertex of a chunk's edge row
    takes its terms row by row, which moves last bits.  Without mass, all
    rows are one chunk.
    """
    # per element type of `CELL_LAYOUT`: its vertices' offsets in the cell and
    # their basis gradients in units of 1/h; then the edge directions
    types = list(zip(CELL_LAYOUT[mesh.ndim], [((-1,), (1,))] if mesh.ndim == 1 else
                     [((-1, 0), (1, -1), (0, 1)), ((0, -1), (1, 0), (-1, 1))]))
    steps = _edges(mesh.ndim)
    cells = mesh.structure
    pairs = [(a, b) for a in range(mesh.ndim + 1) for b in range(a, mesh.ndim + 1)]
    chunks = [(slice(None), None)]
    if mass is not None:
        psi_pairs = np.stack([mesh.basis_at_quad[:, a] * mesh.basis_at_quad[:, b]
                              for a, b in pairs], axis=1)
        chunks = _row_chunks(mesh, ((sl, (mesh.quad_weights[sl] * m) @ psi_pairs)
                                    for sl, m in mass), len(pairs))
    arrays = np.zeros((1 + len(steps), *(n + 1 for n in cells)))
    diag, couplings = arrays[0], dict(zip(steps, arrays[1:]))
    h = _spacing(mesh)
    plan = []  # per element type and entry: its target over all cells, its M parts
    for t, (off, grads) in enumerate(types):
        L = [[k / h_k for k, h_k in zip(row, h)] for row in grads]
        for a, b in pairs:
            # every edge runs along a step from its lower vertex
            step = tuple(abs(y - x) for x, y in zip(off[a], off[b]))
            target = (diag if a == b else couplings[step])[
                tuple(slice(min(x, y), min(x, y) + n) for x, y, n in zip(off[a], off[b], cells))]
            coefs = [L[a][i] * L[b][j] + (L[a][j] * L[b][i] if i != j else 0.0) for i, j in M]
            plan.append((target, [(coef, m.reshape(*cells, len(types))[..., t])
                                  for coef, m in zip(coefs, M.values()) if coef]))
    for rows, X in chunks:
        for n, (target, parts) in enumerate(plan):
            target = target[rows]
            for coef, m in parts:
                target += coef * m[rows]
            if X is not None:
                target -= X[..., n]
    # a coupling joins free vertices when its lower vertex is one step inside
    return _Stencil(diag[(slice(1, -1),) * mesh.ndim],
                    {step: C[tuple(slice(1, -1 - d) for d in step)]
                     for step, C in couplings.items()})


def interpolate(mesh: Mesh, fn) -> DiscreteField:
    """Interpolate a callable of the free-vertex coordinates into P1."""
    return DiscreteField(mesh, fn(mesh.free_coordinates()))


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
    gather = _gather_corners(mesh, _pad(mesh, v))
    for sl in _blocks(mesh):
        yield sl, gather(sl).T @ mesh.basis_at_quad.T


def _row_chunks(mesh: Mesh, blocks, width: int):
    """Regroup (sl, E) pairs, E the (k, width) entries of the elements of
    sl, for the `_blocks` slices in order, into (rows, X): X holds the
    entries of the elements in the slice `rows` of whole cell rows, shape
    (rows, *structure[1:], element types * width).  A chunk has as many
    rows as 4 QUAD_BLOCKs of elements fill, at least one and at most the
    mesh's, and a block may end inside a row or a chunk.  X is one buffer,
    overwritten by the next chunk.  The 4 blocks trade the numpy calls
    made per chunk against the buffer's size: 128 x 128 has 8 chunks of
    16 rows, 196 KB of mass entries each.
    """
    per_row = mesh.n_elements // mesh.structure[0]
    X = np.empty((min(mesh.structure[0], max(1, 4 * QUAD_BLOCK // per_row)) * per_row, width))
    start = 0  # the element at X[0]
    for sl, E in blocks:
        at = sl.start
        while len(E):
            n = min(len(E), start + len(X) - at)
            X[at - start:at - start + n] = E[:n]
            E, at = E[n:], at + n
            if at in (start + len(X), mesh.n_elements):
                yield slice(start // per_row, at // per_row), X[:at - start].reshape(
                    -1, *mesh.structure[1:], len(CELL_LAYOUT[mesh.ndim]) * width)
                start = at


def _load(mesh: Mesh, densities) -> np.ndarray:
    """Entries int g psi_j from (sl, g at the quadrature nodes of block sl)
    pairs, one for each `_blocks` slice; a scalar g is a constant density.

    Each block's element contributions (w g) @ basis are scattered by the
    `_row_chunks` of whole cell rows, so every vertex still adds them in
    ascending element order.
    """
    U = np.zeros([n + 1 for n in mesh.structure])
    for rows, X in _row_chunks(mesh, ((sl, (mesh.quad_weights[sl] * g) @ mesh.basis_at_quad)
                                      for sl, g in densities), mesh.ndim + 1):
        _scatter_corners(mesh, X, U, rows.start)
    return U[(slice(1, -1),) * mesh.ndim].ravel()


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
    norms = np.einsum("ed,ed->e", g, g)
    np.sqrt(norms, out=norms)
    norms **= p
    norms *= mesh.measures
    return _reduce(norms) / p


def _flux(mesh: Mesh, g: np.ndarray, p: float) -> np.ndarray:
    """D^T (|T| |g|^(p-2) g) for element gradients g, with the gradient floor."""
    norms = np.sqrt(np.einsum("ed,ed->e", g, g))
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(norms >= GRADIENT_FLOOR, norms ** (p - 2.0), 0.0)
    flux = (mesh.measures * factor)[:, None] * g          # (ne, ndim)
    return _grad_T(mesh, flux)


def _flux_weights(mesh: Mesh, g: np.ndarray, p: float) -> dict:
    """The Newton element coefficient M = |T| w (I + (p-2) g_hat g_hat^T) at
    element gradients g: {(i, j): (ne,) array} for i <= j, off-diagonal first.

    With r = |g|, w = r^(p-2) and g_hat = g / r, the derivative of `_flux`
    maps element gradients G to M G, so the energy Hessian is D^T M D.
    Below the gradient floor w is 1 at p = 2 and 0 otherwise, the limit
    `_flux` takes, and g_hat is 0, so M is |T| I or 0 there."""
    r = np.sqrt(np.einsum("ed,ed->e", g, g))
    dead = ~(r >= GRADIENT_FLOOR)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = r ** (p - 2.0)
        g_hat = g / r[:, None]
    w[dead] = 1.0 if p == 2.0 else 0.0
    g_hat[dead] = 0.0
    w *= mesh.measures
    # the off-diagonal first: the diagonal then overwrites g_hat's columns
    M = {}
    for i in range(mesh.ndim):
        for j in range(i + 1, mesh.ndim):
            M[i, j] = g_hat[:, i] * g_hat[:, j]
            M[i, j] *= w
            M[i, j] *= p - 2.0
    for i in range(mesh.ndim):
        M[i, i] = g_hat[:, i]
        M[i, i] *= M[i, i]
        M[i, i] *= w
        M[i, i] *= p - 2.0
        M[i, i] += w
    return M


def _lp(mesh: Mesh, blocks, p: float) -> float:
    """int |u|^p from (sl, u at the quadrature nodes of block sl) pairs, one
    for each `_blocks` slice, as `_quad_blocks` yields them."""
    sums = np.empty(mesh.n_elements)
    for sl, v in blocks:
        a = np.abs(v)
        a **= p
        np.einsum("eq,eq->e", mesh.quad_weights[sl], a, out=sums[sl])
    return _reduce(sums)


def _lp_load(mesh: Mesh, blocks, p: float) -> np.ndarray:
    """Entries int |u|^(p-2) u psi_j from u at the quadrature nodes, in
    blocks as `_lp` takes them."""
    def densities():
        for sl, u_q in blocks:
            v = np.abs(u_q)
            v **= p - 1.0
            yield sl, np.copysign(v, u_q, out=v)

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
    return _lp(mesh, _quad_blocks(mesh, u.values), p)


def lp_residual(mesh: Mesh, u: DiscreteField, p: float) -> DualVector:
    """Entries int |u|^(p-2) u psi_j dx, with the same rule as lp_integral.

    This is (1/p) times the coefficient gradient of lp_integral, so the
    two stay consistent at stationary points of Rayleigh quotients.
    """
    _check_mesh(mesh, u)
    _check_p(p)
    return DualVector(mesh, _lp_load(mesh, _quad_blocks(mesh, u.values), p))


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
