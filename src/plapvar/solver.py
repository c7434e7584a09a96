"""Energy minimization and weak-solution verification.

The problem -Delta_p u = f(x, u) + h with zero boundary values is the
Euler-Lagrange equation of

    Phi(u) = (1/p) int |grad u|^p - int F(x, u) - <h, u>,

so solutions are found by descending Phi over the P1 space and certified
by testing the weak form against the truncated nodal basis
v_j = Theta_R(u_j) e_j, where Theta_R is a C^1 cutoff that keeps test
functions supported where |u| <= 2R.

One residual norm serves the descent and the certificate.  The weak-form
terms t1_j = int |grad u|^(p-2) grad u . grad psi_j, t2_j = int f(x, u) psi_j
and t3_j = h_j give the gradient of Phi, t1 - t2 - t3, and its
dimensionless size max_j |t1_j - t2_j - t3_j| / max_j (|t1_j| + |t2_j| + |t3_j|).
The descent stops on that size, `SolveResult.stationarity` reports it, and
`verify_weak_solution` applies it to the terms scaled by c_j = Theta_R(u_j);
at the default radius every c_j is 1, so both read the same number.

Phi takes extended-real values.  If the potential integral int F(x, u)
diverges to +inf and -inf simultaneously (or is not a number), the
convention here is Phi(u) = +inf: such a point is treated as infeasible
for minimization rather than as evidence of unboundedness.  A genuine
lack of coercivity shows up as Phi running below -1e12 along the descent,
which aborts with `UnboundedBelowError`.

The descent is a damped inexact Newton method.  Each step
solves H d = grad Phi by conjugate gradients preconditioned with the
p = 2 stiffness matrix K, to the relative accuracy
min(0.1, sqrt(stationarity)) of Eisenstat and Walker.  K^-1 is applied
in closed form (`_poisson_solve`: on an interval, the right-hand side
summed twice by two cumulative sums, not the discrete Green's function,
whose two terms cancel and lose accuracy on fine grids; on a rectangle,
the fast diagonalization of the 5-point matrix), so nothing is
factored; each descent builds its own solve.  H is assembled once per
step as a grid stencil (`assembly._hessian_stencil`), 3 points on an
interval and 7 on a rectangle, so a CG product is a few shifted
multiply-adds: the p-energy Hessian from the element weights of
`assembly._flux_weights`, minus the mass matrix int f'(x, u) psi_i psi_j,
with f' a central difference of `eval_f` at the quadrature nodes
(`_df_at_quad`).  The eigensolver takes the same step (`_newton_step`)
on the same stencil, with the mass weight lambda (p-1) |u|^(p-2) of its
Lagrangian, and runs CG on the K-orthogonal complement of its iterate
(`_pcg`).  CG stops
at negative curvature and returns its current iterate (Steihaug).  The
weight w = |D u|^(p-2) is exact for every p > 1; the step falls back to the
p = 2 direction, the gradient in the H^1_0 inner product, at u = 0, when
f' is not finite, when CG meets negative curvature at once, or when the
Newton direction is not a descent direction.  Step lengths come from
`armijo` on Phi, starting at t = 1.  Its sufficient-decrease test allows
for Phi's rounding error, PHI_NOISE sum_j |u_j| (|t1_j| + |t2_j| + |t3_j|):
near the minimizer a Newton step lowers Phi by less than that, and
without the band the last steps are rejected until t is about 2^-22
and the descent stalls.

The user's f, F and f' carry no growth condition, so the descent
evaluates them at every quadrature node on every step and trial, and
f' once per step.  `nonlinear_load`, `potential_integral` and
`_df_at_quad` (and so the stencil's mass entries) read them from one
generator, `_at_quad`, which walks the elements in blocks of
`assembly.QUAD_BLOCK` (`assembly._quad_blocks`) and calls `eval_f`,
`eval_F` or `_central_difference` once per block, so no (ne, nq)
temporary is made per call.  The x it passes is the block's rows of
`nonlinearity._quad_x`: for an autonomous spec, as every bench solve's
`power_perturbation`, the mesh's first quadrature point, against which
s broadcasts, so such a descent never makes the whole point array.  The
f load goes through the one finite-checked load (`assembly._finite_load`),
as `load_vector` does; `potential_integral` sums per-element integrals,
so Phi may differ from a flat sum over the nodes in its last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (
    DiscreteField,
    DualVector,
    _check_mesh,
    _check_p,
    _finite_load,
    _hat_norm,
    _hessian_stencil,
    _pad,
    _quad_blocks,
    _reduce,
    _restrict,
    _spacing,
    dirichlet_energy,
    gradients_on_elements,
    pairing,
    plap_residual,
    sup_norm,
    zero_field,
)
from .meshing import Mesh
from .nonlinearity import NonlinearitySpec, _quad_x, eval_F, eval_f

__all__ = [
    "SolveResult",
    "ResidualReport",
    "UnboundedBelowError",
    "make_truncation",
    "truncated_test_basis",
    "nonlinear_load",
    "potential_integral",
    "assemble_phi",
    "phi_gradient",
    "armijo",
    "minimize_phi",
    "estimate_lambda_u",
    "verify_weak_solution",
]

ARMIJO = 1e-4
MAX_TRIALS = 60
DIVERGENCE_FLOOR = -1e12
CG_MAX = 100          # Hessian products per Newton direction
CG_ROUNDING = 1e-14   # projected PCG: r . z below this times r . K^-1 r is rounding
FORCING_CAP = 0.1     # CG tolerance min(FORCING_CAP, sqrt(stationarity))
FD_STEP = 1e-6        # central-difference step of f', times max(1, |s|)
PHI_NOISE = 1e-14     # rounding error of Phi relative to sum_j |u_j| |terms_j|
STATIONARITY_STOP = 1e-8  # relative weak residual that ends the energy descent
CERTIFICATE_TOL = 1e-6    # relative weak residual a certified solution may keep


class UnboundedBelowError(RuntimeError):
    """Phi ran below -1e12 during descent; carries the last iterate."""

    def __init__(self, last: DiscreteField, phi: float):
        super().__init__(
            "functional appears unbounded below (coercivity violated): "
            f"Phi reached {phi:.3e}")
        self.last = last
        self.phi = phi


# ---------------------------------------------------------------------------
# truncation and test basis
# ---------------------------------------------------------------------------


def make_truncation(R: float):
    """C^1 cutoff Theta_R: 1 on [-R, R], 0 outside [-2R, 2R].

    The transition is the cubic smoothstep 1 - tau^2 (3 - 2 tau) with
    tau = (|s| - R)/R, so max |Theta_R'| = 1.5/R, within the 2/R budget
    that keeps truncated test functions uniformly admissible.
    """
    if not (R > 0.0):
        raise ValueError(f"truncation radius must be positive, got R={R}")

    def theta(s):
        arr = np.asarray(s, dtype=float)
        tau = np.clip((np.abs(arr) - R) / R, 0.0, 1.0)
        out = 1.0 - tau * tau * (3.0 - 2.0 * tau)
        return float(out) if np.isscalar(s) else out

    return theta


def truncated_test_basis(mesh: Mesh, u: DiscreteField, R: float) -> np.ndarray:
    """Coefficients c of the truncated test functions v_j = c_j e_j.

    c_j = Theta_R(u_j), one entry per free vertex; each v_j is the j-th
    nodal hat scaled so that it vanishes wherever |u| is large.  The
    scaling keeps the family finite-energy uniformly in j even when u is
    unbounded in the continuum limit.
    """
    _check_mesh(mesh, u)
    theta = make_truncation(R)
    return theta(u.values)


# ---------------------------------------------------------------------------
# energy and gradient
# ---------------------------------------------------------------------------


def _at_quad(mesh: Mesh, spec: NonlinearitySpec, u: np.ndarray, evaluate):
    """Yield (sl, v) for each `assembly._quad_blocks` block sl of the field
    with free values u: v = evaluate(spec, x, s) as floats of shape
    (len, nq), for s the field at the block's nodes and x their rows of
    `nonlinearity._quad_x`.  An autonomous spec's one row is passed for
    every block; s broadcasts against it, and a result of shape (1,) is
    broadcast to the block."""
    x, nq = _quad_x(spec, mesh), mesh.quad_weights.shape[1]
    for sl, u_q in _quad_blocks(mesh, u):
        s = u_q.reshape(-1)
        xb = x if len(x) == 1 else x[sl.start * nq:sl.stop * nq]
        v = np.asarray(evaluate(spec, xb, s), dtype=float)
        yield sl, (v if v.shape == s.shape else np.broadcast_to(v, s.shape)).reshape(u_q.shape)


def nonlinear_load(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec) -> DualVector:
    """Dual vector with entries int f(x, u(x)) psi_j dx.

    Uses the mesh quadrature rule with u evaluated at the rule nodes, one
    element block at a time (`assembly._finite_load`); non-finite values
    of f along u are rejected, naming the first such node.
    """
    _check_mesh(mesh, u)
    return DualVector(mesh, _finite_load(mesh, _at_quad(mesh, spec, u.values, eval_f),
                                         "f(x, u)"))


def potential_integral(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec) -> float:
    """int F(x, u(x)) dx with IEEE extended-real conventions.

    Divergent quadrature contributions of one sign propagate to +-inf.
    If both signs occur (or a density is NaN), the integral is reported
    as -inf, which makes Phi = ... - int F equal +inf: points where the
    potential is genuinely undefined are infeasible for minimization.
    F is evaluated one element block at a time (`_at_quad`), and the
    finite case sums the per-element integrals with `_reduce`.
    """
    _check_mesh(mesh, u)
    sums = np.empty(mesh.n_elements)
    has_pos = has_neg = False
    for sl, F_q in _at_quad(mesh, spec, u.values, eval_F):
        # every weight is positive (`meshing._finish_mesh`), so every node counts
        has_pos |= bool(np.any(np.isposinf(F_q)))
        has_neg |= bool(np.any(np.isneginf(F_q)))
        if (has_pos and has_neg) or np.any(np.isnan(F_q)):
            return -math.inf
        if not (has_pos or has_neg):
            np.einsum("eq,eq->e", mesh.quad_weights[sl], F_q, out=sums[sl])
    if has_pos:
        return math.inf
    if has_neg:
        return -math.inf
    return _reduce(sums)


def assemble_phi(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec,
                 h: DualVector, p: float) -> float:
    """Phi(u) = (1/p) int |grad u|^p - int F(x, u) - <h, u> (extended real)."""
    kin = dirichlet_energy(mesh, u, p)
    pot = potential_integral(mesh, u, spec)
    if math.isinf(pot):
        return math.inf if pot < 0.0 else -math.inf
    return kin - pot - pairing(h, u)


def _weak_terms(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec,
                h: DualVector, p: float):
    """The weak-form terms (t1, t2, t3) at u, tested against the nodal basis.

    t1_j = int |grad u|^(p-2) grad u . grad psi_j, t2_j = int f(x, u) psi_j
    and t3_j = h_j; the weak residual is t1 - t2 - t3.
    """
    _check_mesh(mesh, h)
    return (plap_residual(mesh, u, p).values, nonlinear_load(mesh, u, spec).values,
            h.values)


def _residual_norms(t1, t2, t3=0.0):
    """(r, max_abs, scale, max_relative) of the residual r = t1 - t2 - t3.

    scale is the largest term magnitude max_j (|t1_j| + |t2_j| + |t3_j|);
    max_relative = max_abs / scale is 0 when every term vanishes and NaN
    when a term is NaN, so no stop test below a tolerance passes on it.
    """
    r = t1 - t2 - t3
    if not r.size:
        return r, 0.0, 0.0, 0.0
    max_abs = float(np.max(np.abs(r)))
    scale = float(np.max(np.abs(t1) + np.abs(t2) + np.abs(t3)))
    return r, max_abs, scale, 0.0 if scale == 0.0 else max_abs / scale


def phi_gradient(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec,
                 h: DualVector, p: float) -> DualVector:
    """Coefficient gradient of Phi at u.

    Entry j is int |grad u|^(p-2) grad u . grad psi_j - int f(x, u) psi_j
    - h_j, the weak residual of the equation tested against the nodal
    basis (no truncation).
    """
    t1, t2, t3 = _weak_terms(mesh, u, spec, h, p)
    return DualVector(mesh, t1 - t2 - t3)


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def _rounding_band(u: np.ndarray, terms) -> float:
    """PHI_NOISE sum_j |u_j| sum_t |t_j|: the rounding error of an energy
    whose gradient at u is a signed sum of the vectors in terms.

    Both descents add it to the value the Armijo test must beat.
    """
    return PHI_NOISE * float(np.abs(u) @ sum(np.abs(t) for t in terms))


def armijo(at, f0: float, slope: float):
    """Backtracking Armijo line search shared by both descents.

    Tries t = 1, 1/2, 1/4, ... for at most MAX_TRIALS trials: both
    descents take Newton steps, whose natural length is 1.  at(t)
    returns (value, state) for the step of length t, or None when that
    trial is infeasible.  The first trial with value <= f0 - ARMIJO t slope
    is accepted.  Returns (value, state, rejected) with the number of
    trials rejected before it, or (None, None, MAX_TRIALS) when no trial
    is accepted.
    """
    t = 1.0
    for rejected in range(MAX_TRIALS):
        trial = at(t)
        if trial is not None and trial[0] <= f0 - ARMIJO * t * slope:
            return trial[0], trial[1], rejected
        t *= 0.5
    return None, None, MAX_TRIALS


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one energy descent.

    stationarity is the relative weak residual at u, the `max_relative`
    of `verify_weak_solution` at its default radius.  stop_reason is
    "stationarity" (stationarity below STATIONARITY_STOP), "line-search"
    (no acceptable step found) or "max-iter"; converged is true exactly
    for "stationarity".  trials counts the energies evaluated by the line
    searches, backtracks the rejected ones among them, and cg_iterations
    the Hessian products of the Newton directions.  residual_history
    holds the stationarity of every iterate, the start first and u last,
    so its last entry is stationarity.  starts is always 1, the one
    descent.
    """

    u: DiscreteField
    phi: float
    stationarity: float
    iterations: int
    converged: bool
    stop_reason: str
    backtracks: int
    trials: int
    cg_iterations: int
    residual_history: tuple
    starts: int = 1


def minimize_phi(mesh: Mesh, spec: NonlinearitySpec, h: DualVector, p: float, *,
                 start: DiscreteField | None = None,
                 max_iter: int = 2000) -> SolveResult:
    """Minimize Phi by damped inexact Newton steps (see the module docstring).

    Starts from u = 0 unless `start` is given.  Stops when the relative
    weak residual (the certificate's norm, see the module docstring)
    drops below STATIONARITY_STOP, when a line search finds no
    acceptable step, or after max_iter steps.  Coercivity of Phi is all
    the existence theorems need, so any critical point the certificate
    accepts is a weak solution; one descent suffices.

    Raises UnboundedBelowError if Phi falls below -1e12, the numerical
    signature of a non-coercive functional.
    """
    _check_p(p)
    field = zero_field(mesh) if start is None else start
    _check_mesh(mesh, field)
    solve = _poisson_solve(mesh)
    phi_cur = assemble_phi(mesh, field, spec, h, p)
    steps = backtracks = trials = cg_iterations = 0
    history = []

    while True:
        if phi_cur < DIVERGENCE_FLOOR:
            raise UnboundedBelowError(field, phi_cur)
        terms = _weak_terms(mesh, field, spec, h, p)
        g, _, _, stat = _residual_norms(*terms)
        history.append(stat)
        if stat < STATIONARITY_STOP:
            stop = "stationarity"
            break
        if steps == max_iter:
            stop = "max-iter"
            break

        d, products = _newton_step(_phi_hessian(mesh, spec, p, field), g, solve, stat)
        cg_iterations += products
        slope = float(np.dot(g, d))

        def at(t):
            trial = DiscreteField(mesh, field.values - t * d)
            return assemble_phi(mesh, trial, spec, h, p), trial

        noise = _rounding_band(field.values, terms)
        phi_new, trial, rejected = armijo(at, phi_cur + noise, slope)
        backtracks += rejected
        trials += rejected + (trial is not None)
        if trial is None:
            stop = "line-search"
            break
        steps += 1
        field = trial
        phi_cur = phi_new

    return SolveResult(field, phi_cur, stat, steps, stop == "stationarity", stop,
                       backtracks, trials, cg_iterations, tuple(history))


def _central_difference(spec: NonlinearitySpec, x, s):
    """f'(x, s) by central differences: the step at s is FD_STEP max(1, |s|),
    and the quotient divides by the spacing of the two rounded abscissae."""
    step = FD_STEP * np.maximum(1.0, np.abs(s))
    hi, lo = s + step, s - step
    with np.errstate(over="ignore", invalid="ignore"):
        return (eval_f(spec, x, hi) - eval_f(spec, x, lo)) / (hi - lo)


def _df_at_quad(mesh: Mesh, spec: NonlinearitySpec, u: np.ndarray) -> np.ndarray:
    """f'(x, u) at the quadrature nodes, shape (ne, nq), from the free
    values u, by `_central_difference` on the `_at_quad` blocks."""
    out = np.empty(mesh.quad_weights.shape)
    for sl, df in _at_quad(mesh, spec, u, _central_difference):
        out[sl] = df
    return out


def _sine_basis(n: int):
    """(Q, mu): eigenvectors and eigenvalues of tridiag(-1, 2, -1), order n - 1.

    Q_jk = sqrt(2/n) sin(pi j k / n) is symmetric and orthogonal, and
    mu_k = 2 - 2 cos(pi k / n), evaluated as 4 sin^2(pi k / 2n), which
    keeps the small eigenvalues to full relative accuracy.  The products
    j k are reduced modulo 2n before the sine.
    """
    k = np.arange(1, n)
    Q = math.sqrt(2.0 / n) * np.sin(np.pi / n * (np.outer(k, k) % (2 * n)))
    return Q, 4.0 * np.sin(np.pi / (2 * n) * k) ** 2


def _poisson_solve(mesh: Mesh):
    """solve(r) = K^-1 r for the p = 2 stiffness matrix K, in closed form.

    The descents' preconditioner and the metric of their p = 2 fallback
    step.  Every mesh is a uniform tensor grid with its free dofs in
    vertex order, so K is known exactly:
      * on an interval of n elements of width h, K = T_n / h with
        T_n = tridiag(-1, 2, -1).  K x = r says that the slopes
        s_k = x_k - x_(k-1) (x_0 = x_n = 0) fall by h r_k at node k, so x
        is r summed twice: s_k = s_1 - h sum_{j<k} r_j with s_1 =
        (h/n) sum_{k<n} sum_{j<=k} r_j, and x_i = sum_{k<=i} s_k.  Two
        cumulative sums, O(n) time and no stored array.  This equals the
        discrete Green's function (h/n) [(n-i) sum_{j<=i} j r_j +
        i sum_{j>i} (n-j) r_j], whose two terms cancel to a part in i:
        for high-frequency r its backward error grows like n (4e-14 at
        n = 4096), while the slopes' stays at rounding level;
      * on an nx x ny rectangle the diagonals of the triangulation carry no
        stiffness, and K is the anisotropic 5-point matrix
        (hy/hx) T_nx (x) I + (hx/hy) I (x) T_ny.  Its inverse is the fast
        diagonalization method (Lynch, Rice, Thomas, Numer. Math. 6, 1964):
        with R = r.reshape(nx-1, ny-1) (free dofs are x-major),
        K^-1 r = Qx ((Qx R Qy) / Lambda) Qy, Lambda_kl = (hy/hx) mux_k +
        (hx/hy) muy_l, for (Qx, mux) and (Qy, muy) from `_sine_basis`.
        It stores (nx-1)^2 + (ny-1)^2 + (nx-1)(ny-1) doubles, Qy being Qx
        when nx = ny (0.26 MB on 128 x 128), and a solve is four dense
        products, O(nx ny (nx + ny)).
    K itself is never assembled.
    """
    if mesh.ndim == 1:
        (n,) = mesh.structure
        (h,) = _spacing(mesh)

        def solve(r):
            sums = np.cumsum(r)
            slopes = np.empty_like(sums)
            slopes[0] = (h / n) * np.sum(sums)
            slopes[1:] = slopes[0] - h * sums[:-1]
            return np.cumsum(slopes)

        return solve

    nx, ny = mesh.structure
    hx, hy = _spacing(mesh)
    Qx, mux = _sine_basis(nx)
    Qy, muy = (Qx, mux) if ny == nx else _sine_basis(ny)
    lam = (hy / hx) * mux[:, None] + (hx / hy) * muy[None, :]

    def solve(r):
        R = r.reshape(nx - 1, ny - 1)
        return (Qx @ ((Qx @ R @ Qy) / lam) @ Qy).ravel()

    return solve


def _pcg(apply, b: np.ndarray, solve, tol: float, complement_of=None):
    """Truncated PCG for H d = b from d = 0, preconditioned by solve = K^-1.

    With complement_of = (u, u . K u), CG runs on the K-orthogonal
    complement of u (projected PCG; Gould, Hribar, Nocedal, SIAM J. Sci.
    Comput. 23, 2001): the preconditioned residual is
    z = K^-1 r - u (u . r) / (u . K u), the K-projection of K^-1 r, since
    u . K (K^-1 r) = u . r.  So every search direction, and d, is
    K-orthogonal to u, with no extra solve and no stored vector.
    There r tends to a multiple of K u, where z cancels to rounding:
    r . z = r . K^-1 r - (u . r)^2 / (u . K u) is a difference of two
    nearly equal terms.  Once r . z falls to CG_ROUNDING r . K^-1 r, near
    1e-16 times b's on 16 x 16 at p = 3, it is rounding, and iterating on
    lets the directions leave the complement (from 1e-15 to K-cosine 0.8
    with u in 20 iterations), so CG stops there as if it had converged.
    Stops when the residual's preconditioned norm sqrt(r . z) falls to tol
    times b's or to that floor, after CG_MAX iterations, or at
    non-positive curvature (Steihaug), and returns (d, Hessian products).
    d is None when the curvature fails on the first iteration.
    """
    def precondition(r):
        """z and the rounding floor of r . z (0 without complement_of)."""
        z = solve(r)
        if complement_of is None:
            return z, 0.0
        u, uKu = complement_of
        floor = CG_ROUNDING * float(np.dot(r, z))
        z -= (float(np.dot(u, r)) / uKu) * u
        return z, floor

    d = np.zeros_like(b)
    r = b.copy()
    z, _ = precondition(r)
    rz = float(np.dot(r, z))
    target = tol * tol * rz
    s = z
    for k in range(CG_MAX):
        Hs = apply(s)
        curvature = float(np.dot(s, Hs))
        if not curvature > 0.0:
            return (d if k else None), k + 1
        alpha = rz / curvature
        d += alpha * s
        r -= alpha * Hs
        z, floor = precondition(r)
        rz_next = float(np.dot(r, z))
        if rz_next <= max(target, floor):
            return d, k + 1
        s = z + (rz_next / rz) * s
        rz = rz_next
    return d, CG_MAX


def _newton_step(apply, r: np.ndarray, solve, rel: float, complement_of=None):
    """(d, Hessian products): the inexact Newton direction for the residual r.

    PCG solves apply(d) = r to the forcing term min(FORCING_CAP, sqrt(rel)),
    on the K-orthogonal complement of u for complement_of = (u, u . K u)
    (see `_pcg`).
    The p = 2 direction K^-1 r replaces it when apply is None, when CG
    meets non-positive curvature at once, or when d is not a descent
    direction.
    """
    d, products = (None, 0) if apply is None else _pcg(
        apply, r, solve, min(FORCING_CAP, math.sqrt(rel)), complement_of)
    if d is None or not float(np.dot(r, d)) > 0.0:
        d = solve(r)
    return d, products


def _phi_hessian(mesh, spec, p, u):
    """v -> H v, the Hessian of Phi at u, or None at u = 0 or non-finite f'.

    The p-energy Hessian minus the mass matrix of f', one grid stencil
    (`assembly._hessian_stencil`).
    """
    if not np.any(u.values):
        return None
    df_q = _df_at_quad(mesh, spec, u.values)
    if not np.all(np.isfinite(df_q)):
        return None
    return _hessian_stencil(mesh, p, gradients_on_elements(mesh, u), df_q)


# ---------------------------------------------------------------------------
# dual-norm estimate and weak-form verification
# ---------------------------------------------------------------------------


def estimate_lambda_u(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec,
                      p: float) -> float:
    """Lower estimate of the dual norm of f(., u): sup |int f(x,u) v| / ||v||.

    ||v|| is the W^{1,p} norm (int |v|^p + int |grad v|^p)^(1/p).  The
    supremum is taken over the nodal hats of the grid and of its dyadic
    coarsenings on intervals and rectangles alike, doubling every step
    while each cell count is even and at least 4; their loads come by
    full weighting (`assembly._restrict`), their norms in closed form.
    The coarse hats are P1 fields of every finer grid, so the family
    grows under `refine_structured`, and the estimate is monotone under
    refinement when f does not depend on u.
    """
    _check_p(p)
    return _lambda_u(mesh, nonlinear_load(mesh, u, spec).values, p)


def _lambda_u(mesh: Mesh, load: np.ndarray, p: float) -> float:
    """`estimate_lambda_u` from the load entries int f(x, u) psi_j."""
    F, h, cells, best = _pad(mesh, load), _spacing(mesh), mesh.structure, 0.0
    while True:
        best = max(best, float(np.max(np.abs(F))) / _hat_norm(h, p))
        if any(n % 2 or n < 4 for n in cells):
            return best
        F, h, cells = _restrict(F), [2.0 * x for x in h], [n // 2 for n in cells]


@dataclass(frozen=True)
class ResidualReport:
    """Weak-form residuals against the truncated test basis.

    residuals[j] = c_j (int |grad u|^(p-2) grad u . grad psi_j
                        - int f(x, u) psi_j - h_j),  c_j = Theta_R(u_j).
    max_relative normalizes by the largest term magnitude
    max_j (|T1_j| + |T2_j| + |T3_j|) of the scaled terms T_j = c_j t_j;
    it is 0 when every term vanishes.  It is the norm the descent stops
    on (`SolveResult.stationarity`).  lambda_u is `estimate_lambda_u`
    of the same load: max |int f(x, u) v| / ||v|| over the coarse hats.
    """

    residuals: np.ndarray
    max_abs: float
    scale: float
    max_relative: float
    truncation_radius: float
    lambda_u: float
    tol: float
    passed: bool


def verify_weak_solution(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec,
                         h: DualVector, p: float,
                         R: float | None = None) -> ResidualReport:
    """Test the weak form of -Delta_p u = f(x, u) + h against v_j = Theta_R(u_j) e_j.

    R defaults to 2 max|u| (or 1 for u = 0), which makes every c_j = 1;
    smaller radii deliberately blind the test where |u| is large.  The
    test passes when max_relative is at most CERTIFICATE_TOL.  The
    report also carries the dual-norm estimate of f(., u) used to judge
    whether the right-hand side is resolvable on this mesh.
    """
    if R is None:
        s = sup_norm(mesh, u)
        R = 2.0 * s if s > 0.0 else 1.0
    c = truncated_test_basis(mesh, u, R)
    terms = _weak_terms(mesh, u, spec, h, p)
    r, max_abs, scale, max_rel = _residual_norms(*(c * t for t in terms))
    lam_u = _lambda_u(mesh, terms[1], p)
    return ResidualReport(
        residuals=r, max_abs=max_abs, scale=scale, max_relative=max_rel,
        truncation_radius=float(R), lambda_u=lam_u, tol=CERTIFICATE_TOL,
        passed=max_rel <= CERTIFICATE_TOL)
