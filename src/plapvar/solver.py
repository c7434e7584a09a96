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

Descent steps are preconditioned with the (p = 2) stiffness matrix, for
the same reason as in the eigensolver: raw coefficient gradients are
mesh-size-stiff.  Step lengths come from `armijo`, the one line search,
which the eigensolver shares; each search starts from twice the last
accepted step (at most 1), not from t = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import (
    DiscreteField,
    DualVector,
    _reduce,
    _scatter,
    dirichlet_energy,
    hat_energies,
    pairing,
    plap_residual,
    quad_load,
    stiffness_matrix,
    sup_norm,
    values_at_quad,
)
from .meshing import Mesh
from .nonlinearity import NonlinearitySpec, eval_F, eval_f

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
STEP_GROWTH = 2.0
DIVERGENCE_FLOOR = -1e12
PHI_STALL = 1e-14     # relative energy decrease that ends a descent
EXTRA_STARTS = 5      # seeded random starts added by multistart
START_SPREAD = 1.0    # standard deviation of their perturbation


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
    if u.mesh is not mesh:
        raise ValueError("field belongs to a different mesh")
    theta = make_truncation(R)
    return theta(u.values)


# ---------------------------------------------------------------------------
# energy and gradient
# ---------------------------------------------------------------------------


def nonlinear_load(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec) -> DualVector:
    """Dual vector with entries int f(x, u(x)) psi_j dx.

    Uses the mesh quadrature rule with u evaluated at the rule nodes;
    non-finite values of f along u are rejected.
    """
    u_q = values_at_quad(mesh, u)                       # (ne, nq)
    pts = mesh.quad_points_flat()
    f_q = np.asarray(eval_f(spec, pts, u_q.reshape(-1)), dtype=float)
    bad = ~np.isfinite(f_q)
    if np.any(bad):
        where = pts[np.argmax(bad)]
        raise ValueError(f"f(x, u) is not finite at quadrature point {where}")
    return quad_load(mesh, f_q)


def potential_integral(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec) -> float:
    """int F(x, u(x)) dx with IEEE extended-real conventions.

    Divergent quadrature contributions of one sign propagate to +-inf.
    If both signs occur (or a density is NaN), the integral is reported
    as -inf, which makes Phi = ... - int F equal +inf: points where the
    potential is genuinely undefined are infeasible for minimization.
    """
    u_q = values_at_quad(mesh, u).reshape(-1)
    pts = mesh.quad_points_flat()
    w = mesh.quad_weights_flat()
    F_q = np.asarray(eval_F(spec, pts, u_q), dtype=float)
    active = w > 0.0
    has_pos = bool(np.any(np.isposinf(F_q) & active))
    has_neg = bool(np.any(np.isneginf(F_q) & active))
    has_nan = bool(np.any(np.isnan(F_q) & active))
    if (has_pos and has_neg) or has_nan:
        return -math.inf
    if has_pos:
        return math.inf
    if has_neg:
        return -math.inf
    return _reduce(w * F_q)


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
    return (plap_residual(mesh, u, p).values, nonlinear_load(mesh, u, spec).values,
            h.values)


def _residual_norms(t1, t2, t3):
    """(r, max_abs, scale, max_relative) of the residual r = t1 - t2 - t3.

    scale is the largest term magnitude max_j (|t1_j| + |t2_j| + |t3_j|);
    max_relative = max_abs / scale is 0 when every term vanishes.
    """
    r = t1 - t2 - t3
    if not r.size:
        return r, 0.0, 0.0, 0.0
    max_abs = float(np.max(np.abs(r)))
    scale = float(np.max(np.abs(t1) + np.abs(t2) + np.abs(t3)))
    return r, max_abs, scale, max_abs / scale if scale > 0.0 else 0.0


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


def armijo(at, f0: float, slope: float, t: float = 1.0):
    """Backtracking Armijo line search shared by both descents.

    Tries t, t/2, t/4, ... for at most MAX_TRIALS trials, from the start
    step t.  at(t) returns (value, state) for the step of length t, or
    None when that trial is infeasible.  The first trial with
    value <= f0 - ARMIJO t slope is accepted.  Returns
    (value, state, rejected) with the number of trials rejected below
    the start step, or (None, None, MAX_TRIALS) when no trial is
    accepted.

    Both descents warm-start the search: the accepted step is
    t * 0.5**rejected (exact in binary), and the next search starts at
    STEP_GROWTH = 2 times that step, capped at 1 (`_next_start`),
    instead of shrinking from 1 again to the step length the last
    search already found.
    """
    for rejected in range(MAX_TRIALS):
        trial = at(t)
        if trial is not None and trial[0] <= f0 - ARMIJO * t * slope:
            return trial[0], trial[1], rejected
        t *= 0.5
    return None, None, MAX_TRIALS


def _next_start(t: float, rejected: int) -> float:
    """Start step after a search from t accepted with `rejected` rejections."""
    return min(1.0, STEP_GROWTH * t * 0.5 ** rejected)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one energy descent.

    stationarity is the relative weak residual at u, the `max_relative`
    of `verify_weak_solution` at its default radius.  stop_reason is
    "stationarity" (stationarity below grad_tol), "phi-decrease"
    (energy progress below tolerance), "line-search" (no acceptable
    step found) or "max-iter".  backtracks sums, over
    all line searches, the trials rejected below each step's start t
    (the warm start of `armijo`, not t = 1).
    """

    u: DiscreteField
    phi: float
    stationarity: float
    iterations: int
    converged: bool
    stop_reason: str
    backtracks: int
    starts: int = 1


def minimize_phi(mesh: Mesh, spec: NonlinearitySpec, h: DualVector, p: float, *,
                 start: DiscreteField | None = None, grad_tol: float = 1e-8,
                 max_iter: int = 2000, multistart: bool = False,
                 seed: int = 0) -> SolveResult:
    """Minimize Phi by preconditioned gradient descent with Armijo steps.

    Starts from u = 0 unless `start` is given.  Stops when the relative
    weak residual (the certificate's norm, see the module docstring)
    drops below grad_tol or the energy decrease stalls below PHI_STALL
    (relative).  With multistart=True, EXTRA_STARTS random perturbed
    starts (seeded, spread START_SPREAD) are run in addition and the
    best final energy wins; use this when f is non-monotone enough for
    Phi to have several local minima.

    Raises UnboundedBelowError if Phi falls below -1e12, the numerical
    signature of a non-coercive functional.
    """
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got p={p}")
    base = np.zeros(mesh.n_free) if start is None else np.asarray(
        start.values, dtype=float).copy()
    starts = [base]
    if multistart:
        rng = np.random.default_rng(seed)
        for _ in range(EXTRA_STARTS):
            starts.append(base + START_SPREAD * rng.standard_normal(mesh.n_free))

    lu = splu(stiffness_matrix(mesh))

    best: SolveResult | None = None
    for u0 in starts:
        res = _descend_one(mesh, spec, h, p, u0, grad_tol, max_iter, lu)
        if best is None or (res.converged, -res.phi) > (best.converged, -best.phi):
            best = res
    assert best is not None
    if len(starts) > 1:
        best = SolveResult(best.u, best.phi, best.stationarity, best.iterations,
                           best.converged, best.stop_reason, best.backtracks,
                           starts=len(starts))
    return best


def _descend_one(mesh, spec, h, p, u0, grad_tol, max_iter, lu):
    field = DiscreteField(mesh, u0.copy())
    phi_cur = assemble_phi(mesh, field, spec, h, p)
    backtracks = 0
    steps = 0
    t0 = 1.0
    stop = "max-iter"
    converged = False

    while steps < max_iter:
        if phi_cur < DIVERGENCE_FLOOR:
            raise UnboundedBelowError(field, phi_cur)
        g, _, _, stat = _residual_norms(*_weak_terms(mesh, field, spec, h, p))
        if stat < grad_tol:
            stop, converged = "stationarity", True
            break

        d = lu.solve(g)
        slope = float(np.dot(g, d))
        if not (slope > 0.0):
            # preconditioner lost positivity on this vector; fall back
            d = g
            slope = float(np.dot(g, g))
            if slope == 0.0:
                stop, converged = "stationarity", True
                break

        def at(t):
            trial = DiscreteField(mesh, field.values - t * d)
            return assemble_phi(mesh, trial, spec, h, p), trial

        phi_new, trial, rejected = armijo(at, phi_cur, slope, t0)
        backtracks += rejected
        if trial is None:
            stop = "line-search"
            break
        t0 = _next_start(t0, rejected)

        steps += 1
        field = trial
        decrease = phi_cur - phi_new
        phi_cur = phi_new
        if decrease <= PHI_STALL * max(1.0, abs(phi_cur)):
            stop, converged = "phi-decrease", True
            break

    if phi_cur < DIVERGENCE_FLOOR:
        raise UnboundedBelowError(field, phi_cur)
    stat = _residual_norms(*_weak_terms(mesh, field, spec, h, p))[3]
    if stop in ("line-search", "phi-decrease", "max-iter") and stat < grad_tol:
        stop, converged = "stationarity", True
    return SolveResult(field, phi_cur, stat, steps, converged, stop, backtracks)


# ---------------------------------------------------------------------------
# dual-norm estimate and weak-form verification
# ---------------------------------------------------------------------------


def _interval_tent_levels(mesh: Mesh):
    """Dyadic tent half-widths k = 1, 2, 4, ... elements, up to n // 2."""
    _, a, b, n = mesh.structure
    h = (b - a) / n
    ks = []
    k = 1
    while k <= n // 2:
        ks.append(k)
        if n % (2 * k) != 0:
            break
        k *= 2
    return a, b, h, n, ks


def estimate_lambda_u(mesh: Mesh, u: DiscreteField, spec: NonlinearitySpec,
                      p: float) -> float:
    """Lower estimate of the dual norm of f(., u): sup |int f(x,u) v| / ||v||.

    ||v|| is the W^{1,p} norm (int |v|^p + int |grad v|^p)^(1/p).  The
    supremum is taken over a finite candidate family:

      * every nodal hat of the mesh (any dimension), and
      * for interval meshes, tents of dyadic widths h_c = 2^l h centered
        at the interior multiples of h_c (their norms are evaluated in
        closed form: int |grad v|^p = 2 h_c^(1-p), int |v|^p = 2 h_c/(p+1)).

    On nested interval refinements the candidate family only grows, so
    the estimate is monotone under refinement when f does not depend on u.
    """
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got p={p}")
    L = nonlinear_load(mesh, u, spec)

    best = 0.0
    if mesh.ndim == 1 and mesh.structure and mesh.structure[0] == "interval":
        a, b, h, n, ks = _interval_tent_levels(mesh)
        x_free = mesh.free_coordinates()[:, 0]
        for k in ks:
            hc = k * h
            centers = a + h * np.arange(k, n - k + 1, k, dtype=float)
            vals = np.maximum(0.0, 1.0 - np.abs(x_free[None, :] - centers[:, None]) / hc)
            numer = np.abs(vals @ L.values)
            denom = (2.0 * hc / (p + 1.0) + 2.0 * hc ** (1.0 - p)) ** (1.0 / p)
            if numer.size:
                best = max(best, float(np.max(numer)) / denom)
        return best

    # generic path: nodal hats with discretely assembled norms
    lp_hat = _scatter(mesh, mesh.quad_weights @ np.abs(mesh.basis_at_quad) ** p)
    ratios = np.abs(L.values) / (lp_hat + hat_energies(mesh, p)) ** (1.0 / p)
    return float(np.max(ratios)) if ratios.size else 0.0


@dataclass(frozen=True)
class ResidualReport:
    """Weak-form residuals against the truncated test basis.

    residuals[j] = c_j (int |grad u|^(p-2) grad u . grad psi_j
                        - int f(x, u) psi_j - h_j),  c_j = Theta_R(u_j).
    max_relative normalizes by the largest term magnitude
    max_j (|T1_j| + |T2_j| + |T3_j|) of the scaled terms T_j = c_j t_j;
    it is 0 when every term vanishes.  It is the norm the descent stops
    on (`SolveResult.stationarity`).
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
                         h: DualVector, p: float, R: float | None = None,
                         tol: float = 1e-6) -> ResidualReport:
    """Test the weak form of -Delta_p u = f(x, u) + h against v_j = Theta_R(u_j) e_j.

    R defaults to 2 max|u| (or 1 for u = 0), which makes every c_j = 1;
    smaller radii deliberately blind the test where |u| is large.  The
    report also carries the dual-norm estimate of f(., u) used to judge
    whether the right-hand side is resolvable on this mesh.
    """
    if R is None:
        s = sup_norm(mesh, u)
        R = 2.0 * s if s > 0.0 else 1.0
    c = truncated_test_basis(mesh, u, R)
    r, max_abs, scale, max_rel = _residual_norms(
        *(c * t for t in _weak_terms(mesh, u, spec, h, p)))
    lam_u = estimate_lambda_u(mesh, u, spec, p)
    return ResidualReport(
        residuals=r, max_abs=max_abs, scale=scale, max_relative=max_rel,
        truncation_radius=float(R), lambda_u=lam_u, tol=tol,
        passed=max_rel <= tol)
