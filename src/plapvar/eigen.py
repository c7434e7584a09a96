"""First Dirichlet eigenpair of the p-Laplacian by Rayleigh-quotient descent.

The discrete first eigenvalue is the minimum of

    R(u) = int |grad u|^p / int |u|^p

over nonzero P1 fields with zero trace.  The minimizer is the positive
first eigenfunction, normalized by int |phi_1|^p = 1.

The iteration is projected gradient descent on R: renormalize after
every accepted step (R is scale invariant, so projection is free for
the line search), with step lengths from the shared Armijo search
`solver.armijo`.  The search is warm-started: it begins at twice the
last accepted step, capped at 1, rather than at t = 1, so a descent
whose step length has settled well below 1 spends about two trials per
step instead of halving down from 1 every time.

Trials run on a cached line.  The iterate u carries its element
gradients D u and its values at the quadrature nodes; once per step the
direction d gets the same two arrays, and a trial at t combines them
elementwise (u - t d is linear in both), so it costs one quotient with
no sparse product and no gather.  The accepted trial's arrays are
rescaled to int |u|^p = 1, and the quotient and the eigen residual are
then evaluated afresh at the normalized iterate: reusing the accepted
trial's quotient would bias lambda low, since Armijo accepts the first
trial that rounds below its threshold.

The descent direction is the gradient taken in the H^1_0 inner product,
i.e. one sparse solve with the fixed p = 2 stiffness matrix; this keeps
the step count bounded independently of the mesh size, whereas the raw
coefficient-space gradient needs O(h^-2) steps.

The start iterate is the interpolant of the positive product bubble
prod_i sin(pi (x_i - a_i) / (b_i - a_i)), which lies in the symmetry
class of the first eigenfunction and avoids sign-changing stationary
points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .assembly import (
    DiscreteField,
    _energy,
    _flux,
    _lp,
    _lp_load,
    dirichlet_energy,
    gradients_on_elements,
    lp_integral,
    stiffness_matrix,
    values_at_quad,
)
from .meshing import Mesh
from .solver import _next_start, armijo

__all__ = ["EigenResult", "EigenConvergenceError", "rayleigh_quotient", "first_eigenpair"]

RESIDUAL_STOP = 1e-9     # eigen-residual max norm that ends the descent
STAGNATION_RTOL = 1e-12  # relative quotient change counted as a stagnant step


@dataclass(frozen=True)
class EigenResult:
    """First eigenpair, converged unless carried by EigenConvergenceError.

    lambda1   discrete first eigenvalue (Rayleigh quotient at phi1)
    phi1      eigenfunction, int |phi1|^p = 1, positive at free vertices
    iterations  accepted descent steps
    trials    line-search trials (Rayleigh quotients on the cached line),
              summed over all steps
    residual  max_j |int |grad phi1|^(p-2) grad phi1 . grad psi_j
                     - lambda1 int |phi1|^(p-2) phi1 psi_j|
    stop_reason  why the descent stopped.  A returned result carries
              "residual" (residual below RESIDUAL_STOP) or "stagnation"
              (25 consecutive steps moved the quotient by less than
              STAGNATION_RTOL while the residual stopped improving).  The
              result inside EigenConvergenceError carries "max-iter" (max_iter
              steps used up), "line-search" (no acceptable step, even
              after the one perturbed restart) or "non-descent" (the
              preconditioned direction had slope <= 0).
    """

    lambda1: float
    phi1: DiscreteField
    iterations: int
    trials: int
    residual: float
    stop_reason: str


class EigenConvergenceError(RuntimeError):
    """Raised when the descent does not converge; carries the last iterate."""

    def __init__(self, message: str, result: EigenResult):
        super().__init__(message)
        self.result = result


def rayleigh_quotient(mesh: Mesh, u: DiscreteField, p: float) -> float:
    """int |grad u|^p / int |u|^p; rejects u = 0."""
    denom = lp_integral(mesh, u, p)
    if denom == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero field")
    return p * dirichlet_energy(mesh, u, p) / denom


def _bubble_start(mesh: Mesh) -> np.ndarray:
    coords = mesh.free_coordinates()
    lo, hi = mesh.bounds
    vals = np.prod(np.sin(np.pi * (coords - lo) / (hi - lo)), axis=1)
    return np.maximum(vals, 1e-12)


def _normalized(mesh: Mesh, values: np.ndarray, p: float):
    """values scaled to int |u|^p = 1, with its gradients D u and quadrature values."""
    field = DiscreteField(mesh, values)
    g, q = gradients_on_elements(mesh, field), values_at_quad(mesh, field)
    s = _lp(mesh, q, p) ** (1.0 / p)
    return field.values / s, g / s, q / s


def _eigen_residual(mesh: Mesh, g: np.ndarray, q: np.ndarray, p: float):
    """Rayleigh quotient, eigen-residual vector and its max norm of the field
    with element gradients g and quadrature values q."""
    lam = p * _energy(mesh, g, p) / _lp(mesh, q, p)
    r = _flux(mesh, g, p) - lam * _lp_load(mesh, q, p)
    return lam, r, float(np.max(np.abs(r))) if r.size else 0.0


def _line(mesh: Mesh, p: float, g_u: np.ndarray, q_u: np.ndarray, d: np.ndarray,
          g: np.ndarray, q: np.ndarray):
    """Trial function at(t) on the line u - t d, for `solver.armijo`.

    g_u, q_u are u's gradients and quadrature values; d's are computed
    here, once.  at(t) writes the trial's arrays into the buffers g and
    q and returns (quotient, (t, int |u - t d|^p)), or None for the zero
    field.  The buffers hold the last trial evaluated, which is the
    accepted one when the search succeeds.
    """
    field = DiscreteField(mesh, d)
    g_d, q_d = gradients_on_elements(mesh, field), values_at_quad(mesh, field)

    def at(t):
        np.add(np.multiply(q_d, -t, out=q), q_u, out=q)
        b = _lp(mesh, q, p)
        if b == 0.0:
            return None
        np.add(np.multiply(g_d, -t, out=g), g_u, out=g)
        return p * _energy(mesh, g, p) / b, (t, b)

    return at


def first_eigenpair(
    mesh: Mesh,
    p: float,
    *,
    max_iter: int = 20000,
    seed: int = 0,
) -> EigenResult:
    """Minimize the Rayleigh quotient; see the module docstring.

    Converges when the eigen-residual max norm drops below RESIDUAL_STOP.
    The secondary stop — quotient decreasing by less than STAGNATION_RTOL
    (relative) per step — only fires after 25 consecutive stagnant steps
    during which the residual also stopped improving: near a minimum the
    quotient error is quadratic in the eigenvector error, so quotient
    stagnation alone would end the polish many digits too early.
    Any other stop raises EigenConvergenceError carrying the last
    iterate; EigenResult.stop_reason says which rule fired.  `seed` controls the perturbed restart
    used if the line search stalls early.
    """
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got p={p}")

    lu = splu(stiffness_matrix(mesh))
    rng = np.random.default_rng(seed)
    u, g, q = _normalized(mesh, _bubble_start(mesh), p)
    g_buf, q_buf = np.empty_like(g), np.empty_like(q)
    restarts = 0

    lam, r, res_norm = _eigen_residual(mesh, g, q, p)
    iterations = 0
    trials = 0
    t0 = 1.0
    stop = "max-iter"
    stagnant = 0
    best_res = np.inf
    for _ in range(max_iter):
        if res_norm < RESIDUAL_STOP:
            stop = "residual"
            break
        if res_norm < 0.99 * best_res:
            best_res = res_norm
            stagnant = 0
        d = lu.solve(r)
        slope = float(np.dot(r, d)) * p  # B = 1 after normalization
        if slope <= 0.0:
            stop = "non-descent"
            break

        _, accepted, rejected = armijo(_line(mesh, p, g, q, d, g_buf, q_buf),
                                       lam, slope, t0)
        trials += rejected + (accepted is not None)
        if accepted is None:
            if restarts == 0:
                # stalled line search: jitter once and continue from t = 1
                restarts = 1
                t0 = 1.0
                u, g, q = _normalized(mesh, u + 1e-8 * rng.standard_normal(u.size), p)
                lam, r, res_norm = _eigen_residual(mesh, g, q, p)
                continue
            stop = "line-search"
            break
        t0 = _next_start(t0, rejected)
        t, b = accepted
        s = b ** (1.0 / p)
        u = (u - t * d) / s
        g, g_buf = g_buf, g
        q, q_buf = q_buf, q
        g /= s
        q /= s
        lam_prev = lam
        lam, r, res_norm = _eigen_residual(mesh, g, q, p)
        iterations += 1
        if abs(lam_prev - lam) < STAGNATION_RTOL * abs(lam):
            stagnant += 1
            if stagnant >= 25:
                stop = "stagnation"
                break

    if stop == "max-iter" and res_norm < RESIDUAL_STOP:
        stop = "residual"  # the last allowed step reached the tolerance
    if u.size and float(np.sum(u)) < 0.0:
        u = -u  # lambda and the residual norm are even in u
    result = EigenResult(lambda1=lam, phi1=DiscreteField(mesh, u), iterations=iterations,
                         trials=trials, residual=res_norm, stop_reason=stop)
    if stop not in ("residual", "stagnation"):
        raise EigenConvergenceError(
            f"eigen descent did not converge in {iterations} accepted steps "
            f"(residual {res_norm:.3e}, stop {stop})", result)
    return result
