"""First Dirichlet eigenpair of the p-Laplacian by Rayleigh-quotient descent.

The discrete first eigenvalue is the minimum of

    R(u) = int |grad u|^p / int |u|^p

over nonzero P1 fields with zero trace.  The minimizer is the positive
first eigenfunction, normalized by int |phi_1|^p = 1.

The iteration is projected gradient descent on R: renormalize after
every accepted step (R is scale invariant, so projection is free for
the line search), with step lengths from the shared Armijo search
`solver.armijo`; each trial costs one Rayleigh quotient.  The search is
warm-started: it begins at twice the last accepted step, capped at 1,
rather than at t = 1, so a descent whose step length has settled well
below 1 spends about two trials per step instead of halving down from 1
every time.

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
    dirichlet_energy,
    lp_integral,
    lp_residual,
    plap_residual,
    stiffness_matrix,
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


def _assemble(mesh: Mesh, uvals: np.ndarray, p: float):
    """Field, Rayleigh quotient, eigen-residual vector and its max norm at uvals."""
    field = DiscreteField(mesh, uvals)
    lam = rayleigh_quotient(mesh, field, p)
    r = plap_residual(mesh, field, p).values - lam * lp_residual(mesh, field, p).values
    return field, lam, r, float(np.max(np.abs(r))) if r.size else 0.0


def _normalize(mesh: Mesh, values: np.ndarray, p: float) -> np.ndarray:
    b = lp_integral(mesh, DiscreteField(mesh, values), p)
    return values / b ** (1.0 / p)


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
    u = _normalize(mesh, _bubble_start(mesh), p)
    restarts = 0

    _, lam, r, res_norm = _assemble(mesh, u, p)
    iterations = 0
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

        def at(t):
            trial = u - t * d
            try:
                return rayleigh_quotient(mesh, DiscreteField(mesh, trial), p), trial
            except ValueError:  # zero field: infeasible trial
                return None

        _, trial, rejected = armijo(at, lam, slope, t0)
        if trial is None:
            if restarts == 0:
                # stalled line search: jitter once and continue from t = 1
                restarts = 1
                t0 = 1.0
                u = _normalize(mesh, u + 1e-8 * rng.standard_normal(u.size), p)
                _, lam, r, res_norm = _assemble(mesh, u, p)
                continue
            stop = "line-search"
            break
        t0 = _next_start(t0, rejected)
        u = _normalize(mesh, trial, p)
        lam_prev = lam
        _, lam, r, res_norm = _assemble(mesh, u, p)
        iterations += 1
        if abs(lam_prev - lam) < STAGNATION_RTOL * abs(lam):
            stagnant += 1
            if stagnant >= 25:
                stop = "stagnation"
                break

    if stop == "max-iter" and res_norm < RESIDUAL_STOP:
        stop = "residual"  # the last allowed step reached the tolerance
    result = _finalize(mesh, u, p, iterations, stop)
    if stop not in ("residual", "stagnation"):
        raise EigenConvergenceError(
            f"eigen descent did not converge in {iterations} accepted steps "
            f"(residual {res_norm:.3e}, stop {stop})", result)
    return result


def _finalize(mesh: Mesh, u: np.ndarray, p: float, iterations: int,
              stop: str) -> EigenResult:
    if u.size and float(np.sum(u)) < 0.0:
        u = -u
    field, lam, _, res = _assemble(mesh, _normalize(mesh, u, p), p)
    return EigenResult(lambda1=lam, phi1=field, iterations=iterations, residual=res,
                       stop_reason=stop)
