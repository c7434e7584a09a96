"""Minimize the Dirichlet functional and certify the resulting state.

The model problem is

    -div(|grad u|^(p-2) grad u) = f(x, u) + h      u = 0 on the boundary

with f drawn from the built-in catalog.  The script minimizes the energy
functional, then replays the truncated-test-function certificate that the
minimizer actually satisfies the weak equation.
"""
from __future__ import annotations

import argparse

import numpy as np

import plapvar as pv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--beta", type=float, default=1.9,
                    help="subcritical perturbation exponent, 1 < beta < p")
    ap.add_argument("--forcing", type=float, default=0.25,
                    help="amplitude of the sin(pi x) forcing term")
    args = ap.parse_args()

    mesh = pv.build_interval_mesh(0.0, 1.0, args.n)
    eig = pv.first_eigenpair(mesh, args.p)
    print(f"lambda_1 = {eig.lambda1:.10f} on {args.n} elements")

    # resonant principal part plus a strictly subcritical damping term
    spec = pv.power_perturbation(eig.lambda1, args.beta, args.p)
    h = pv.load_vector(mesh,
                       lambda x: args.forcing * np.sin(np.pi * x[:, 0]))

    res = pv.minimize_phi(mesh, spec, h, args.p)
    print(f"minimization: {res.iterations} steps, {res.backtracks} backtracks")
    print(f"  Phi          = {res.phi:.12e}")
    print(f"  stationarity = {res.stationarity:.3e}  (stop: {res.stop_reason})")
    print(f"  sup|u|       = {pv.sup_norm(mesh, res.u):.6f}")

    rep = pv.verify_weak_solution(mesh, res.u, spec, h, args.p)
    print()
    print("certificate against truncated nodal test functions:")
    print(f"  truncation radius R = {rep.truncation_radius:.4f}")
    print(f"  max |residual|      = {rep.max_abs:.3e}")
    print(f"  max relative        = {rep.max_relative:.3e}  (tol {rep.tol:.0e})")
    print(f"  load estimate       = {rep.lambda_u:.6f}")
    print(f"  verdict             = {'certified' if rep.passed else 'NOT certified'}")

    # what happens when coercivity is lost: push the principal coefficient
    # past the eigenvalue and watch the functional race downward
    print()
    print("same forcing, but principal coefficient 2 lambda_1:")
    bad = pv.power_potential(2.0 * eig.lambda1, args.p, eig.lambda1)
    try:
        pv.minimize_phi(mesh, bad, h, args.p)
        print("  unexpectedly bounded")
    except pv.UnboundedBelowError as exc:
        print(f"  caught: {exc}")


if __name__ == "__main__":
    main()
