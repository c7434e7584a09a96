"""Audit solvability hypotheses for resonant right-hand sides.

Three classical existence theorems for the resonant problem ask for
different structure in the recentred potential G = F - lambda_1 |s|^p / p:

  sign            G nonpositive, strictly negative on a fat set
  comparison      G dominated by eta(x) phi(s) with integrable weight
  landesman_lazer the forcing trapped in the directional-limit bracket

One call to check_theorems returns the three reports, holds / fails /
inconclusive per condition.  The second half of the script runs the
designed three-scenario table showing that no theorem subsumes another:
each scenario satisfies exactly one.
"""
from __future__ import annotations

import argparse

import numpy as np

import plapvar as pv


def show(report):
    print(f"  {report.name}: {report.overall}")
    for cond, verdict in report.conditions.items():
        print(f"      {cond:<28} {verdict.status}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--levels", type=int, default=200,
                    help="depth of the geometric limsup grids")
    args = ap.parse_args()

    mesh = pv.build_interval_mesh(0.0, 1.0, args.n)
    eig = pv.first_eigenpair(mesh, args.p)
    h = pv.zero_dual(mesh)

    print(f"p = {args.p}, lambda_1 = {eig.lambda1:.8f}")
    print()
    print("mild subcritical damping (every hypothesis family is satisfied):")
    spec = pv.power_perturbation(eig.lambda1, 0.5 * (1 + args.p), args.p)
    for report in pv.check_theorems(spec, eig, h, mesh, args.p,
                                    levels=args.levels).values():
        show(report)

    out = pv.check_superlinear_negativity(spec, levels=args.levels)
    print(f"  superlinear negativity of G: {out.status}")

    print()
    print("designed scenarios, one per theorem:")
    table = pv.incomparability_suite(args.p, mesh, levels=args.levels,
                                     eigenpair=eig)
    from plapvar.conditions import THEOREMS
    width = max(len(c) for c in table.cases) + 2
    header = " " * width + "".join(f"{t:>18}" for t in THEOREMS)
    print(header)
    for case, row in zip(table.cases, table.matrix()):
        cells = "".join(f"{status:>18}" for status in row)
        print(f"{case:<{width}}{cells}")
    print()
    verdict = "yes" if table.is_exclusive_diagonal() else "NO"
    print(f"exclusive diagonal (no theorem covers another's scenario): {verdict}")


if __name__ == "__main__":
    main()
