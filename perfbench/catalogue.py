"""Solve every entry of the laplace_sweep catalogue once and print its
residual margin and nodal error, the figures behind the sweep's checks.

    python3 perfbench/catalogue.py

For each harmonic data set: CG iterations, the reported and the true
relative residual, the margin (tol - true) / tol, and the largest nodal
error, with its ratio to h^(k+1) max|D^(k+1) u| for data the method does
not reproduce exactly.  The last lines give the smallest margin, the
largest patch-test error and the largest ratio, which sets the constant
of the sweep's error bound.
"""

import os
import sys
from pathlib import Path

from run import SINGLE_THREAD

HERE = Path(__file__).resolve().parent


def main():
    os.environ.update(SINGLE_THREAD)  # before numpy loads
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import numpy as np

    import checks
    import workloads
    from polyvem import mesh, system

    k, n, tol = workloads.LaplaceSweep.K, workloads.LaplaceSweep.N, workloads.SOLVE_TOL
    m = mesh.gen_structured("distortedQuads", n)
    s = system.assemble(m, k)
    v = m.vertices
    margins, patch, ratios = [], [], []
    for name, u, degree, m4 in workloads.harmonic_catalogue():
        system.apply_dirichlet(s, u)
        x, report = system.solve(s, tol=tol)
        true = checks.true_residual(s.A, s.b, x, s.constrained_ids)
        err = float(np.max(np.abs(x[: len(v)] - u(v[:, 0], v[:, 1]))))
        margins.append((tol - true) / tol)
        if m4 == 0.0:
            patch.append(err)
            ratio = ""
        else:
            ratios.append(err / ((1.0 / n) ** (k + 1) * m4))
            ratio = "%.2e" % ratios[-1]
        print("%-28s iterations %3d  reported %.4e  true %.4e  margin %+.2e  "
              "nodal error %.2e  ratio %s" % (name, report.iterations, report.residual,
                                              true, margins[-1], err, ratio))
    print("smallest residual margin %.2e" % min(margins))
    print("largest patch-test nodal error %.2e" % max(patch))
    print("largest error ratio %.2e (bound constant %.0e)"
          % (max(ratios), workloads.LaplaceSweep.RATE_CONSTANT))


if __name__ == "__main__":
    main()
