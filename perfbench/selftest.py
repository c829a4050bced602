"""Show that every output check passes on good output and fails on
corrupted output.

    python3 perfbench/selftest.py

Runs the workloads' own check paths on small inputs: a refinement study
at k = 1, 2 on n = 8, 16, a Laplace solve on an n = 8 operator and one
mesh-surgery round.  The corruptions are a perturbed dof vector, swapped
refinement levels, a dropped element, a duplicated element, a removed
hanging node and a wrong `mesh info` report.  Exits 1 if any check lets a
corruption through or flags a good output.
"""

import os
import sys
import tempfile
from pathlib import Path

from run import SINGLE_THREAD

HERE = Path(__file__).resolve().parent


class Verdicts:
    def __init__(self):
        self.bad = 0

    def expect(self, what, problems, should_fail):
        ok = bool(problems) == should_fail
        self.bad += not ok
        print("%-4s %-52s %s" % ("ok" if ok else "FAIL", what,
                                 problems[0] if problems else "passes"))


def refine_cases(v, workloads):
    w = workloads.RefineDistorted(0, None)
    w.DEGREES, w.DIVISIONS = (1, 2), (8, 16)
    w.setup()
    w.begin_round()
    outputs = {}
    for label, op in w.operations():
        outputs[label] = out = op()
        failure, problems = w.check(label, out)
        v.expect("refine %s: solve and error norms" % label,
                 problems + ([failure] if failure else []), False)
    v.expect("refine: rates over good levels", w.end_round(), False)

    k, n, sys_, x, report, errors = outputs["k=2 n=16"]
    bad = x.copy()
    free = sys_.free_ids()
    bad[free[len(free) // 2]] += 1e-6
    failure, _ = w.check("k=2 n=16", (k, n, sys_, bad, report, errors))
    v.expect("refine: perturbed dof vector", [failure] if failure else [], True)

    w.errors = {k: [] for k in w.DEGREES}
    for label, (k, n, *_, errors) in outputs.items():
        w.errors[k].append(({8: 16, 16: 8}[n], *errors))
    v.expect("refine: swapped levels", w.end_round(), True)


def laplace_cases(v, workloads):
    w = workloads.LaplaceSweep(0, None)
    w.N = 8
    w.setup()
    w.begin_round()
    label, degree = next((name, d[1]) for name, d in w.data.items()
                         if d[1] is not None and d[1] <= w.K)
    x, report = dict(w.operations())[label]()
    failure, problems = w.check(label, (x, report))
    v.expect("laplace: degree-%d data recovered" % degree,
             problems + ([failure] if failure else []), False)
    bad = x.copy()
    bad[w.system.free_ids()[0]] += 1e-6
    failure, problems = w.check(label, (bad, report))
    v.expect("laplace: perturbed dof vector, residual", [failure] if failure else [], True)
    v.expect("laplace: perturbed dof vector, nodal values", problems, True)


def surgery_cases(v, workloads, checks, workdir):
    import numpy as np

    w = workloads.MeshSurgery(0, workdir)
    w.setup()
    w.begin_round()
    for label, op in w.operations():
        failure, problems = w.check(label, op())
        v.expect("surgery %s" % label, problems + ([failure] if failure else []), False)
    v.expect("surgery: wrong mesh info report",
             w.check("info merged", (0, "vertices: 1\nelements: 2\narea: 3\n"))[1], True)

    verts, elements = checks.read_poly2d(workdir / "cut1.poly2d")
    checks.write_poly2d(workdir / "cut1.poly2d", verts, elements[:-1])
    w.restart_checks()
    v.expect("surgery: dropped element after a cut", w.check("cut1", (0, ""))[1], True)

    checks.write_poly2d(workdir / "cut1.poly2d", verts, elements + elements[-1:])
    w.restart_checks()
    v.expect("surgery: duplicated element after a cut", w.check("cut1", (0, ""))[1], True)

    # drop one hanging node from the element that lists it: the long
    # segment that remains has a vertex strictly inside, a T-junction
    verts, elements = checks.read_poly2d(workdir / "merged.poly2d")
    p, q = np.asarray(w.glue[0]), np.asarray(w.glue[1])
    normal = np.array([p[1] - q[1], q[0] - p[0]])
    on_line = np.abs((verts - p) @ normal) <= 1e-9
    eid, vid = next(
        (eid, loops[0][j]) for eid, loops in enumerate(elements)
        for j in range(len(loops[0]))
        if all(on_line[loops[0][(j + d) % len(loops[0])]] for d in (-1, 0, 1)))
    elements[eid] = [[i for i in elements[eid][0] if i != vid]] + elements[eid][1:]
    v.expect("surgery: hanging node removed on the glue line",
             checks.check_glue(verts, elements, w.glue), True)


def main():
    os.environ.update(SINGLE_THREAD)  # before numpy loads
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import checks
    import workloads

    v = Verdicts()
    refine_cases(v, workloads)
    laplace_cases(v, workloads)
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=HERE / "_work") as tmp:
        surgery_cases(v, workloads, checks, Path(tmp))
    print("%d check(s) misbehaved" % v.bad if v.bad else "every check behaves")
    return 1 if v.bad else 0


if __name__ == "__main__":
    sys.exit(main())
