"""What a process loads: the mesh and quad commands never import scipy;
the first assembly does.

sys.modules is per interpreter and the rest of the suite imports scipy,
so the check runs in a fresh one.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from polyvem import cli
    from polyvem.mesh import PolyMesh, write_mesh

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    # a unit square on the right of [0, 1]^2: its left edge hangs
    square = np.array([[1, 0], [2, 0], [2, 1], [1, 1]], float)
    write_mesh(PolyMesh(square, [[0, 1, 2, 3]]), "b.poly2d")
    for argv in (
        ["mesh", "gen", "distortedQuads:4", "-o", "a.poly2d"],
        ["mesh", "cut", "a.poly2d", "--line", "1,-0.31,0.4"],
        ["mesh", "merge", "a.poly2d", "b.poly2d", "-o", "ab.poly2d"],
        ["mesh", "info", "ab.poly2d"],
        ["quad", "--mesh", "a.poly2d", "--degree", "2", "--compress"],
    ):
        assert cli.main(argv) == 0, argv
    assert scipy_modules() == [], scipy_modules()

    from polyvem.mesh import gen_structured
    from polyvem.system import apply_dirichlet, assemble, solve

    system = assemble(gen_structured("distortedQuads", 4), 2, lambda x, y: x + y)
    apply_dirichlet(system, lambda x, y: x * y)
    _, report = solve(system)
    assert report.converged, report
    assert "scipy.sparse" in scipy_modules(), scipy_modules()

    import scipy.sparse

    assert type(system.A) is scipy.sparse.csr_matrix, type(system.A)
    assert system.A.has_canonical_format
    print("ok")
    """
)


def test_mesh_tooling_never_loads_scipy_and_assembly_does(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "ok"
