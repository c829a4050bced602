"""End-to-end tests of the command line driver.

Everything goes through cli.main with an argv list, so exit codes and
stdout/stderr are checked exactly as a shell user would see them.
"""

import filecmp
import hashlib

import numpy as np
import pytest

from polyvem import cli
from polyvem.localmat import Element, ElementMatrixCache, MatrixTag, find_or_compute
from polyvem.mesh import CutLine, PolyMesh, merge_meshes, read_mesh, write_mesh
from polyvem.monomials import basis_size
from polyvem.quadrature import polygon_rule
from polyvem.system import apply_dirichlet, assemble, solve


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    return header, rows


def hexagon_file(tmp_path):
    ang = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    verts = np.column_stack([np.cos(ang), np.sin(ang)])
    path = tmp_path / "hex.poly2d"
    write_mesh(PolyMesh(verts, [[0, 1, 2, 3, 4, 5]]), path)
    return str(path)


def holed_file(tmp_path):
    sq = np.array([[0, 0], [3, 0], [3, 3], [0, 3]], float)
    hole = np.array([[1, 1], [2, 1], [2, 2], [1, 2]], float)
    mesh = PolyMesh(
        np.vstack([sq, hole]),
        [([0, 1, 2, 3], [[7, 6, 5, 4]]), [4, 5, 6, 7]],
    )
    path = tmp_path / "holed.poly2d"
    write_mesh(mesh, path)
    return str(path)


# -- solve ---------------------------------------------------------------


def test_solve_writes_error_csv(tmp_path):
    out = str(tmp_path / "err.csv")
    rc = cli.main(
        ["solve", "--gen", "quads:8", "--degree", "2", "--errors", out]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["h", "nDof", "errL2", "errH1"]
    (row,) = rows
    assert int(row[1]) == 289
    assert float(row[2]) < float(row[3]) < 0.1


def test_solve_polyk_exact_for_space_polynomials(tmp_path):
    out = str(tmp_path / "err.csv")
    rc = cli.main(
        ["solve", "--gen", "quads:2", "--degree", "1",
         "--problem", "polyK", "--errors", out]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert float(rows[0][2]) <= 1e-10


def test_missing_mesh_file_exits_1(capsys):
    rc = cli.main(["solve", "--mesh", "/no/such/file.poly2d"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "not found" in err and "/no/such/file.poly2d" in err


@pytest.mark.parametrize("argv", [["mesh", "info", "{dir}"], ["solve", "--mesh", "{dir}"]])
def test_unreadable_mesh_path_exits_1(tmp_path, capsys, argv):
    rc = cli.main([a.format(dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: cannot read mesh file %s: Is a directory\n" % tmp_path


@pytest.mark.parametrize("argv", [
    ["mesh", "gen", "quads:2", "-o", "{out}"],
    ["mesh", "cut", "{mesh}", "--line", "1,0,0.3", "-o", "{out}"],
    ["mesh", "merge", "{mesh}", "{right}", "-o", "{out}"],
    ["solve", "--gen", "quads:2", "--out", "{out}"],
    ["solve", "--gen", "quads:2", "--errors", "{out}"],
    ["convergence", "--levels", "1", "--out", "{out}"],
    ["quad", "--gen", "quads:1", "--out", "{out}"],
])
def test_unwritable_output_path_exits_1(tmp_path, capsys, argv):
    mesh, right, out = tmp_path / "m.poly2d", tmp_path / "r.poly2d", tmp_path / "no" / "x.out"
    write_mesh(cli.gen_structured("quads", 2), mesh)
    sq = np.array([[1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0]])
    write_mesh(PolyMesh(sq, [[0, 1, 2, 3]]), right)
    rc = cli.main([a.format(mesh=mesh, right=right, out=out) for a in argv])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: cannot write %s: No such file or directory\n" % out


def test_bad_gen_spec_exits_1(capsys):
    assert cli.main(["solve", "--gen", "quads"]) == 1
    assert "family:n" in capsys.readouterr().err


def test_unknown_problem_exits_1(capsys):
    rc = cli.main(["solve", "--gen", "quads:2", "--problem", "nope"])
    assert rc == 1
    assert "unknown problem" in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    # argparse usage errors are remapped from its default exit status
    assert cli.main(["solve", "--degree"]) == 1
    assert cli.main(["frobnicate"]) == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_custom_problem_file(tmp_path):
    prob = tmp_path / "prob.py"
    prob.write_text(
        "def u(x, y):\n    return x - 2.0 * y\n"
        "def f(x, y):\n    return 0.0 * x\n"
        "def grad(x, y):\n    return (1.0 + 0.0 * x, -2.0 + 0.0 * x)\n"
    )
    out = str(tmp_path / "err.csv")
    rc = cli.main(
        ["solve", "--gen", "quads:2", "--problem", "custom:%s" % prob,
         "--errors", out]
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert float(rows[0][2]) <= 1e-12


def test_custom_problem_missing_names_exits_1(tmp_path, capsys):
    prob = tmp_path / "incomplete.py"
    prob.write_text("def u(x, y):\n    return x\n")
    rc = cli.main(
        ["solve", "--gen", "quads:2", "--problem", "custom:%s" % prob]
    )
    assert rc == 1
    assert "must define" in capsys.readouterr().err


def test_solver_iteration_cap_exits_2(capsys):
    rc = cli.main(["solve", "--gen", "quads:4", "--degree", "2",
                   "--maxiter", "3"])
    assert rc == 2
    assert "solver failed" in capsys.readouterr().err


def test_dump_matrices(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["solve", "--gen", "quads:2", "--degree", "2",
                   "--dump-matrices", "0"])
    assert rc == 0
    text = (tmp_path / "matrices_element0.csv").read_text()
    for tag in ("tag,D", "tag,B", "tag,G", "tag,H", "tag,STIFFNESS"):
        assert tag in text


def test_dump_matrices_builds_one_group(tmp_path, monkeypatch):
    # all eight tags are read from one lone group, not one group per tag
    from polyvem import localmat, system

    monkeypatch.chdir(tmp_path)
    mesh = cli.gen_structured("distortedQuads", 8)
    calls = []
    original = localmat.group_facets

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, localmat, system):
        monkeypatch.setattr(module, "group_facets", counting)
    path = cli._dump_matrices("matrices", 5, mesh.shapes.facet(5), 3)
    assert len(calls) == 1
    assert (tmp_path / path).read_text().count("tag,") == len(MatrixTag) == 8


# sha256 of the files these runs write.  The element matrices were recorded
# when H, G and D's moment rows moved to boundary integrals; the holed
# out.vtk when the vertex coarse space of CG on the condensed system came
# to be solved exactly; the holed err.csv when the error norms came to take
# the gradient of the projection from the basis value table; every
# out.vtk and err.csv and the convergence table when CG's preconditioner
# became the symmetric two-level cycle.
#
# Re-recording: a change that alters the arithmetic on purpose (a new
# summation order, quadrature or solver) records new digests here and in
# CONVERGENCE_SHA256 in the same commit.  Its CHANGES.md entry gives the old
# and new digests, the max relative deviation of A, b, the interpolant and
# both error norms from the tolerance oracle in tests/test_localmat.py, and
# states that the oracle and every acceptance bound pass unedited.  Any
# other change of a digest is a defect.
SOLVE_SHA256 = {
    "distortedQuads": {
        "out.vtk": "7101c09f70aef55acf6691a19a86dcce73a5c150166ddeff4325794ef1170f0e",
        "err.csv": "f5f63bfdab0eb80cd134f0f57407ced20d02f559ef7ddf88646a53411c233b3c",
        "matrices_element5.csv":
            "a8d5063a0594ad71aacf10514faa82fee5e08985ba74435e292a1dde4f4f6042",
    },
    "holed": {
        "out.vtk": "4239c302522e687aacb6fd9ce7ede898508d4685fe874311501dc51d8cda8c7b",
        "err.csv": "60e87d29ef26087a7a7c666e509f7be58411bdecbcfb74ff726c5cf6500e029b",
        "matrices_element0.csv":
            "d85f232a6846db30ec68c7f77a3b83162ee79d6fa3fdae3180fc5be115f95252",
    },
}
CONVERGENCE_SHA256 = "04f4d0670685bbe829e76ef0536375a66e4df8b67c0bf70ca783e549ec72374d"


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("case", ["distortedQuads", "holed"])
def test_solve_outputs_match_golden_bytes(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if case == "holed":
        source, element = ["--mesh", holed_file(tmp_path)], "0"
    else:
        source, element = ["--gen", "distortedQuads:8"], "5"
    rc = cli.main(["solve", *source, "--degree", "2", "--out", "out.vtk",
                   "--errors", "err.csv", "--dump-matrices", element])
    assert rc == 0
    assert {name: sha256(name) for name in SOLVE_SHA256[case]} == SOLVE_SHA256[case]


def test_convergence_csv_matches_golden_bytes(tmp_path):
    out = str(tmp_path / "conv.csv")
    rc = cli.main(["convergence", "--family", "distortedQuads", "--levels", "3",
                   "--degree", "2", "--out", out])
    assert rc == 0
    assert sha256(out) == CONVERGENCE_SHA256


@pytest.mark.parametrize("argv, value", [
    (["solve", "--gen", "quads:2", "--degree", "0"], "got 0"),
    (["solve", "--gen", "quads:2", "--tol", "nan"], "got nan"),
    (["solve", "--gen", "quads:2", "--tol", "-1"], "got -1"),
    (["solve", "--gen", "quads:2", "--maxiter", "-3"], "got -3"),
    (["solve", "--gen", "quads:2", "--dump-matrices", "99"], "id 99"),
    (["convergence", "--tol", "nan"], "got nan"),
    (["convergence", "--levels", "0"], "got 0"),
], ids=["degree", "tol-nan", "tol-negative", "maxiter", "dump-id", "convergence-tol",
        "levels"])
def test_solver_flags_out_of_range_exit_1_before_assembly(argv, value, capsys, monkeypatch):
    def no_assembly(*args):
        raise AssertionError("assembled")

    monkeypatch.setattr(cli, "assemble", no_assembly)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and value in err


def test_dump_matrices_bad_id_exits_1(capsys):
    rc = cli.main(["solve", "--gen", "quads:2", "--dump-matrices", "99"])
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


# -- convergence ---------------------------------------------------------


def test_convergence_first_order_rates(tmp_path):
    out = str(tmp_path / "conv.csv")
    rc = cli.main(["convergence", "--family", "quads", "--levels", "3",
                   "--degree", "1", "--out", out])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["level", "h", "nDof", "errL2", "errH1",
                      "rateL2", "rateH1"]
    assert len(rows) == 3
    assert rows[0][5] == "" and rows[0][6] == ""
    assert 1.8 <= float(rows[-1][5]) <= 2.2
    assert 0.8 <= float(rows[-1][6]) <= 1.2


def test_convergence_second_order_h1_rate(tmp_path):
    out = str(tmp_path / "conv2.csv")
    rc = cli.main(["convergence", "--family", "distortedQuads",
                   "--levels", "3", "--degree", "2", "--out", out])
    assert rc == 0
    _, rows = read_csv(out)
    assert 1.8 <= float(rows[-1][6]) <= 2.2
    assert 2.8 <= float(rows[-1][5]) <= 3.2


def test_convergence_single_level_has_empty_rates(tmp_path):
    out = str(tmp_path / "one.csv")
    assert cli.main(["convergence", "--levels", "1", "--out", out]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][5] == "" and rows[0][6] == ""


def test_convergence_csv_byte_identical(tmp_path):
    args = ["convergence", "--family", "distortedQuads", "--levels", "2",
            "--degree", "1"]
    a = str(tmp_path / "a.csv")
    b = str(tmp_path / "b.csv")
    assert cli.main(args + ["--out", a]) == 0
    assert cli.main(args + ["--out", b]) == 0
    assert filecmp.cmp(a, b, shallow=False)


# -- mesh tooling --------------------------------------------------------


def info_lines(capsys, path):
    assert cli.main(["mesh", "info", path]) == 0
    out = capsys.readouterr().out.splitlines()
    return {ln.split(":")[0]: ln.split(":", 1)[1].strip() for ln in out}


def test_mesh_info_of_a_count_beyond_the_file_exits_1(tmp_path, capsys):
    # the count is 1.46 TiB of vertices: nothing is reserved for it unread
    path = tmp_path / "m.poly2d"
    path.write_text("poly2d 1\n100000000000\n0 0\n")
    assert cli.main(["mesh", "info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 3: unexpected end of file, expected vertex 1\n"


def test_mesh_gen_then_info(tmp_path, capsys):
    path = str(tmp_path / "m.poly2d")
    assert cli.main(["mesh", "gen", "quads:3", "-o", path]) == 0
    capsys.readouterr()
    info = info_lines(capsys, path)
    assert info["vertices"] == "16"
    assert info["elements"] == "9"
    assert abs(float(info["area"]) - 1.0) < 1e-12
    assert info["conforming"] == "yes"


def test_mesh_cut_conserves_area(tmp_path, capsys):
    path = str(tmp_path / "m.poly2d")
    cut = str(tmp_path / "cut.poly2d")
    assert cli.main(["mesh", "gen", "quads:4", "-o", path]) == 0
    assert cli.main(["mesh", "cut", path, "--line", "1,-0.31,0.4",
                     "-o", cut]) == 0
    capsys.readouterr()
    info = info_lines(capsys, cut)
    assert abs(float(info["area"]) - 1.0) < 1e-12
    assert int(info["elements"]) > 16


def test_mesh_cut_in_place_by_default(tmp_path, capsys):
    path = str(tmp_path / "m.poly2d")
    assert cli.main(["mesh", "gen", "quads:2", "-o", path]) == 0
    assert cli.main(["mesh", "cut", path, "--line", "1,0,0.31"]) == 0
    capsys.readouterr()
    info = info_lines(capsys, path)
    assert int(info["elements"]) == 6


def test_mesh_cut_bad_line_exits_1(tmp_path, capsys):
    path = str(tmp_path / "m.poly2d")
    assert cli.main(["mesh", "gen", "quads:2", "-o", path]) == 0
    assert cli.main(["mesh", "cut", path, "--line", "1;0;0.5"]) == 1
    assert "a,b,c" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["nan,0,0.5", "1,0,nan"])
def test_mesh_cut_non_finite_line_exits_1(tmp_path, capsys, line):
    path = str(tmp_path / "m.poly2d")
    assert cli.main(["mesh", "gen", "quads:2", "-o", path]) == 0
    before = open(path).read()
    capsys.readouterr()
    assert cli.main(["mesh", "cut", path, "--line=" + line]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: expected --line a,b,c with finite numbers: line ")
    assert open(path).read() == before
    with pytest.raises(ValueError, match="must be .*finite"):
        CutLine(*(float(t) for t in line.split(",")))


def test_mesh_merge_adds_areas(tmp_path, capsys):
    a = str(tmp_path / "a.poly2d")
    b = str(tmp_path / "b.poly2d")
    out = str(tmp_path / "ab.poly2d")
    assert cli.main(["mesh", "gen", "quads:1", "-o", a]) == 0
    sq = np.array([[1, 0], [2, 0], [2, 1], [1, 1]], float)
    write_mesh(PolyMesh(sq, [[0, 1, 2, 3]]), b)
    assert cli.main(["mesh", "merge", a, b, "-o", out]) == 0
    capsys.readouterr()
    info = info_lines(capsys, out)
    assert int(info["elements"]) == 2
    assert abs(float(info["area"]) - 2.0) < 1e-12


def test_mesh_merge_disjoint_exits_1(tmp_path, capsys):
    a = str(tmp_path / "a.poly2d")
    b = str(tmp_path / "b.poly2d")
    assert cli.main(["mesh", "gen", "quads:1", "-o", a]) == 0
    sq = np.array([[5, 5], [6, 5], [6, 6], [5, 6]], float)
    write_mesh(PolyMesh(sq, [[0, 1, 2, 3]]), b)
    capsys.readouterr()
    assert cli.main(["mesh", "merge", a, b]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_mesh_merge_rejects_a_tolerance_not_finite_or_below_zero(tmp_path, capsys, tol):
    # two unit squares that share x = 1: the tolerance is refused before
    # any vertex is compared, by the library and the command alike
    a = str(tmp_path / "a.poly2d")
    b = str(tmp_path / "b.poly2d")
    assert cli.main(["mesh", "gen", "quads:1", "-o", a]) == 0
    sq = np.array([[1, 0], [2, 0], [2, 1], [1, 1]], float)
    write_mesh(PolyMesh(sq, [[0, 1, 2, 3]]), b)
    capsys.readouterr()
    assert cli.main(["mesh", "merge", a, b, "--merge-tol=" + tol]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: merge tolerance must be a finite number >= 0") and tol in err
    with pytest.raises(ValueError, match="merge tolerance"):
        merge_meshes(read_mesh(a), read_mesh(b), tol=float(tol))


# -- quadrature ----------------------------------------------------------


def test_quad_hexagon_compresses_within_budget(tmp_path, capsys):
    path = hexagon_file(tmp_path)
    out = str(tmp_path / "rule.csv")
    rc = cli.main(["quad", "--mesh", path, "--degree", "2",
                   "--compress", "--out", out])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    total = [ln for ln in lines if ln.startswith("total:")][0]
    fields = dict(p.split("=") for p in total.split()[1:])
    assert int(fields["after"]) <= 6
    assert fields["verdict"] == "PASS"
    # weights of the compressed rule must still integrate 1 exactly
    _, rows = read_csv(out)
    area = 1.5 * np.sqrt(3.0)
    assert abs(sum(float(r[3]) for r in rows) - area) < 1e-12


def test_quad_degree_zero_single_point_per_element(capsys):
    rc = cli.main(["quad", "--gen", "quads:2", "--degree", "0",
                   "--compress"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    for ln in lines:
        if ln.startswith("element"):
            fields = dict(p.split("=") for p in ln.split()[2:4])
            assert int(fields["after"]) == 1
            assert ln.endswith("PASS")


def test_quad_negative_degree_exits_1(capsys):
    assert cli.main(["quad", "--gen", "quads:2", "--degree", "-1"]) == 1
    assert "degree" in capsys.readouterr().err


def merged_file(tmp_path):
    # a unit square of four quads glued to a coarse square on its right
    # side: a hanging node on the shared edge
    coarse = PolyMesh(np.array([[1, 0], [2, 0], [2, 1], [1, 1]], float), [[0, 1, 2, 3]])
    path = tmp_path / "merged.poly2d"
    write_mesh(merge_meshes(cli.gen_structured("quads", 2), coarse), path)
    return str(path)


# sha256 of the stdout and of the --out table of `quad` at degrees 0 to 6,
# then with --compress at degree 4, each stream over the eight runs in that
# order
QUAD_SHA256 = {
    "distortedQuads": (
        "9fb26eb8095b4518032f4b7dd654d0d576083fb6a2d4d6e22945ce8b11ce47c0",
        "3833d6eac726aa6f94a94ca56cd64dee29445a8a826639fe3e42680d285a6580",
    ),
    "holed": (
        "c7dea6781375b78131f9bd7c4bbbb28ff5b63fb52bbd2fb61c10a740a3e36676",
        "dec979edd8977b25aa85c51cc21047f2acc470aaa1f76a4f5b34ff127aebcb29",
    ),
    "merged": (
        "0b785fbcc6acec43a97f167c0308b99463112e51edd63c0742d7bc16aaf2a52c",
        "fcbcf46d0f8bfd20d7759c6c7e7cf9c9897db7f163d47d317008bec568b7989e",
    ),
}


def test_quad_builds_one_rule_per_group(monkeypatch, capsys):
    # 1,024 distortedQuads elements are four groups of localmat.GROUP_CAP
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return polygon_rule(*args, **kwargs)

    monkeypatch.setattr(cli, "polygon_rule", counted)
    assert cli.main(["quad", "--gen", "distortedQuads:32", "--degree", "4"]) == 0
    assert len(calls) == 4
    assert capsys.readouterr().out.count("PASS") == 1024 + 1


@pytest.mark.parametrize("case", sorted(QUAD_SHA256))
def test_quad_outputs_match_golden_bytes(case, tmp_path, capsys):
    source = {
        "distortedQuads": lambda: ["--gen", "distortedQuads:4"],
        "holed": lambda: ["--mesh", holed_file(tmp_path)],
        "merged": lambda: ["--mesh", merged_file(tmp_path)],
    }[case]()
    stdout, table = hashlib.sha256(), hashlib.sha256()
    out = str(tmp_path / "rule.csv")
    for extra in [["--degree", str(d)] for d in range(7)] + [["--degree", "4", "--compress"]]:
        capsys.readouterr()
        assert cli.main(["quad", *source, *extra, "--out", out]) == 0
        stdout.update(capsys.readouterr().out.encode())
        with open(out, "rb") as fh:
            table.update(fh.read())
    assert (stdout.hexdigest(), table.hexdigest()) == QUAD_SHA256[case]


# -- VTK export ----------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vtk_output_parses_back(tmp_path, k):
    path = holed_file(tmp_path)
    vtk = str(tmp_path / "sol.vtk")
    rc = cli.main(["solve", "--mesh", path, "--degree", str(k),
                   "--problem", "polyK", "--out", vtk])
    assert rc == 0
    lines = open(vtk).read().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    npts = int(lines[4].split()[1])
    assert npts == 8
    at = 5 + npts
    ncells, total = (int(t) for t in lines[at].split()[1:])
    cells = []
    for ln in lines[at + 1 : at + 1 + ncells]:
        ids = [int(t) for t in ln.split()]
        assert ids[0] == len(ids) - 1
        assert all(0 <= i < npts for i in ids[1:])
        cells.append(ids)
    assert sum(len(c) for c in cells) == total
    at += 1 + ncells
    assert lines[at].split() == ["CELL_TYPES", str(ncells)]
    types = [int(t) for t in lines[at + 1 : at + 1 + ncells]]
    assert set(types) <= {5, 7}
    # one polygon cell (the hole filler), the rest triangles
    assert types.count(7) == 1
    body = "\n".join(lines[at + 1 + ncells :])
    assert "POINT_DATA %d" % npts in body
    assert "SCALARS u double 1" in body
    assert "CELL_DATA %d" % ncells in body
    at = lines.index("SCALARS element_id int 1") + 2
    parents = [int(t) for t in lines[at : at + ncells]]
    at = lines.index("proj_coeffs %d %d double" % (basis_size(k), ncells)) + 1
    rows = [[float(t) for t in ln.split()] for ln in lines[at : at + ncells]]
    # each row is its parent's projection of a library solve, bit for bit
    mesh = read_mesh(path)
    u, f, _ = cli.resolve_problem("polyK", k)
    sys_ = assemble(mesh, k, f)
    x, _ = solve(apply_dirichlet(sys_, u))
    for e, row in zip(parents, rows):
        PiS = find_or_compute(ElementMatrixCache(), Element(mesh.shapes.facet(e), k),
                              MatrixTag.PI_GRAD_STAR)
        assert row == (PiS @ x[sys_.dofmap.element_maps[e]]).tolist(), e


def test_vtk_point_data_matches_vertex_dofs(tmp_path):
    vtk = str(tmp_path / "sol.vtk")
    rc = cli.main(["solve", "--gen", "quads:2", "--degree", "1",
                   "--problem", "polyK", "--out", vtk])
    assert rc == 0
    lines = open(vtk).read().splitlines()
    i = lines.index("LOOKUP_TABLE default")
    vals = np.array([float(v) for v in lines[i + 1 : i + 10]])
    # u = 1 + x + y at the nine grid vertices of quads:2
    xs = np.array([0.0, 0.5, 1.0] * 3)
    ys = np.repeat([0.0, 0.5, 1.0], 3)
    assert np.allclose(vals, 1.0 + xs + ys, atol=1e-10)
