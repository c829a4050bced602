"""poly2d reading, writing and cutting on the loop arrays.

`read_mesh` converts a file in bulk; `read_mesh_by_lines` in conftest.py is
the line-by-line reader it replaced.  On valid files and on files with one
mutation the two must raise the same error or build the same mesh.
`write_mesh` formats the integer lines digit column by digit column;
`write_mesh_by_format` in conftest.py is the format-string writer it
replaced, and the two must write the same bytes.  The read, write and cut
paths must not need `PolyMesh.elements`.
"""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyvem import cli
from polyvem.mesh import PolyMesh, cut_mesh, gen_structured, merge_meshes, read_mesh, write_mesh

from conftest import read_mesh_by_lines, write_mesh_by_format
from test_arrays import meshes, quads_on, ring_mesh

SRC = Path(__file__).resolve().parent.parent / "src"


def outcome(read, path):
    """(vertices, elements) or the error's (type, message), with the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            m = read(path)
            result = (m.vertices, m.elements)
        except Exception as err:
            result = (type(err), str(err))
    return result, [(w.category, str(w.message)) for w in caught]


def assert_same_outcome(path):
    (got, got_warned), (want, want_warned) = outcome(read_mesh, path), outcome(
        read_mesh_by_lines, path)
    assert got_warned == want_warned
    if isinstance(want[0], np.ndarray):
        assert isinstance(got[0], np.ndarray)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    else:
        assert got == want


def base_files():
    """poly2d texts of a distortedQuads, a cut, a merged and a holed mesh."""
    rng = np.random.default_rng(7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cut = cut_mesh(gen_structured("distortedQuads", 3), (1.0, 0.4, 0.55))
    merged = merge_meshes(gen_structured("distortedQuads", 2), quads_on(1.0, 1.5, 0.0, 1.0, 3, rng))
    return [gen_structured("distortedQuads", 2), cut, merged, ring_mesh(rng)]


BASES = []


def count_lines(lines):
    """Indices of the lines of a clean file that hold a count: the vertex
    and element counts, each element's loop count and every loop line,
    whose first token announces its size."""
    nv = int(lines[1])
    at = [1, 2 + nv]
    pos = 3 + nv
    while pos < len(lines):
        k = int(lines[pos])
        at += range(pos, pos + k + 1)
        pos += k + 1
    return at


def base_lines(i, tmp_path):
    if not BASES:
        for m in base_files():
            path = tmp_path / "base.poly2d"
            write_mesh(m, path)
            lines = path.read_text().split("\n")[:-1]
            BASES.append((m.num_vertices, lines, count_lines(lines)))
    return BASES[i]


@st.composite
def mutations(draw, nv, lines, counts):
    """One change to the lines of a valid file: a token replaced, a count
    changed, a line dropped, duplicated or truncated, trailing content, a
    comment or a blank line, or the line endings made \\r\\n."""
    lines = list(lines)
    kind = draw(st.sampled_from(["token", "count", "drop", "duplicate", "truncate",
                                 "trailing", "comment", "blank", "crlf", "none"]))
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "count":
        i = draw(st.sampled_from(counts))
        parts = lines[i].split()
        parts[0] = str(int(parts[0]) + draw(st.sampled_from([-3, -2, -1, 1, 2, 3])))
        lines[i] = " ".join(parts)
    elif kind == "token":
        parts = lines[i].split()
        j = draw(st.integers(0, len(parts) - 1))
        parts[j] = draw(st.sampled_from([
            "x", "1.5", "-1", "0", "2", "5", str(nv), str(nv + 3), "1e2", "+3", " 4 ",
            "٣", "1_0", "nan", str(int(parts[j]) + 1) if parts[j].isdigit() else "7",
            str(int(parts[j]) - 1) if parts[j].isdigit() else "-7",
            "99999999999999999999999", "-99999999999999999999999",
            # where C number parsers and Python's int and float disagree
            "0x10", "010", "1e400", "-0", "infinity", "0_1", "\u0660",
            "9223372036854775807", "9223372036854775808",
            "1\xa02", "1\x0c2", "1\x1c2", "1\x852",
        ]))
        lines[i] = " ".join(parts)
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    elif kind == "trailing":
        lines.append(draw(st.sampled_from(["0", "x", "1\n4 0 1 2 3", "   "])))
    elif kind == "comment":
        text = draw(st.sampled_from(["# note", "#", "  # 1 2 3"]))
        if draw(st.booleans()):
            lines.insert(i, text)
        else:
            lines[i] += text
    elif kind == "blank":
        lines.insert(i, draw(st.sampled_from(["", "  ", "\t"])))
    return "\r\n".join(lines) + "\r\n" if kind == "crlf" else "\n".join(lines) + "\n"


@given(data=st.data(), base=st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_array_reader_equals_line_reader(tmp_path_factory, data, base):
    tmp_path = tmp_path_factory.getbasetemp()
    nv, lines, counts = base_lines(base, tmp_path)
    path = tmp_path / "mutated.poly2d"
    path.write_bytes(data.draw(mutations(nv, lines, counts)).encode())
    assert_same_outcome(path)


@pytest.mark.parametrize("text", [
    "",
    "# only a comment\n\n",
    "poly2d 1\n",
    "poly2d 1\n-1\n",
    "poly2d 1\n0\n0\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n-2\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n1\n1\n0\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n1\n2\n3 0 1 2\n0\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n2\n1\n3 0 1 2\n2\n0\n3 0 1 2\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n1\n3\n3 0 1 2\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n1\n0\n3 0 1 2\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n1\n1\n3 0 2 1\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n1\n1\n99999999999999999999 0 1 2\n",
    "poly2d 1\n3\n0 0 x\n1 0\n0 y\n1\n1\n3 0 1 2\n",
    "poly2d 1\n3\n0 0\n1 0\n0 y\n1\n1\n3 0 1\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n2\n1\n3 0 1 x\n1\n3 0 1 9\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n2\n1\n3 0 1 9\n1\n3 0 1 x\n",
    "poly2d 1\n3\n0 0\n1 0\n0 1\n2\n1\n4 0 1 2\nz\n",
])
def test_edge_files_read_as_by_lines(tmp_path, text):
    path = tmp_path / "edge.poly2d"
    path.write_text(text)
    assert_same_outcome(path)


@given(mesh=meshes())
@settings(max_examples=25, deadline=None)
def test_written_file_reads_back_to_the_same_bytes(tmp_path_factory, mesh):
    tmp_path = tmp_path_factory.getbasetemp()
    first, second = tmp_path / "first.poly2d", tmp_path / "second.poly2d"
    write_mesh(mesh, first)
    write_mesh(read_mesh(first), second)
    assert second.read_bytes() == first.read_bytes()


FIXED = {}


def fixed_mesh(name):
    """The merged and the holed mesh of `base_files`, and a mesh with vertex
    ids of five digits, made once."""
    if not FIXED:
        FIXED["merged"], FIXED["holed"] = base_files()[2:]
        FIXED["distortedQuads:100"] = gen_structured("distortedQuads", 100)
    return FIXED[name]


@given(mesh=st.one_of(meshes(), st.sampled_from(["merged", "holed", "distortedQuads:100"])))
@example(mesh="merged")
@example(mesh="holed")
@example(mesh="distortedQuads:100")
@settings(max_examples=40, deadline=None)
def test_writer_bytes_equal_the_format_writer(tmp_path_factory, mesh):
    if isinstance(mesh, str):
        mesh = fixed_mesh(mesh)
    tmp_path = tmp_path_factory.getbasetemp()
    got, want = tmp_path / "got.poly2d", tmp_path / "want.poly2d"
    write_mesh(mesh, got)
    write_mesh_by_format(mesh, want)
    assert got.read_bytes() == want.read_bytes()


def test_holed_and_merged_files_read_back_to_the_same_bytes(tmp_path):
    for i, mesh in enumerate(base_files()):
        first, second = tmp_path / ("%d.poly2d" % i), tmp_path / ("%d-again.poly2d" % i)
        write_mesh(mesh, first)
        write_mesh(read_mesh(first), second)
        assert second.read_bytes() == first.read_bytes()


def test_read_write_and_cut_do_not_build_element_lists(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("PolyMesh.elements was built")

    monkeypatch.setattr(PolyMesh, "elements", property(refuse))
    path = str(tmp_path / "m.poly2d")
    assert cli.main(["mesh", "gen", "distortedQuads:6", "-o", path]) == 0
    assert cli.main(["mesh", "cut", path, "--line", "1,0.3,0.5512"]) == 0
    assert cli.main(["mesh", "cut", path, "--line=-0.2,1,0.4137"]) == 0
    assert cli.main(["mesh", "info", path]) == 0
    assert read_mesh(path).num_elements > 36
    assert "error" not in capsys.readouterr().err


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    mesh = str(tmp_path / "m.poly2d")
    calls = [
        ["mesh", "gen", "quads:3", "-o", mesh],
        ["mesh", "info", mesh],
        ["mesh", "cut", mesh, "--line", "1,0.2,0.5", "-o", str(tmp_path / "cut.poly2d")],
        ["solve", "--gen", "quads:2", "--degree", "2"],
        ["solve", "--gen", "quads:2"],
        ["mesh", "info"],
        ["quad", "--gen", "quads:1", "--degree", "1"],
    ]
    in_process = []
    for argv in calls:
        code = cli.main(argv)
        out = capsys.readouterr()
        in_process.append((code, out.out, out.err))
    fresh = []
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from polyvem import cli; sys.exit(cli.main())"]
            + argv, capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
