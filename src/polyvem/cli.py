"""Command-line driver: solve, convergence studies, mesh tooling, quadrature.

Exit codes: 0 success, 1 input error (bad flags, missing or malformed
files, invalid geometry), 2 numeric failure (solver did not converge).
All floating point output uses 17 significant digits so repeated runs are
byte-identical and the CSVs round-trip through float parsing.
"""

import argparse
import contextlib
import functools
import itertools
import runpy
import sys
from dataclasses import replace

import numpy as np

from .errors import PolyVemError
from .geometry import FacetTable, triangulate
from .localmat import MatrixTag, find_or_compute, group_facets
from .mesh import (
    CutLine,
    cut_mesh,
    gen_structured,
    merge_meshes,
    read_mesh,
    write_mesh,
)
from .monomials import basis_size
from .quadrature import certified, compress_rule, monomial_integrals, polygon_rule
from .system import apply_dirichlet, assemble, check_solve_args, discretisation, error_norms, solve

FMT = "%.17g"


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here
    # reserves 2 for numeric failures, so route usage problems to 1
    def error(self, message):
        raise CliInputError(message)


# -- problems ------------------------------------------------------------


def _sinsin():
    def u(x, y):
        return np.sin(np.pi * x) * np.sin(np.pi * y)

    def f(x, y):
        return 2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    def grad(x, y):
        return (
            np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
        )

    return u, f, grad


def _polyk(k):
    # the complete degree-k polynomial with unit coefficients; its
    # negative Laplacian is assembled term by term
    terms = [(a, d - a) for d in range(k + 1) for a in range(d + 1)]

    def u(x, y):
        return sum(x**a * y**b for a, b in terms)

    def f(x, y):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for a, b in terms:
            if a >= 2:
                out -= a * (a - 1) * x ** (a - 2) * y**b
            if b >= 2:
                out -= b * (b - 1) * x**a * y ** (b - 2)
        return out

    def grad(x, y):
        gx = np.zeros_like(np.asarray(x, dtype=float))
        gy = np.zeros_like(gx)
        for a, b in terms:
            if a >= 1:
                gx += a * x ** (a - 1) * y**b
            if b >= 1:
                gy += b * x**a * y ** (b - 1)
        return gx, gy

    return u, f, grad


def resolve_problem(name, degree):
    """Problem preset: exact solution, source and gradient callables."""
    if name == "sinsin":
        return _sinsin()
    if name == "polyK":
        return _polyk(degree)
    if name.startswith("custom:"):
        path = name.split(":", 1)[1]
        try:
            ns = runpy.run_path(path)
        except FileNotFoundError:
            raise CliInputError("problem file not found: %s" % path)
        missing = [key for key in ("u", "f", "grad") if key not in ns]
        if missing:
            raise CliInputError(
                "problem file %s must define %s" % (path, ", ".join(missing))
            )
        return ns["u"], ns["f"], ns["grad"]
    raise CliInputError("unknown problem %r" % name)


def _read(path):
    try:
        return read_mesh(path)
    except FileNotFoundError:
        raise CliInputError("mesh file not found: %s" % path)
    except OSError as err:  # a directory, say, or a file not readable
        raise CliInputError("cannot read mesh file %s: %s" % (path, err.strerror or err))
    except ValueError as err:  # a vertex table that is empty or not finite
        raise CliInputError("%s: %s" % (path, err))


@contextlib.contextmanager
def _writing(path):
    """An output path that cannot be written (its directory is missing,
    say) is an input error."""
    try:
        yield
    except OSError as err:
        raise CliInputError("cannot write %s: %s" % (path, err.strerror or err))


def _resolve_mesh(args):
    if getattr(args, "mesh", None):
        return _read(args.mesh)
    if getattr(args, "gen", None):
        return _parse_gen(args.gen)
    raise CliInputError("one of --mesh or --gen is required")


def _parse_gen(spec):
    try:
        family, n = spec.split(":")
        n = int(n)
    except ValueError:
        raise CliInputError("expected family:n, got %r" % spec)
    try:
        return gen_structured(family, n)
    except ValueError as err:
        raise CliInputError(str(err))


# -- output writers ------------------------------------------------------


def write_vtk(path, mesh, solution, coeffs):
    """Legacy ASCII VTK export of the solution and projection.

    Hole-free elements map to VTK_POLYGON cells, their outer loops read off
    the loop arrays; elements with holes are triangulated into VTK_TRIANGLE
    cells because the legacy format has no hole-capable planar cell.  Every
    cell carries its parent element id and that element's row of coeffs,
    the (elements, basis_size(k)) projection coefficients.  The text is
    formatted in bulk, as `write_mesh` formats the poly2d file.
    """
    t = mesh.shapes
    ls, fl = t.loop_starts, t.facet_loops
    loop_sizes = np.diff(ls)
    # (vertex ids, sizes, VTK types, parents) of the cells: the runs of
    # hole-free elements between holed ones, one loop each, as slices
    cells, done = [], 0
    for e in np.flatnonzero(np.diff(fl) > 1).tolist() + [len(t)]:
        run = (t.loop_ids[ls[fl[done]]:ls[fl[e]]], loop_sizes[fl[done]:fl[e]])
        cells.append(run + (np.full(e - done, 7), np.arange(done, e)))
        if e < len(t):
            tris = triangulate(t.facet(e))  # ids of the mesh vertex pool
            cells.append((tris.ravel(), np.full(len(tris), 3), np.full(len(tris), 5),
                          np.full(len(tris), e)))
        done = e + 1
    ids, sizes, types, parents = map(np.concatenate, zip(*cells))
    ncells = len(sizes)
    numbers = np.insert(ids, np.cumsum(sizes) - sizes, sizes)  # a line per cell: size, ids
    formats = {s: "%d" + " %d" * s + "\n" for s in np.unique(sizes).tolist()}
    ncomp = coeffs.shape[1]
    nv = mesh.num_vertices
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("polyvem solution\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write("POINTS %d double\n" % nv)
        fh.write(((FMT + " " + FMT + " 0\n") * nv) % tuple(mesh.vertices.ravel().tolist()))
        fh.write("CELLS %d %d\n" % (ncells, len(numbers)))
        fh.write("".join(map(formats.__getitem__, sizes.tolist())) % tuple(numbers.tolist()))
        fh.write("CELL_TYPES %d\n" % ncells)
        fh.write(("%d\n" * ncells) % tuple(types.tolist()))
        fh.write("POINT_DATA %d\n" % nv)
        fh.write("SCALARS u double 1\nLOOKUP_TABLE default\n")
        fh.write(((FMT + "\n") * nv) % tuple(solution[:nv].tolist()))
        fh.write("CELL_DATA %d\n" % ncells)
        fh.write("SCALARS element_id int 1\nLOOKUP_TABLE default\n")
        fh.write(("%d\n" * ncells) % tuple(parents.tolist()))
        fh.write("FIELD projection 1\n")
        fh.write("proj_coeffs %d %d double\n" % (ncomp, ncells))
        row = " ".join([FMT] * ncomp) + "\n"
        fh.write((row * ncells) % tuple(coeffs[parents].ravel().tolist()))


def _write_errors_csv(path, h, ndof, el2, eh1):
    with open(path, "w") as fh:
        fh.write("h,nDof,errL2,errH1\n")
        fh.write((FMT + ",%d," + FMT + "," + FMT + "\n") % (h, ndof, el2, eh1))


def _failure(report):
    return "%d iterations, residual %.3e, floor %.3e (%s)" % (
        report.iterations, report.residual, report.floor, report.reason)


def _dump_matrices(prefix, eid, facet, k):
    # the element computed alone, as the group of a one-row table: assembly
    # keeps only some of the mesh groups' matrices, and a lone element has
    # the bits of a group member
    path = "%s_element%d.csv" % (prefix, eid)
    group = group_facets(FacetTable.from_facets([facet]), k)[0][1]
    with open(path, "w") as fh:
        for tag in MatrixTag:
            M = np.atleast_2d(find_or_compute(group.cache, group, tag)[0])
            fh.write("tag,%s\n" % tag.name)
            for row in M:
                fh.write(",".join(FMT % v for v in row) + "\n")
    return path


def _check_solver_flags(args):
    """Refuse an order, tolerance, iteration cap or level count out of
    range before anything is assembled."""
    for name in ("degree", "levels"):
        if getattr(args, name, 1) < 1:
            raise CliInputError("%s must be >= 1, got %d" % (name, getattr(args, name)))
    try:
        check_solve_args(args.tol, getattr(args, "maxiter", None))
    except ValueError as err:
        raise CliInputError(str(err))


# -- commands ------------------------------------------------------------


def cmd_solve(args):
    _check_solver_flags(args)
    mesh = _resolve_mesh(args)
    k, eid = args.degree, args.dump_matrices
    if eid is not None and not 0 <= eid < mesh.num_elements:
        raise CliInputError("element id %d out of range" % eid)
    u, f, grad = resolve_problem(args.problem, k)
    sys_ = assemble(mesh, k, f)
    apply_dirichlet(sys_, u)
    x, report = solve(sys_, tol=args.tol, maxiter=args.maxiter)
    if not report.converged:
        print("solver failed: %s" % _failure(report), file=sys.stderr)
        return 2
    el2, eh1 = error_norms(mesh, k, x, u, grad)
    h = float(mesh.shapes.diameters.max())
    print(
        "solved: nDof=%d iters=%d residual=%.3e errL2=%.6e errH1=%.6e"
        % (sys_.num_dofs, report.iterations, report.residual, el2, eh1)
    )
    if args.out:
        coeffs = np.empty((mesh.num_elements, basis_size(k)))
        for ids, group in discretisation(mesh, k)[1]:
            PiS = find_or_compute(group.cache, group, MatrixTag.PI_GRAD_STAR)
            coeffs[ids] = (PiS @ x[sys_.dofmap.maps(ids)][..., None])[..., 0]
        with _writing(args.out):
            write_vtk(args.out, mesh, x, coeffs)
    if args.errors:
        with _writing(args.errors):
            _write_errors_csv(args.errors, h, sys_.num_dofs, el2, eh1)
    if eid is not None:
        path = _dump_matrices("matrices", eid, mesh.shapes.facet(eid), k)
        print("matrices written to %s" % path)
    return 0


def cmd_convergence(args):
    _check_solver_flags(args)
    u, f, grad = resolve_problem(args.problem, args.degree)
    rows = []
    for level in range(args.levels):
        n = 4 * 2**level
        mesh = gen_structured(args.family, n)
        sys_ = assemble(mesh, args.degree, f)
        apply_dirichlet(sys_, u)
        x, report = solve(sys_, tol=args.tol)
        if not report.converged:
            print("solver failed on level %d: %s" % (level, _failure(report)), file=sys.stderr)
            return 2
        el2, eh1 = error_norms(mesh, args.degree, x, u, grad)
        h = float(mesh.shapes.diameters.max())
        if rows:
            _, hp, _, l2p, h1p, _, _ = rows[-1]
            rl2 = np.log(l2p / el2) / np.log(hp / h)
            rh1 = np.log(h1p / eh1) / np.log(hp / h)
        else:
            rl2 = rh1 = None
        rows.append((level, h, sys_.num_dofs, el2, eh1, rl2, rh1))
    for level, h, nd, el2, eh1, rl2, rh1 in rows:
        rate = "" if rl2 is None else " rateL2=%.2f rateH1=%.2f" % (rl2, rh1)
        print("level %d: h=%.4e nDof=%d errL2=%.6e errH1=%.6e%s"
              % (level, h, nd, el2, eh1, rate))
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write("level,h,nDof,errL2,errH1,rateL2,rateH1\n")
            for level, h, nd, el2, eh1, rl2, rh1 in rows:
                cells = [str(level), FMT % h, str(nd), FMT % el2, FMT % eh1]
                cells.append("" if rl2 is None else FMT % rl2)
                cells.append("" if rh1 is None else FMT % rh1)
                fh.write(",".join(cells) + "\n")
    return 0


def cmd_mesh(args):
    if args.mesh_cmd == "gen":
        mesh = _parse_gen(args.spec)
        with _writing(args.out):
            write_mesh(mesh, args.out)
        print("wrote %s: %d vertices, %d elements"
              % (args.out, mesh.num_vertices, mesh.num_elements))
        return 0
    if args.mesh_cmd == "cut":
        mesh = _read(args.path)
        try:
            a, b, c = (float(p) for p in args.line.split(","))
            line = CutLine(a, b, c)
        except ValueError as err:  # not three numbers, or not finite ones
            raise CliInputError("expected --line a,b,c with finite numbers: %s" % err)
        out = cut_mesh(mesh, line)
        dest = args.out or args.path
        with _writing(dest):
            write_mesh(out, dest)
        print("wrote %s: %d elements, area " % (dest, out.num_elements)
              + FMT % out.area)
        return 0
    if args.mesh_cmd == "merge":
        a = _read(args.first)
        b = _read(args.second)
        try:
            merged = merge_meshes(a, b, tol=args.merge_tol)
        except ValueError as err:  # a tolerance that is not finite or below 0
            raise CliInputError(str(err))
        dest = args.out or args.first
        with _writing(dest):
            write_mesh(merged, dest)
        print("wrote %s: %d elements, area " % (dest, merged.num_elements)
              + FMT % merged.area)
        return 0
    if args.mesh_cmd == "info":
        mesh = _read(args.path)
        print("vertices: %d" % mesh.num_vertices)
        print("elements: %d" % mesh.num_elements)
        print("edges: %d (%d boundary)"
              % (mesh.num_edges, len(mesh.boundary_edge_ids)))
        print("area: " + FMT % mesh.area)
        print("conforming: yes")
        return 0
    raise CliInputError("unknown mesh subcommand")


def cmd_quad(args):
    """Every element's polygon rule, compressed if asked, certified against
    its monomials' boundary integrals, a `group_facets` group at a time;
    lines in element order, up to one whose rule fails, then its error."""
    mesh = _resolve_mesh(args)
    if args.degree < 0:
        raise CliInputError("degree must be >= 0")
    table, degree, done = mesh.shapes, args.degree, {}  # done[e]: (before, rule, verdict)
    try:
        for ids, group in group_facets(table, 1):
            stacked = polygon_rule(group.corners(), degree)
            ends = group.vertices[:, group.chains[:, -1]]
            exact = monomial_integrals(group.vertices, ends, group.frame, degree)
            for i, e in enumerate(ids.tolist()):
                rule = replace(stacked, points=stacked.points[i], weights=stacked.weights[i])
                before, verdict = rule.npoints, "PASS"
                if args.compress:
                    rule = compress_rule(rule, frame=(table.centroids[e], table.diameters[e]))
                    if rule.compression_failed:
                        verdict = "FAIL(compression)"
                frame = [c[i, 0] for c in group.frame]
                ok, worst = certified(rule, exact[i], frame, table.areas[e], degree)
                done[e] = before, rule, verdict if ok else "FAIL(exactness %.2e)" % worst
    finally:
        for e in itertools.takewhile(done.__contains__, range(len(table))):
            before, rule, verdict = done[e]
            print("element %d: before=%d after=%d %s" % (e, before, rule.npoints, verdict))
    results = [done[e] for e in range(len(table))]
    print("total: before=%d after=%d budget-per-element=%d verdict=%s" % (
        sum(r[0] for r in results), sum(r[1].npoints for r in results), basis_size(degree),
        "PASS" if all(r[2] == "PASS" for r in results) else "FAIL"))
    if args.out:
        with _writing(args.out), open(args.out, "w") as fh:
            fh.write("element,x,y,w\n")
            for e, (_, rule, _) in enumerate(results):
                for (x, y), w in zip(rule.points.tolist(), rule.weights.tolist()):
                    fh.write(("%d," + FMT + "," + FMT + "," + FMT + "\n") % (e, x, y, w))
    return 0


# -- parser --------------------------------------------------------------


def _add_mesh_source(p):
    p.add_argument("--mesh", help="poly2d mesh file")
    p.add_argument("--gen", help="structured mesh family:n, e.g. quads:8")


@functools.cache  # parsing keeps no state in the parser: build it once
def build_parser():
    parser = _Parser(prog="polyvem", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a Poisson problem")
    _add_mesh_source(p)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--problem", default="sinsin",
                   help="sinsin, polyK or custom:<file.py>")
    p.add_argument("--out", help="VTK output path")
    p.add_argument("--errors", help="error CSV path")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--maxiter", type=int, default=None,
                   help="iteration cap (default: ten times the system size)")
    p.add_argument("--dump-matrices", type=int, metavar="ELEMENT",
                   help="write the cached matrices of one element as CSV")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("convergence", help="refinement study")
    p.add_argument("--family", default="quads",
                   choices=["quads", "triangles", "distortedQuads"])
    p.add_argument("--levels", type=int, default=4)
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--problem", default="sinsin")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("mesh", help="mesh generation and surgery")
    msub = p.add_subparsers(dest="mesh_cmd", required=True)
    g = msub.add_parser("gen")
    g.add_argument("spec", help="family:n")
    g.add_argument("-o", "--out", required=True)
    c = msub.add_parser("cut")
    c.add_argument("path")
    c.add_argument("--line", required=True, help="a,b,c for the line ax+by=c")
    c.add_argument("-o", "--out", help="output path (default: in place)")
    m = msub.add_parser("merge")
    m.add_argument("first")
    m.add_argument("second")
    m.add_argument("--merge-tol", type=float, default=None)
    m.add_argument("-o", "--out", help="output path (default: first input)")
    i = msub.add_parser("info")
    i.add_argument("path")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("quad", help="quadrature tables per element")
    _add_mesh_source(p)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--compress", action="store_true")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(func=cmd_quad)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliInputError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1
    except PolyVemError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
