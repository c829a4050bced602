"""The three workloads, driven through the public API of polyvem.

A workload is set up from its seed, then runs rounds.  `begin_round`
draws the round's inputs, if they change between rounds, from the
generator that set-up seeded; a round is then the list of operations
that `operations` returns.  Each operation is timed on its own and its
output is checked right after, outside the timed span.  `check` returns
whether the operation failed (the program's fault, counted in `failed`)
and a list of problems (wrong output, which makes the run incorrect).
`end_round` returns the problems of checks that span the whole round.

The program's functions are always reached through their module
(`system.solve`, never a local alias), so the tracing wrappers that
replace module attributes see every call.
"""

import contextlib
import io
import math

import numpy as np

from polyvem import cli, mesh, system

import checks

SOLVE_TOL = 1e-12


def _rng(seed, name):
    return np.random.default_rng([seed, sum(map(ord, name))])


# -- refine_distorted ----------------------------------------------------


def solve_failure(sys_, x, report):
    """Why a solve failed, or None: the true residual must meet SOLVE_TOL."""
    residual = checks.true_residual(sys_.A, sys_.b, x, sys_.constrained_ids)
    if not report.converged or residual > SOLVE_TOL:
        return "true residual %.3e, tol %.0e (reported %.3e, converged=%s)" % (
            residual, SOLVE_TOL, report.residual, report.converged)
    return None


class RefineDistorted:
    """Refinement study on distortedQuads, k = 1..3, n = 4..32.

    Each operation is one level: gen_structured, assemble with the sine
    load, apply_dirichlet, solve and error_norms, on a fresh mesh and
    system.  The seed shuffles the order of the levels within a round;
    the problem itself does not depend on the seed.
    """

    name = "refine_distorted"
    DEGREES = (1, 2, 3)
    DIVISIONS = (4, 8, 16, 32)

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.u, self.f, self.grad = cli.resolve_problem("sinsin", 1)
        levels = [(k, n) for k in self.DEGREES for n in self.DIVISIONS]
        order = _rng(self.seed, self.name).permutation(len(levels))
        self.levels = [levels[i] for i in order]

    def operations(self):
        return [("k=%d n=%d" % kn, self._level(*kn)) for kn in self.levels]

    def _level(self, k, n):
        def run():
            m = mesh.gen_structured("distortedQuads", n)
            sys_ = system.assemble(m, k, self.f)
            system.apply_dirichlet(sys_, self.u)
            x, report = system.solve(sys_, tol=SOLVE_TOL)
            errors = system.error_norms(m, k, x, self.u, self.grad)
            return k, n, sys_, x, report, errors
        return run

    def begin_round(self):
        self.errors = {k: [] for k in self.DEGREES}

    def check(self, label, out):
        k, n, sys_, x, report, (el2, eh1) = out
        self.errors[k].append((n, el2, eh1))
        problems = []
        if not (math.isfinite(el2) and math.isfinite(eh1) and el2 > 0 and eh1 > 0):
            problems.append("%s: error norms %r, %r" % (label, el2, eh1))
        failure = solve_failure(sys_, x, report)
        return failure, problems

    def end_round(self):
        problems = []
        for k, levels in self.errors.items():
            problems += checks.check_rates(k, sorted(levels))
        return problems


# -- laplace_sweep -------------------------------------------------------


def harmonic_catalogue():
    """64 harmonic functions on the unit square, each scaled to |u| <= 1.

    Entries are (name, u, degree, m4): degree is the polynomial degree or
    None, m4 bounds every fourth derivative of u on the square (through the
    fourth complex derivative of the analytic function whose real part u
    is).
    """
    centre = 0.5 + 0.5j
    corners = np.array([0, 1, 1j, 1 + 1j])
    out = []
    for j in range(4):
        z0 = centre + 1.2 * np.exp(1j * (math.pi / 4 + j * math.pi / 2))
        far = float(np.max(np.abs(corners - z0)))
        for m in range(1, 9):
            def u(x, y, z0=z0, m=m, far=far):
                return np.real(((x + 1j * y - z0) / far) ** m)
            m4 = math.perm(m, 4) / far**4 if m >= 4 else 0.0
            out.append(("Re(((z-z0_%d)/R)^%d)" % (j, m), u, m, m4))
    radius = float(np.max(np.abs(corners - centre)))
    for j in range(4):
        rot = np.exp(1j * j * math.pi / 3)
        for i in range(8):
            a = 1.0 + 0.5 * i

            def u(x, y, a=a, rot=rot):
                return np.real(np.exp(a * rot * (x + 1j * y - centre) - a * radius))
            out.append(("Re(exp(%.1f*rot_%d*(z-c)))" % (a, j), u, None, a**4))
    return out


class LaplaceSweep:
    """Repeated Dirichlet solves on one assembled k = 3, n = 32 operator.

    Set-up builds the distortedQuads mesh and assembles the operator once
    without a load.  Each round solves for sixteen harmonic data sets
    drawn afresh from a fixed catalogue by the seeded generator: four
    polynomials of degree <= 3 (which the method reproduces exactly), six
    of degree 4..8 and six rotated exponentials.  Each operation is
    apply_dirichlet plus solve.
    """

    name = "laplace_sweep"
    K = 3
    N = 32
    PATCH_TOL = 1e-9
    # nodal error bound C h^(k+1) max|D^(k+1) u|, C measured over the whole
    # catalogue with headroom; see README.md
    RATE_CONSTANT = 1e-2

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.system = None  # a repeated set-up must not hold two operators
        self.catalogue = harmonic_catalogue()
        degrees = [c[2] for c in self.catalogue]
        self.groups = [
            ([i for i, d in enumerate(degrees) if d is not None and d <= self.K], 4),
            ([i for i, d in enumerate(degrees) if d is not None and d > self.K], 6),
            ([i for i, d in enumerate(degrees) if d is None], 6),
        ]
        self.rng = _rng(self.seed, self.name)
        self.system = system.assemble(mesh.gen_structured("distortedQuads", self.N), self.K)

    def operations(self):
        return [(name, self._solve(u)) for name, (u, _, _) in self.data.items()]

    def _solve(self, u):
        def run():
            system.apply_dirichlet(self.system, u)
            return system.solve(self.system, tol=SOLVE_TOL)
        return run

    def begin_round(self):
        picks = [self.rng.choice(ids, count, replace=False) for ids, count in self.groups]
        self.data = {self.catalogue[i][0]: self.catalogue[i][1:] for i in np.concatenate(picks)}

    def check(self, label, out):
        x, report = out
        failure = solve_failure(self.system, x, report)
        u, degree, m4 = self.data[label]
        v = self.system.mesh.vertices
        err = float(np.max(np.abs(x[: len(v)] - u(v[:, 0], v[:, 1]))))
        if degree is not None and degree <= self.K:
            limit = self.PATCH_TOL
        else:
            limit = self.RATE_CONSTANT * (1.0 / self.N) ** (self.K + 1) * m4
        problems = []
        if not err <= limit:
            problems.append("%s: nodal error %.3e above %.3e" % (label, err, limit))
        return failure, problems

    def end_round(self):
        return []


# -- mesh_surgery --------------------------------------------------------


def _line_through(theta, point):
    a, b = math.cos(theta), math.sin(theta)
    return a, b, a * point[0] + b * point[1]


def _point_segment_distance(p, a, b):
    e = b - a
    t = np.clip(((p - a) * e).sum(axis=1) / (e * e).sum(axis=1), 0.0, 1.0)
    return np.hypot(*(a + t[:, None] * e - p).T)


def _clear_of(line, lines, verts, seg_a, seg_b, clearance):
    if np.min(np.abs(verts @ line[:2] - line[2])) < clearance:
        return False
    for other in lines:
        if abs(line[0] * other[1] - line[1] * other[0]) < math.sin(math.radians(10)):
            return False
        p = np.linalg.solve([line[:2], other[:2]], [line[2], other[2]])
        if np.min(_point_segment_distance(p, seg_a, seg_b)) < clearance:
            return False
        if any(abs(p @ third[:2] - third[2]) < clearance
               for third in lines if third is not other):
            return False
    return True


def choose_cut_lines(rng, verts, seg_a, seg_b, count=3, clearance=1e-4):
    """Lines a x + b y = c through the middle of the square.

    Lines keep `clearance` from every vertex, pairwise meet at an angle of
    at least 10 degrees, and meet away from every segment seg_a -> seg_b
    and from the third line, so no cut of the chain snaps to a vertex or
    slides along an edge.
    """
    lines = []
    while len(lines) < count:
        theta = rng.uniform(0.0, math.pi)
        line = _line_through(theta, rng.uniform(0.2, 0.8, size=2))
        if _clear_of(line, lines, verts, seg_a, seg_b, clearance):
            lines.append(line)
    return lines


# side of the unit square -> (x0, x1, y0, y1) of the neighbour at depth d,
# and the glue segment
SIDES = {
    "right": (lambda d: (1.0, 1.0 + d, 0.0, 1.0), ((1.0, 0.0), (1.0, 1.0))),
    "top": (lambda d: (0.0, 1.0, 1.0, 1.0 + d), ((0.0, 1.0), (1.0, 1.0))),
    "left": (lambda d: (-d, 0.0, 0.0, 1.0), ((0.0, 0.0), (0.0, 1.0))),
    "bottom": (lambda d: (0.0, 1.0, -d, 0.0), ((0.0, 0.0), (1.0, 0.0))),
}


def write_neighbour(path, side, depth, jitter_rng, cells=10):
    """cells x cells quads on the rectangle beyond one side of the unit
    square, interior vertices jittered by up to 0.15 of a cell.  Returns
    the glue segment."""
    rectangle, glue = SIDES[side]
    x0, x1, y0, y1 = rectangle(depth)
    X, Y = np.meshgrid(np.linspace(x0, x1, cells + 1), np.linspace(y0, y1, cells + 1))
    verts = np.column_stack([X.ravel(), Y.ravel()])
    interior = np.zeros((cells + 1, cells + 1), dtype=bool)
    interior[1:-1, 1:-1] = True
    interior = interior.ravel()
    step = np.array([(x1 - x0) / cells, (y1 - y0) / cells])
    verts[interior] += jitter_rng.uniform(-0.15, 0.15, size=(interior.sum(), 2)) * step
    corners = [j * (cells + 1) + i for j in range(cells) for i in range(cells)]
    checks.write_poly2d(path, verts, [[[v, v + 1, v + cells + 2, v + cells + 1]] for v in corners])
    return glue


class MeshSurgery:
    """The README's mesh tooling through in-process `polyvem mesh` calls.

    Set-up writes a 32x32 and a 16x16 distortedQuads mesh with `mesh gen`.
    Each round writes a jittered 10x10 quads neighbour beyond one side of
    the square, cuts the 32x32 mesh three times in a chain, merges the
    16x16 mesh with the neighbour (hanging nodes on both sides of the glue
    line), and runs `mesh info` on the merged and the last cut mesh.  The
    seed picks the neighbour's side and depth; the seeded generator draws
    the cut lines and the jitter afresh each round.
    """

    name = "mesh_surgery"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = workdir

    def _path(self, name):
        return self.dir / name

    def _cli(self, *argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
            return code, out.getvalue() + err.getvalue()
        return run

    def setup(self):
        for spec, name in (("distortedQuads:32", "base"), ("distortedQuads:16", "left")):
            code, text = self._cli("mesh", "gen", spec, "-o", self._path(name + ".poly2d"))()
            if code != 0:
                raise RuntimeError("mesh gen %s failed: %s" % (spec, text))
        self.rng = _rng(self.seed, self.name)
        self.side = sorted(SIDES)[self.rng.integers(len(SIDES))]
        self.depth = self.rng.uniform(0.5, 1.0)
        self.base = checks.read_poly2d(self._path("base.poly2d"))
        self.base_area = checks.total_area(*self.base)
        verts, elements = self.base
        segs = np.array([(u, v) for _, u, v in checks.directed_segments(elements)])
        self.segments = verts[segs[:, 0]], verts[segs[:, 1]]

    def operations(self):
        p = self._path
        ops = []
        source = p("base.poly2d")
        for i, (a, b, c) in enumerate(self.lines):
            dest = p("cut%d.poly2d" % (i + 1))
            line = "--line=%.17g,%.17g,%.17g" % (a, b, c)
            ops.append(("cut%d" % (i + 1), self._cli("mesh", "cut", source, line, "-o", dest)))
            source = dest
        ops.append(("merge", self._cli("mesh", "merge", p("left.poly2d"), p("neighbour.poly2d"),
                                       "-o", p("merged.poly2d"))))
        ops.append(("info merged", self._cli("mesh", "info", p("merged.poly2d"))))
        ops.append(("info cut", self._cli("mesh", "info", source)))
        return ops

    def begin_round(self):
        self.lines = choose_cut_lines(self.rng, self.base[0], *self.segments)
        self.glue = write_neighbour(self._path("neighbour.poly2d"), self.side, self.depth,
                                    self.rng)
        self.restart_checks()

    def restart_checks(self):
        self.current = self.base
        self.meshes = {}

    def check(self, label, out):
        code, text = out
        if code != 0:
            return "exit code %d: %s" % (code, text.strip()), []
        if label.startswith("cut"):
            i = int(label[3:])
            verts, elements = self.current
            expected = len(elements) + checks.crossed_elements(verts, elements, self.lines[i - 1])
            problems, self.current = checks.check_mesh_file(
                self._path("%s.poly2d" % label), self.base_area, expected)
            self.meshes["cut"] = self.current
            return None, problems
        if label == "merge":
            left = checks.read_poly2d(self._path("left.poly2d"))
            right = checks.read_poly2d(self._path("neighbour.poly2d"))
            area = checks.total_area(*left) + checks.total_area(*right)
            problems, merged = checks.check_mesh_file(
                self._path("merged.poly2d"), area, len(left[1]) + len(right[1]))
            problems += checks.check_glue(*merged, self.glue)
            self.meshes["merged"] = merged
            return None, problems
        verts, elements = self.meshes[label.split()[1]]
        return None, check_info(label, text, verts, elements)

    def end_round(self):
        return []


def check_info(label, text, verts, elements):
    """`mesh info` output against the benchmark's own reading of the file."""
    fields = dict(line.split(": ", 1) for line in text.strip().splitlines())
    problems = []
    if int(fields.get("vertices", -1)) != len(verts):
        problems.append("%s: vertices %s, expected %d" % (label, fields.get("vertices"), len(verts)))
    if int(fields.get("elements", -1)) != len(elements):
        problems.append("%s: elements %s, expected %d" % (label, fields.get("elements"), len(elements)))
    area = checks.total_area(verts, elements)
    if abs(float(fields.get("area", "nan")) - area) > 1e-12 * area:
        problems.append("%s: area %s, expected %.17g" % (label, fields.get("area"), area))
    return problems


WORKLOADS = {w.name: w for w in (RefineDistorted, LaplaceSweep, MeshSurgery)}
