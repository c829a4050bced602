"""Output checks that share no code with the program under test.

Everything here is recomputed from the raw outputs: the assembled CSR
arrays and the solution vector, the poly2d files the command line writes,
and the error norms of a refinement study.  Each check returns a list of
problem strings; an empty list means the output passed.
"""

import math

import numpy as np


# -- linear algebra ----------------------------------------------------------


def csr_product(indptr, indices, data, x):
    """y = A x for a CSR matrix, one row at a time in index order."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    return np.bincount(rows, weights=data * x[indices], minlength=len(indptr) - 1)


def true_residual(A, b, x, constrained):
    """Relative residual ||b - A x|| / ||b - A x_c|| over the free rows.

    x holds the full solution (boundary values included) and x_c is x with
    its free entries zeroed, so the denominator is the norm of the reduced
    right-hand side the solver was given.
    """
    free = np.ones(len(x), dtype=bool)
    free[constrained] = False
    x_c = np.where(free, 0.0, x)
    r = (b - csr_product(A.indptr, A.indices, A.data, x))[free]
    rhs = (b - csr_product(A.indptr, A.indices, A.data, x_c))[free]
    return float(np.sqrt(r @ r) / np.sqrt(rhs @ rhs))


def convergence_rates(levels):
    """Observed rates between the two finest levels.

    levels: list of (n, errL2, errH1) sorted by n; h is taken as 1/n.
    """
    (n1, l2a, h1a), (n2, l2b, h1b) = levels[-2], levels[-1]
    step = math.log(n2 / n1)
    return math.log(l2a / l2b) / step, math.log(h1a / h1b) / step


def check_rates(k, levels, band=0.2):
    """L2 rate k+1 and H1 rate k, each within the band."""
    rl2, rh1 = convergence_rates(levels)
    problems = []
    if abs(rl2 - (k + 1)) > band:
        problems.append("k=%d: L2 rate %.3f, expected %d" % (k, rl2, k + 1))
    if abs(rh1 - k) > band:
        problems.append("k=%d: H1 rate %.3f, expected %d" % (k, rh1, k))
    return problems


# -- poly2d meshes -----------------------------------------------------------


def read_poly2d(path):
    """Vertices (N, 2) and element loop lists of a poly2d file."""
    with open(path) as fh:
        lines = [t for t in (line.split("#", 1)[0].split() for line in fh) if t]
    if lines[0] != ["poly2d", "1"]:
        raise ValueError("%s: not a poly2d file" % path)
    nv = int(lines[1][0])
    verts = np.array([[float(a), float(b)] for a, b in lines[2 : 2 + nv]])
    pos = 2 + nv
    ne = int(lines[pos][0])
    pos += 1
    elements = []
    for _ in range(ne):
        nloops = int(lines[pos][0])
        loops = [[int(i) for i in lines[pos + 1 + j][1:]] for j in range(nloops)]
        pos += 1 + nloops
        elements.append(loops)
    if pos != len(lines):
        raise ValueError("%s: trailing content" % path)
    return verts, elements


def write_poly2d(path, verts, elements):
    """Write vertices and element loop lists as a poly2d file."""
    with open(path, "w") as fh:
        fh.write("poly2d 1\n%d\n" % len(verts))
        for x, y in verts:
            fh.write("%.17g %.17g\n" % (x, y))
        fh.write("%d\n" % len(elements))
        for loops in elements:
            fh.write("%d\n" % len(loops))
            for loop in loops:
                fh.write(" ".join(map(str, [len(loop)] + list(loop))) + "\n")


def shoelace(verts, loop):
    p = verts[loop]
    q = np.roll(p, -1, axis=0)
    return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]))


def total_area(verts, elements):
    # hole loops are clockwise, so their shoelace sums are negative
    return math.fsum(shoelace(verts, loop) for loops in elements for loop in loops)


def directed_segments(elements):
    for eid, loops in enumerate(elements):
        for loop in loops:
            for i in range(len(loop)):
                yield eid, loop[i], loop[(i + 1) % len(loop)]


def check_segments(elements):
    """Every segment used by at most two elements, in opposite directions.

    A third use of a segment always repeats one of its two directions, so
    testing directed segments for repeats covers both conditions.
    """
    seen = {}
    problems = []
    for eid, u, v in directed_segments(elements):
        if (u, v) in seen:
            problems.append(
                "segment %d->%d used twice in one direction (elements %d, %d)"
                % (u, v, seen[(u, v)], eid)
            )
        seen[(u, v)] = eid
    return problems


def check_area(verts, elements, expected, tol=1e-12):
    area = total_area(verts, elements)
    if abs(area - expected) > tol * abs(expected):
        return ["total area %.17g, expected %.17g" % (area, expected)]
    return []


def crossed_elements(verts, elements, line):
    """Elements whose outer loop has vertices strictly on both sides."""
    a, b, c = line
    count = 0
    for loops in elements:
        d = verts[loops[0]] @ np.array([a, b]) - c
        if np.any(d > 0) and np.any(d < 0):
            count += 1
    return count


def check_glue(verts, elements, glue, tol=1e-9):
    """No T-junction on the glue segment glue = (p, q).

    Every element segment lying on the glue line must contain no mesh
    vertex strictly inside it.  Also returns a problem if nothing lies on
    the glue line at all, since the merge then glued nothing.
    """
    p, q = np.asarray(glue[0], float), np.asarray(glue[1], float)
    e = q - p
    length = float(np.hypot(*e))
    normal = np.array([-e[1], e[0]]) / length
    on_line = np.abs((verts - p) @ normal) <= tol
    problems = []
    glue_segments = 0
    for eid, u, v in directed_segments(elements):
        if not (on_line[u] and on_line[v]):
            continue
        glue_segments += 1
        a, b = verts[u], verts[v]
        seg = b - a
        t = (verts[on_line] - a) @ seg / float(seg @ seg)
        inside = (t > tol) & (t < 1.0 - tol)
        if np.any(inside):
            problems.append("T-junction on glue segment %d->%d of element %d" % (u, v, eid))
    if glue_segments == 0:
        problems.append("no element segment lies on the glue line")
    return problems


def check_mesh_file(path, expected_area, expected_elements):
    """Area, segment sharing and element count of a written poly2d file."""
    verts, elements = read_poly2d(path)
    problems = check_area(verts, elements, expected_area)
    problems += check_segments(elements)
    if len(elements) != expected_elements:
        problems.append("%d elements, expected %d" % (len(elements), expected_elements))
    return [path.name + ": " + p for p in problems], (verts, elements)
