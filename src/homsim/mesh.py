"""2D triangular meshes for the periodic unit cell and the macroscopic domain.

Meshes are generated from structured templates so that the unit-cell mesh is
exactly symmetric under reflection about both mid-planes and conforms to the
matrix/inclusion interface (a polygon whose vertices lie on the circle for a
disk inclusion centred in the cell, grid-snapped lines for a stripe band).
Mesh.locate_points gives the triangle and barycentric coordinates of points;
the interpolation operators built from them belong to their users
(reconstruct, as fem.RowSum operators, without SciPy).  periodic_pairs
matches the nodes of opposite cell edges to PERIODIC_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MATRIX = 0
INCLUSION = 1


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class PhaseGeometry:
    """Inclusion descriptor on the unit cell [0,1]^2.

    shape: "disk" (of the given radius, centred at (0.5, 0.5)), "stripe"
    (the band in y1 of the given volume fraction, centred on y1 = 0.5) or
    "none".  Each shape reads only its own value.  The geometry is symmetric
    about both cell mid-planes; construction raises MeshError unless the
    shape's value is admissible.
    """

    shape: str
    radius: float
    fraction: float

    def __post_init__(self):
        if self.shape == "disk":
            if not 0.0 < self.radius < 0.5:
                raise MeshError(f"disk radius must lie in (0, 0.5), got {self.radius}")
        elif self.shape == "stripe":
            if not 0.0 < self.fraction < 1.0:
                raise MeshError(f"stripe fraction must lie in (0, 1), got {self.fraction}")
        elif self.shape != "none":
            raise MeshError(f"unknown inclusion shape {self.shape!r}")

    @property
    def band(self) -> tuple[float, float]:
        """The stripe's extent (a, b) in y1."""
        return (0.5 * (1.0 - self.fraction), 0.5 * (1.0 + self.fraction))


class Mesh:
    """Immutable P1 triangle mesh with phase tags.

    Attributes
    ----------
    nodes : (nn, 2) float array
    triangles : (nt, 3) int array, positively oriented
    phase_tag : (nt,) int array, MATRIX or INCLUSION
    boundary_nodes : sorted int array of nodes on the outer boundary
    h : max element diameter
    areas : (nt,) triangle areas
    grads : (nt, 3, 2) gradients of the three hat functions per triangle
    """

    def __init__(self, nodes, triangles, phase_tag=None):
        nodes = np.asarray(nodes, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        if phase_tag is None:
            phase_tag = np.zeros(len(triangles), dtype=np.int64)
        phase_tag = np.asarray(phase_tag, dtype=np.int64)
        if len(phase_tag) != len(triangles):
            raise MeshError("phase_tag must cover every triangle")

        # enforce positive orientation
        p = np.take(nodes, triangles, axis=0)
        sa = _signed_areas(p)
        flip = sa < 0
        if np.any(flip):
            triangles = triangles.copy()
            triangles[flip, 1], triangles[flip, 2] = (
                triangles[flip, 2].copy(),
                triangles[flip, 1].copy(),
            )
            p = np.take(nodes, triangles, axis=0)
            sa = _signed_areas(p)
        if np.any(sa <= 0):
            raise MeshError("degenerate triangle (zero area)")

        self.nodes = nodes
        self.triangles = triangles
        self.phase_tag = phase_tag
        self.areas = sa
        # hat-function gradients: grad phi_a = rot90(edge opposite a) / (2 area)
        e = _edges(p)
        grads = np.empty_like(e)
        np.negative(e[..., 1], out=grads[..., 0])
        grads[..., 1] = e[..., 0]
        grads /= (2.0 * sa)[:, None, None]
        self.grads = grads
        self.h = _max_edge(e)
        self.boundary_nodes = _boundary_nodes(triangles)
        for a in (self.nodes, self.triangles, self.phase_tag, self.areas, self.grads, self.boundary_nodes):
            a.setflags(write=False)
        self._locator = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    # ---- point location -------------------------------------------------
    def _build_locator(self):
        """Bin the triangles on an nb x nb grid by their bounding boxes.

        Bin key = ix * nb + iy lists, in ascending order, the triangles whose
        box overlaps it: bin_tris[start[key]:start[key + 1]].
        """
        nb = max(1, int(math.sqrt(self.num_triangles / 2.0)))
        lo = self.nodes.min(axis=0)
        hi = self.nodes.max(axis=0)
        span = np.maximum(hi - lo, 1e-30)
        p = self.nodes[self.triangles]
        tmin = ((p.min(axis=1) - lo) / span * nb).astype(int).clip(0, nb - 1)
        tmax = ((p.max(axis=1) - lo) / span * nb).astype(int).clip(0, nb - 1)
        nx, ny = (tmax - tmin + 1).T
        cells = nx * ny
        # one (triangle, bin) pair per bin of each box, row by row in the box
        tri = np.repeat(np.arange(self.num_triangles), cells)
        k = np.arange(len(tri)) - np.repeat(np.cumsum(cells) - cells, cells)
        key = (tmin[tri, 0] + k // ny[tri]) * nb + tmin[tri, 1] + k % ny[tri]
        order = np.argsort(key, kind="stable")
        start = np.searchsorted(key[order], np.arange(nb * nb + 1))
        self._locator = (nb, lo, span, tri[order], start)
        # rows x0, y0, v0x, v0y, v1x, v1y, det: each triangle's first vertex,
        # its two edges from there and their cross product
        v0, v1 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
        self._frames = np.vstack([p[:, 0].T, v0.T, v1.T, det])

    def locate_points(self, pts, tol: float = 1e-10):
        """Vectorized point location; raises MeshError if any point is outside.

        Each point goes to the first triangle of its bin, in bin order, whose
        barycentric coordinates are all >= -tol.  Every (point, candidate)
        pair is tested in one pass.
        """
        pts = np.asarray(pts, dtype=float)
        if self._locator is None:
            self._build_locator()
        nb, lo, span, bin_tris, start = self._locator
        idx = ((pts - lo) / span * nb).astype(int).clip(0, nb - 1)
        key = idx[:, 0] * nb + idx[:, 1]
        counts = start[key + 1] - start[key]
        point = np.repeat(np.arange(len(pts)), counts)  # the point of each pair
        before = np.cumsum(counts) - counts  # pairs before each point's first
        cand = bin_tris[np.arange(len(point)) + np.repeat(start[key] - before, counts)]
        b = self._barycentric(*np.ascontiguousarray(pts.T)[:, point], cand)
        ok = np.flatnonzero(np.minimum(np.minimum(b[:, 0], b[:, 1]), b[:, 2]) >= -tol)
        hit = ok[np.diff(point[ok], prepend=-1) != 0]  # the first ok pair of each point
        tri = np.full(len(pts), -1, dtype=np.int64)
        bary = np.zeros((len(pts), 3))
        tri[point[hit]] = cand[hit]
        bary[point[hit]] = b[hit]
        if np.any(tri < 0):
            bad = pts[tri < 0][0]
            raise MeshError(f"point {bad} lies outside the meshed domain")
        return tri, bary

    def _barycentric(self, x, y, tris):
        """Barycentric coordinates (..., 3) of the points (x, y) in the triangles tris, broadcast."""
        if self._locator is None:
            self._build_locator()
        x0, y0, v0x, v0y, v1x, v1y, det = self._frames[:, tris]
        dx, dy = x - x0, y - y0
        l1 = (dx * v1y - dy * v1x) / det
        l2 = (dy * v0x - dx * v0y) / det
        return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)


def _signed_areas(p):
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def _edges(p):
    """(nt, 3, 2): the edge opposite each vertex of the triangles p (nt, 3, 2),
    vertex a + 1 to vertex a + 2."""
    return np.take(p, [2, 0, 1], axis=1) - np.take(p, [1, 2, 0], axis=1)


def _max_edge(e):
    """The longest of the edges e (..., 2): the square root of the largest
    x^2 + y^2, as sqrt is monotone."""
    return float(np.sqrt(np.max(e[..., 0] * e[..., 0] + e[..., 1] * e[..., 1])))


def _boundary_nodes(triangles):
    """Sorted nodes of the edges that belong to one triangle only."""
    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()
    nn = int(triangles.max()) + 1
    keys = np.minimum(a, b) * nn + np.maximum(a, b)  # one int64 key per edge
    uniq, counts = np.unique(keys, return_counts=True)
    edges = uniq[counts == 1]
    return np.unique(np.concatenate([edges // nn, edges % nn]))


# ---------------------------------------------------------------------------
# structured generators
# ---------------------------------------------------------------------------


def build_macro_mesh(target_h: float) -> Mesh:
    """Uniform diagonal-split mesh of the unit square with max diameter <= 1.5*target_h."""
    if target_h <= 0:
        raise MeshError(f"target_h must be positive, got {target_h}")
    n = max(1, math.ceil(math.sqrt(2.0) / (1.5 * target_h)))
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    nodes = np.stack([xx.ravel(), yy.ravel()], axis=1)

    def nid(i, j):
        return i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b, c, d = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            tris.append([a, b, c])
            tris.append([a, c, d])
    return Mesh(nodes, np.array(tris))


def _crossed_grid(xs, ys, in_band=None):
    """Tensor grid with each rectangle split into 4 triangles via its centroid.

    The centroid split keeps the mesh symmetric under both mid-plane
    reflections whenever the coordinate sets are.
    """
    xs = np.asarray(xs, float)
    ys = np.asarray(ys, float)
    nx, ny = len(xs) - 1, len(ys) - 1
    xx, yy = np.meshgrid(xs, ys, indexing="ij")
    nodes = [np.stack([xx.ravel(), yy.ravel()], axis=1)]
    base = (len(xs)) * (len(ys))

    def nid(i, j):
        return i * len(ys) + j

    centers = []
    tris = []
    tags = []
    for i in range(nx):
        for j in range(ny):
            cidx = base + len(centers)
            centers.append([(xs[i] + xs[i + 1]) / 2.0, (ys[j] + ys[j + 1]) / 2.0])
            a, b, c, d = nid(i, j), nid(i + 1, j), nid(i + 1, j + 1), nid(i, j + 1)
            for u, v in ((a, b), (b, c), (c, d), (d, a)):
                tris.append([u, v, cidx])
            tag = INCLUSION if (in_band is not None and in_band(i)) else MATRIX
            tags.extend([tag] * 4)
    nodes.append(np.array(centers))
    return Mesh(np.concatenate(nodes), np.array(tris), np.array(tags))


def _stripe_mesh(band, target_h):
    a, b = band
    n = max(2, math.ceil(1.0 / (1.4 * target_h)))
    xs = np.unique(np.concatenate([np.linspace(0, 1, n + 1), [a, b]]))
    # drop near-duplicates from the snap
    keep = np.concatenate([[True], np.diff(xs) > 1e-9])
    xs = xs[keep]
    # symmetrize about 0.5 exactly
    xs = np.unique(np.round(np.concatenate([xs, 1.0 - xs]), 15))
    ys = np.linspace(0, 1, n + 1)
    mids = 0.5 * (xs[:-1] + xs[1:])

    def in_band(i):
        return a - 1e-12 < mids[i] < b + 1e-12

    return _crossed_grid(xs, ys, in_band)


def _disk_mesh(radius, n_theta, n_r, n_out):
    """(nodes, triangles, tags) of the disk-inclusion cell: rings of n_theta
    nodes around the centre (node 0), n_r rings out to the interface circle
    and n_out more out to the square, each ring numbered by angle.  The fan
    around the centre is inclusion; each quad between two rings is split into
    4 triangles at its centroid, a node numbered after all ring nodes."""
    cx, cy = 0.5, 0.5
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    ct, st = np.cos(theta), np.sin(theta)
    # square-boundary exit point of each ray
    t_exit = 0.5 / np.maximum(np.abs(ct), np.abs(st))
    radii = np.array([np.full(n_theta, radius * j / n_r) for j in range(1, n_r + 1)]
                     + [radius + l / n_out * (t_exit - radius) for l in range(1, n_out + 1)])
    rings = np.stack([cx + radii * ct, cy + radii * st], axis=-1).reshape(-1, 2)
    ids = 1 + np.arange(radii.size).reshape(radii.shape)  # ring, angle -> node
    # quad (inner[k], outer[k], outer[k+1], inner[k+1]) between consecutive
    # rings, ring-major
    quads = np.stack([ids[:-1], ids[1:], np.roll(ids[1:], -1, axis=1),
                      np.roll(ids[:-1], -1, axis=1)], axis=-1).reshape(-1, 4)
    nodes = np.concatenate([[[cx, cy]], rings])
    corners = nodes[quads]
    centroids = (corners[:, 0] + corners[:, 1] + corners[:, 2] + corners[:, 3]) / 4.0
    centre = len(nodes) + np.arange(len(quads))
    fan = np.stack([np.zeros(n_theta, dtype=np.int64), ids[0], np.roll(ids[0], -1)], axis=1)
    split = np.stack([quads, np.roll(quads, -1, axis=1),
                      np.repeat(centre[:, None], 4, axis=1)], axis=-1).reshape(-1, 3)
    # layers whose outer ring is at or inside the interface circle are
    # inclusion material, everything beyond it is matrix
    layer = np.repeat(np.arange(len(radii) - 1), 4 * n_theta)
    tags = np.concatenate([np.full(n_theta, INCLUSION),
                           np.where(layer + 1 <= n_r - 1, INCLUSION, MATRIX)])
    return np.concatenate([nodes, centroids]), np.concatenate([fan, split]), tags


def build_unit_cell_mesh(geometry: PhaseGeometry, target_h: float) -> Mesh:
    """Symmetric interface-conforming mesh of [0,1]^2 with h <= 1.5*target_h.

    A disk cell grows its ring counts until the longest edge is short
    enough; each trial is measured on its arrays, and a Mesh is built for
    the final one only.
    """
    if target_h <= 0:
        raise MeshError(f"target_h must be positive, got {target_h}")
    if geometry.shape == "stripe":
        return _stripe_mesh(geometry.band, target_h)
    if geometry.shape == "none":
        n = max(2, math.ceil(1.0 / (1.4 * target_h)))
        xs = np.linspace(0, 1, n + 1)
        return _crossed_grid(xs, xs)

    r = geometry.radius
    # angular spacing is widest on the outer square boundary (perimeter 4)
    n_theta = max(8, 8 * math.ceil(4.0 / (1.4 * target_h) / 8.0))
    n_r = max(2, math.ceil(r / (1.4 * target_h)))
    n_out = max(2, math.ceil((0.5 * math.sqrt(2.0) - r) / (1.4 * target_h)))
    for _ in range(8):
        nodes, tris, tags = _disk_mesh(r, n_theta, n_r, n_out)
        h = _max_edge(_edges(np.take(nodes, tris, axis=0)))  # Mesh.h: orientation moves no edge
        if h <= 1.5 * target_h:
            return Mesh(nodes, tris, tags)
        grow = h / (1.4 * target_h)
        n_theta = 8 * math.ceil(n_theta * grow / 8.0)
        n_r = math.ceil(n_r * grow)
        n_out = math.ceil(n_out * grow)
    raise MeshError("unit-cell mesh refinement failed to reach the target size")


#: largest coordinate mismatch periodic_pairs accepts between paired nodes
PERIODIC_TOL = 1e-9


def periodic_pairs(mesh: Mesh):
    """Match boundary nodes across opposite edges of [0,1]^2, to PERIODIC_TOL.

    Returns (master, slave) index arrays identifying each right/top node with
    its left/bottom partner (corners collapse onto the origin corner).
    """
    nodes = mesh.nodes
    bnd = mesh.boundary_nodes
    master = {}

    def on(val, coord):
        return bnd[np.abs(nodes[bnd, coord] - val) < PERIODIC_TOL]

    for coord in (0, 1):
        lo = on(0.0, coord)
        hi = on(1.0, coord)
        other = 1 - coord
        lo_sorted = lo[np.argsort(nodes[lo, other])]
        hi_sorted = hi[np.argsort(nodes[hi, other])]
        if len(lo_sorted) != len(hi_sorted):
            raise MeshError("periodic pairing failed: unequal boundary node counts")
        if np.max(np.abs(nodes[lo_sorted, other] - nodes[hi_sorted, other])) > PERIODIC_TOL:
            raise MeshError("periodic pairing failed: opposite edges do not match")
        for m, s in zip(lo_sorted, hi_sorted):
            master[int(s)] = int(m)
    # resolve chains (corners: top-right -> top-left -> bottom-left)
    for s in list(master):
        m = master[s]
        while m in master and master[m] != m:
            m = master[m]
        master[s] = m
    slaves = np.array(sorted(master), dtype=np.int64)
    masters = np.array([master[s] for s in slaves], dtype=np.int64)
    keep = masters != slaves
    return masters[keep], slaves[keep]


# ---------------------------------------------------------------------------
# plain-text persistence
# ---------------------------------------------------------------------------


def save_mesh(mesh: Mesh, path) -> None:
    """Write the documented plain-text format (see README).

    A node line is the repr of its two floats, a triangle line its three
    vertex indices and its tag in decimal.  Where the numbers repeat, each
    distinct one is formatted once, with the space or newline that follows
    it, and the section is one join of those strings: the epsilon=1/6 tiled
    mesh has 1,535 distinct values among its 28,994 coordinates, a tiled or
    macro mesh's vertex indices repeat 6 times on average.  The coordinates
    of a cell mesh, about half of them distinct, are formatted one by one:
    their strings would take more memory than the floats, and the archive
    writes the cell mesh while the whole table is held.
    """
    nodes = np.ascontiguousarray(mesh.nodes)
    # distinct by bit pattern, as repr is: it tells 0.0 and -0.0 apart
    values, at = np.unique(nodes.view(np.int64), return_inverse=True)
    if 4 * len(values) <= nodes.size:
        words = [repr(v) for v in values.view(np.float64).tolist()]
        at = at.reshape(nodes.shape)
        at[:, 1] += len(words)
        node_text = _joined([w + " " for w in words] + [w + "\n" for w in words], at)
    else:
        node_text = ("%r %r\n" * mesh.num_nodes) % tuple(nodes.ravel().tolist())
    lo, hi = int(mesh.triangles.min()), int(mesh.triangles.max())
    tags, tag_at = np.unique(mesh.phase_tag, return_inverse=True)
    words = [f"{i} " for i in range(lo, hi + 1)] + [f"{t}\n" for t in tags.tolist()]
    with open(path, "w") as f:
        f.write("homsim-mesh 1\n")
        f.write(f"{mesh.num_nodes} {mesh.num_triangles}\n")
        f.write(node_text)
        del node_text
        f.write(_joined(words, np.column_stack([mesh.triangles - lo, tag_at + (hi + 1 - lo)])))


def _joined(words, at):
    """The concatenation of words[i] for the indices i of at, row by row."""
    return "".join(np.take(np.array(words, dtype=object), at).ravel().tolist())


def load_mesh(path) -> Mesh:
    """Read a file in save_mesh's format.  Raises MeshError unless it is exactly
    that: the "homsim-mesh 1" header, a line "nn nt", nn rows of two finite
    floats and nt rows of four ints (vertex indices in [0, nn), then the tag)."""
    with open(path) as f:
        lines = f.read().splitlines()
    try:
        if lines[:1] != ["homsim-mesh 1"] or len(lines) < 2:
            raise ValueError("no 'homsim-mesh 1' header and counts line")
        nn, nt = map(int, lines[1].split())
        if nn < 1 or nt < 1 or len(lines) != 2 + nn + nt:
            raise ValueError(f"{len(lines) - 2} data lines for {nn} nodes and {nt} triangles")
        nodes = np.loadtxt(lines[2:2 + nn], ndmin=2)
        rows = np.loadtxt(lines[2 + nn:], dtype=np.int64, ndmin=2)
        if nodes.shape != (nn, 2) or rows.shape != (nt, 4) or not np.isfinite(nodes).all():
            raise ValueError(f"expected {nn} rows of 2 finite floats and {nt} rows of 4 ints")
        if rows[:, :3].min() < 0 or rows[:, :3].max() >= nn:
            raise ValueError(f"a vertex index outside [0, {nn})")
    except ValueError as e:
        raise MeshError(f"{path}: malformed mesh file: {e}") from None
    try:
        return Mesh(nodes, rows[:, :3], rows[:, 3])
    except MeshError as e:
        raise MeshError(f"{path}: {e}") from None
