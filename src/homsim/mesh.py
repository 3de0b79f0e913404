"""2D triangular meshes for the periodic unit cell and the macroscopic domain.

Meshes are generated from structured templates so that the unit-cell mesh is
exactly symmetric under reflection about both mid-planes and conforms to the
matrix/inclusion interface (a polygon whose vertices lie on the circle for a
disk inclusion centred in the cell, grid-snapped lines for a stripe band).
Mesh.locate_points gives the triangle and barycentric coordinates of points;
the interpolation operators built from them belong to their users
(reconstruct).  periodic_pairs matches the nodes of opposite cell edges to
PERIODIC_TOL.
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

    shape: "disk" (radius, centred at (0.5, 0.5)), "stripe" (band in y1) or
    "none".  The geometry must be symmetric about both cell mid-planes.
    """

    shape: str
    radius: float = 0.25
    band: tuple[float, float] = (0.25, 0.75)

    def validate(self) -> None:
        if self.shape == "disk":
            if not 0.0 < self.radius < 0.5:
                raise MeshError(f"disk radius must lie in (0, 0.5), got {self.radius}")
        elif self.shape == "stripe":
            a, b = self.band
            if not (0.0 <= a < b <= 1.0):
                raise MeshError(f"stripe band must satisfy 0 <= a < b <= 1, got {self.band}")
            if abs((a + b) - 1.0) > 1e-12:
                raise MeshError(
                    f"stripe band must be symmetric about y1=0.5, got {self.band}"
                )
        elif self.shape == "none":
            pass
        else:
            raise MeshError(f"unknown inclusion shape {self.shape!r}")


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
        p = nodes[triangles]
        sa = _signed_areas(p)
        flip = sa < 0
        if np.any(flip):
            triangles = triangles.copy()
            triangles[flip, 1], triangles[flip, 2] = (
                triangles[flip, 2].copy(),
                triangles[flip, 1].copy(),
            )
            p = nodes[triangles]
            sa = _signed_areas(p)
        if np.any(sa <= 0):
            raise MeshError("degenerate triangle (zero area)")

        self.nodes = nodes
        self.triangles = triangles
        self.phase_tag = phase_tag
        self.areas = sa
        # hat-function gradients: grad phi_a = rot90(edge opposite a) / (2 area)
        e0 = p[:, 2] - p[:, 1]
        e1 = p[:, 0] - p[:, 2]
        e2 = p[:, 1] - p[:, 0]
        g = np.stack([e0, e1, e2], axis=1)  # (nt,3,2)
        grads = np.empty_like(g)
        grads[..., 0] = -g[..., 1]
        grads[..., 1] = g[..., 0]
        grads /= (2.0 * sa)[:, None, None]
        self.grads = grads

        edge_len = np.stack(
            [np.linalg.norm(e0, axis=1), np.linalg.norm(e1, axis=1), np.linalg.norm(e2, axis=1)]
        )
        self.h = float(edge_len.max())
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
    cx, cy = 0.5, 0.5
    nodes = [(cx, cy)]
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    ct, st = np.cos(theta), np.sin(theta)

    ring_ids = []
    for j in range(1, n_r + 1):
        r = radius * j / n_r
        ids = []
        for k in range(n_theta):
            ids.append(len(nodes))
            nodes.append((cx + r * ct[k], cy + r * st[k]))
        ring_ids.append(ids)

    # square-boundary exit point of each ray
    t_exit = 0.5 / np.maximum(np.abs(ct), np.abs(st))
    for l in range(1, n_out + 1):
        ids = []
        s = l / n_out
        for k in range(n_theta):
            rr = radius + s * (t_exit[k] - radius)
            ids.append(len(nodes))
            nodes.append((cx + rr * ct[k], cy + rr * st[k]))
        ring_ids.append(ids)

    tris = []
    tags = []
    first = ring_ids[0]
    for k in range(n_theta):
        tris.append([0, first[k], first[(k + 1) % n_theta]])
        tags.append(INCLUSION)
    nodes_arr = list(nodes)
    for jr in range(len(ring_ids) - 1):
        inner, outer = ring_ids[jr], ring_ids[jr + 1]
        # layers whose outer ring is at or inside the interface circle are
        # inclusion material, everything beyond it is matrix
        tag = INCLUSION if jr + 1 <= n_r - 1 else MATRIX
        for k in range(n_theta):
            k1 = (k + 1) % n_theta
            quad = [inner[k], outer[k], outer[k1], inner[k1]]
            cidx = len(nodes_arr)
            cx_, cy_ = np.mean([nodes_arr[q] for q in quad], axis=0)
            nodes_arr.append((cx_, cy_))
            for u, v in ((quad[0], quad[1]), (quad[1], quad[2]), (quad[2], quad[3]), (quad[3], quad[0])):
                tris.append([u, v, cidx])
                tags.append(tag)
    return Mesh(np.array(nodes_arr), np.array(tris), np.array(tags))


def build_unit_cell_mesh(geometry: PhaseGeometry, target_h: float) -> Mesh:
    """Symmetric interface-conforming mesh of [0,1]^2 with h <= 1.5*target_h."""
    if target_h <= 0:
        raise MeshError(f"target_h must be positive, got {target_h}")
    geometry.validate()
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
        mesh = _disk_mesh(r, n_theta, n_r, n_out)
        if mesh.h <= 1.5 * target_h:
            return mesh
        grow = mesh.h / (1.4 * target_h)
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
    """Write the documented plain-text format (see README)."""
    with open(path, "w") as f:
        f.write("homsim-mesh 1\n")
        f.write(f"{mesh.num_nodes} {mesh.num_triangles}\n")
        # one % per section: a node line is the repr of its two floats
        f.write(("%r %r\n" * mesh.num_nodes) % tuple(mesh.nodes.ravel().tolist()))
        rows = np.column_stack([mesh.triangles, mesh.phase_tag])
        f.write(("%d %d %d %d\n" * mesh.num_triangles) % tuple(rows.ravel().tolist()))


def load_mesh(path) -> Mesh:
    with open(path) as f:
        header = f.readline().split()
        if header[:1] != ["homsim-mesh"]:
            raise MeshError(f"{path}: not a homsim mesh file")
        nn, nt = map(int, f.readline().split())
        nodes = np.loadtxt(f, max_rows=nn, ndmin=2)
        rows = np.loadtxt(f, dtype=np.int64, max_rows=nt, ndmin=2)
    return Mesh(nodes, rows[:, :3], rows[:, 3])
