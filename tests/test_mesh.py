"""Unit-cell and macro mesh construction, queries and persistence."""

import numpy as np
import pytest

from homsim.mesh import (
    INCLUSION,
    MATRIX,
    Mesh,
    MeshError,
    PhaseGeometry,
    build_macro_mesh,
    build_unit_cell_mesh,
    load_mesh,
    periodic_pairs,
    save_mesh,
)
from homsim.reconstruct import MacroEvaluator


def check_reflection_symmetry(mesh: Mesh, tol: float = 1e-12) -> float:
    """Max distance from each node's mirror image to the nearest node.

    Checked for reflections about both mid-planes; raises if above tol.
    """
    from scipy.spatial import cKDTree

    tree = cKDTree(mesh.nodes)
    worst = 0.0
    for ref in (np.array([-1.0, 1.0]), np.array([1.0, -1.0])):
        mirrored = mesh.nodes * ref + (ref < 0) * 1.0
        worst = max(worst, float(tree.query(mirrored)[0].max()))
    if worst > tol:
        raise MeshError(f"mesh is not mirror-symmetric (deviation {worst:.3e})")
    return worst


def test_triangles_positively_oriented(disk_cell_mesh):
    assert np.all(disk_cell_mesh.areas > 0)


def test_unit_cell_area_is_one(disk_cell_mesh, stripe_cell_mesh):
    assert disk_cell_mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)
    assert stripe_cell_mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_disk_inclusion_fraction(fine_disk_cell_mesh):
    frac = fine_disk_cell_mesh.areas[
        fine_disk_cell_mesh.phase_tag == INCLUSION
    ].sum()
    # inscribed-polygon approximation of the pi*r^2 disk, r = 0.25
    assert frac == pytest.approx(np.pi * 0.25**2, rel=1e-2)
    assert frac < np.pi * 0.25**2


def test_stripe_fraction_exact(stripe_cell_mesh):
    frac = stripe_cell_mesh.areas[stripe_cell_mesh.phase_tag == INCLUSION].sum()
    assert frac == pytest.approx(0.5, abs=1e-12)


def test_reflection_symmetry(disk_cell_mesh, stripe_cell_mesh):
    assert check_reflection_symmetry(disk_cell_mesh) < 1e-10
    assert check_reflection_symmetry(stripe_cell_mesh) < 1e-10


def test_locate_and_interpolate_linear_field(disk_cell_mesh):
    rng = np.random.default_rng(3)
    pts = rng.random((200, 2))
    nodal = 2.0 * disk_cell_mesh.nodes[:, 0] - 0.5 * disk_cell_mesh.nodes[:, 1]
    p1 = MacroEvaluator(disk_cell_mesh, pts).p1  # the P1 operator from locate_points
    assert p1.shape == (200, disk_cell_mesh.num_nodes) and np.all(p1.row_lengths == 3)
    assert np.allclose(p1 @ np.ones(p1.shape[1]), 1.0, rtol=0.0, atol=1e-14)
    assert np.allclose(p1 @ nodal, 2.0 * pts[:, 0] - 0.5 * pts[:, 1], atol=1e-12)


def test_locate_points_matches_a_per_point_search(disk_cell_mesh, macro_mesh):
    """Each point goes to the lowest-numbered triangle that holds it, with the same
    barycentric coordinates, also on vertices and edges, where several do."""
    rng = np.random.default_rng(4)
    for mesh in (disk_cell_mesh, macro_mesh):
        p = mesh.nodes[mesh.triangles]
        pts = np.concatenate([mesh.nodes, 0.5 * (p + np.roll(p, 1, axis=1)).reshape(-1, 2),
                              rng.random((300, 2))])
        tri, bary = mesh.locate_points(pts)
        everything = np.arange(mesh.num_triangles)
        for k, x in enumerate(pts):
            b = mesh._barycentric(*x, everything)
            t = int(np.argmax(b.min(axis=1) >= -1e-10))
            assert tri[k] == t and np.array_equal(bary[k], b[t])
    tri, bary = macro_mesh.locate_points(np.empty((0, 2)))
    assert tri.shape == (0,) and bary.shape == (0, 3)


def _locate_bin_by_bin(mesh, pts, tol):
    """The former point location: one block of barycentric coordinates per occupied bin."""
    nb, lo, span, bin_tris, start = mesh._locator
    nodes, tris = mesh.nodes, mesh.triangles

    def barycentric(x, cand):  # (len(x), len(cand), 3)
        p = nodes[tris[cand]]
        v0, v1 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
        det = v0[:, 0] * v1[:, 1] - v0[:, 1] * v1[:, 0]
        d = x[:, None, :] - p[None, :, 0, :]
        l1 = (d[..., 0] * v1[None, :, 1] - d[..., 1] * v1[None, :, 0]) / det[None, :]
        l2 = (d[..., 1] * v0[None, :, 0] - d[..., 0] * v0[None, :, 1]) / det[None, :]
        return np.stack([1.0 - l1 - l2, l1, l2], axis=-1)

    idx = ((pts - lo) / span * nb).astype(int).clip(0, nb - 1)
    tri = np.full(len(pts), -1, dtype=np.int64)
    bary = np.zeros((len(pts), 3))
    order = np.lexsort((idx[:, 1], idx[:, 0]))
    key = idx[order, 0] * nb + idx[order, 1]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    for k, j in zip(first, np.append(first[1:], len(key))):
        sel = order[k:j]
        cand = bin_tris[start[key[k]]:start[key[k] + 1]]
        if len(cand):
            b = barycentric(pts[sel], cand)
            ok = b.min(axis=2) >= -tol
            best = np.argmax(ok, axis=1)
            found = ok[np.arange(len(sel)), best]
            tri[sel[found]] = cand[best[found]]
            bary[sel[found]] = b[np.arange(len(sel)), best][found]
    return tri, bary


def test_locate_points_is_bit_for_bit_the_bin_by_bin_search(disk_cell_mesh, macro_mesh):
    from homsim.dns import build_tiled_mesh

    rng = np.random.default_rng(5)
    for mesh in (disk_cell_mesh, macro_mesh, build_tiled_mesh(disk_cell_mesh, 0.25)):
        p = mesh.nodes[mesh.triangles]
        pts = np.concatenate([mesh.nodes, 0.5 * (p + np.roll(p, 1, axis=1)).reshape(-1, 2),
                              rng.random((2000, 2))])
        for tol in (1e-10, 1e-8):
            tri, bary = mesh.locate_points(pts, tol=tol)
            ref_tri, ref_bary = _locate_bin_by_bin(mesh, pts, tol)
            assert np.array_equal(tri, ref_tri)
            assert bary.tobytes() == ref_bary.tobytes()


def test_locate_outside_raises(disk_cell_mesh):
    with pytest.raises(MeshError):
        disk_cell_mesh.locate_points(np.array([[1.5, 0.5]]))


def test_boundary_nodes_on_square(disk_cell_mesh):
    bn = disk_cell_mesh.boundary_nodes
    xy = disk_cell_mesh.nodes[bn]
    on_edge = (np.abs(xy) < 1e-12) | (np.abs(xy - 1.0) < 1e-12)
    assert np.all(on_edge.any(axis=1))


def test_periodic_pairs_consistent(disk_cell_mesh):
    master, slave = periodic_pairs(disk_cell_mesh)
    assert len(master) == len(slave)
    xm = disk_cell_mesh.nodes[master]
    xs = disk_cell_mesh.nodes[slave]
    # slave nodes map onto masters modulo the unit-cell period
    d = np.abs(xm - xs)
    assert np.all((d < 1e-12) | (np.abs(d - 1.0) < 1e-12))


def test_macro_mesh_resolution():
    m = build_macro_mesh(0.1)
    assert m.h <= 1.5 * 0.1
    assert m.areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_refinement_honors_target():
    coarse = build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.3)
    fine = build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.1)
    assert fine.num_triangles > coarse.num_triangles
    assert fine.h < coarse.h


def test_geometry_validation():
    with pytest.raises(MeshError):
        PhaseGeometry("disk", radius=0.7, fraction=0.5)   # would cut the cell boundary
    with pytest.raises(MeshError):
        PhaseGeometry("stripe", radius=0.25, fraction=1.0)  # no matrix left
    with pytest.raises(MeshError):
        PhaseGeometry("hexagon", radius=0.25, fraction=0.5)


def test_save_load_roundtrip(tmp_path, disk_cell_mesh):
    p = tmp_path / "mesh.txt"
    save_mesh(disk_cell_mesh, p)
    m = load_mesh(p)
    assert np.array_equal(m.triangles, disk_cell_mesh.triangles)
    assert np.array_equal(m.phase_tag, disk_cell_mesh.phase_tag)
    assert np.allclose(m.nodes, disk_cell_mesh.nodes, atol=0.0)


def _corrupt_mesh_file(mesh, path, case):
    """Write mesh to path in save_mesh's format, then damage it as case says."""
    save_mesh(mesh, path)
    lines = path.read_text().splitlines(keepends=True)
    first_triangle = 2 + mesh.num_nodes
    if case == "truncated":
        lines = lines[:len(lines) // 2]
    elif case == "negative index":
        lines[first_triangle] = "-5 " + lines[first_triangle].split(" ", 1)[1]
    elif case == "index past the nodes":
        lines[first_triangle] = "999999 " + lines[first_triangle].split(" ", 1)[1]
    elif case == "non-numeric coordinate":
        lines[2] = "0.0 x\n"
    elif case == "no counts":
        del lines[1]
    elif case == "degenerate triangle":  # parses; Mesh refuses its zero area
        lines[first_triangle] = "0 0 1 " + lines[first_triangle].split()[3] + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("case", ["truncated", "negative index", "index past the nodes",
                                  "non-numeric coordinate", "no counts",
                                  "degenerate triangle"])
def test_malformed_mesh_file_is_refused(tmp_path, macro_mesh, case):
    p = tmp_path / "mesh.txt"
    _corrupt_mesh_file(macro_mesh, p, case)
    with pytest.raises(MeshError, match="mesh.txt"):
        load_mesh(p)


def test_mesh_arrays_frozen(disk_cell_mesh):
    with pytest.raises(ValueError):
        disk_cell_mesh.nodes[0, 0] = 99.0


def test_negative_orientation_rejected():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 2, 1]])  # clockwise
    m = Mesh(nodes, tris, np.array([MATRIX]))
    assert m.areas[0] > 0  # construction reorients rather than failing


def _boundary_nodes_by_edge_rows(triangles):
    """The boundary-node formula with 2-D np.unique over sorted edge rows."""
    edges = np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]], triangles[:, [2, 0]]])
    uniq, counts = np.unique(np.sort(edges, axis=1), axis=0, return_counts=True)
    return np.unique(uniq[counts == 1])


def test_boundary_nodes_match_the_edge_row_formula(disk_cell_mesh, stripe_cell_mesh, macro_mesh):
    from homsim.dns import build_tiled_mesh

    for m in (macro_mesh, disk_cell_mesh, stripe_cell_mesh, build_tiled_mesh(disk_cell_mesh, 0.25)):
        ref = _boundary_nodes_by_edge_rows(m.triangles)
        assert np.array_equal(m.boundary_nodes, ref)
        assert m.boundary_nodes.dtype == ref.dtype


def _save_mesh_line_by_line(mesh, path):
    """The plain-text mesh writer, one formatted write per line."""
    with open(path, "w") as f:
        f.write("homsim-mesh 1\n")
        f.write(f"{mesh.num_nodes} {mesh.num_triangles}\n")
        for x, y in mesh.nodes:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for (a, b, c), t in zip(mesh.triangles, mesh.phase_tag):
            f.write(f"{a} {b} {c} {t}\n")


def test_mesh_file_bytes_unchanged_and_reload_exact(tmp_path, disk_cell_mesh, macro_mesh):
    from homsim.dns import build_tiled_mesh

    for i, m in enumerate((macro_mesh, disk_cell_mesh, build_tiled_mesh(disk_cell_mesh, 0.25))):
        p, ref = tmp_path / f"mesh{i}.txt", tmp_path / f"ref{i}.txt"
        save_mesh(m, p)
        _save_mesh_line_by_line(m, ref)
        assert p.read_bytes() == ref.read_bytes()
        loaded = load_mesh(p)
        for name in ("nodes", "triangles", "phase_tag", "boundary_nodes"):
            a, b = getattr(loaded, name), getattr(m, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
