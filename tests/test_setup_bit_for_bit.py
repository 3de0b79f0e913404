"""The fine-mesh set-up against the code it replaced, byte for byte.

Each reference below is the earlier implementation of one set-up step: the
Python tile loop with np.unique(axis=0), the int64-key argsort and
searchsorted of CsrPattern, the einsum quadrature points, the searchsorted
mass slots, the %-formatted mesh file, the disk cell built as a Mesh for
every trial, the per-node boundary patches and the cumsum Dirichlet plan.
The rewrites must return the same arrays (dtype, shape and bytes) and write
the same file on the macro mesh, the disk cells and the epsilon=1/6 tiled
mesh of the benchmark's cell.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from homsim import fem
from homsim.dns import build_tiled_mesh, tiles
from homsim.mesh import (
    INCLUSION,
    MATRIX,
    Mesh,
    MeshError,
    PhaseGeometry,
    build_macro_mesh,
    build_unit_cell_mesh,
    save_mesh,
)

MESH_ARRAYS = ("nodes", "triangles", "phase_tag", "areas", "grads", "boundary_nodes")


def assert_same(a, b, what=""):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def assert_same_csr(A, B, what=""):
    assert A.shape == B.shape, what
    for name in ("data", "indices", "indptr"):
        assert_same(getattr(A, name), getattr(B, name), f"{what} {name}")


def assert_same_mesh(m, ref):
    for name in MESH_ARRAYS:
        assert_same(getattr(m, name), getattr(ref, name), name)
    assert m.h == ref.h


# ---------------------------------------------------------------------------
# the replaced implementations
# ---------------------------------------------------------------------------

def ref_tiled_mesh(cell_mesh, epsilon):
    q = tiles(epsilon)
    nodes, tris, tags = [], [], []
    nn = cell_mesh.num_nodes
    for i in range(q):
        for j in range(q):
            off = (i * q + j) * nn
            nodes.append((cell_mesh.nodes + [i, j]) * epsilon)
            tris.append(cell_mesh.triangles + off)
            tags.append(cell_mesh.phase_tag)
    nodes, tris, tags = np.concatenate(nodes), np.concatenate(tris), np.concatenate(tags)
    key = np.round(nodes, 9)
    _, first_idx, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return Mesh(nodes[first_idx], inverse[tris], tags)


def ref_mesh_derived(mesh):
    """(grads, h) as Mesh.__init__ computed them from three edge arrays and norms."""
    p = mesh.nodes[mesh.triangles]
    e0, e1, e2 = p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]
    g = np.stack([e0, e1, e2], axis=1)
    grads = np.empty_like(g)
    grads[..., 0] = -g[..., 1]
    grads[..., 1] = g[..., 0]
    grads /= (2.0 * mesh.areas)[:, None, None]
    h = np.stack([np.linalg.norm(e, axis=1) for e in (e0, e1, e2)]).max()
    return grads, float(h)


def ref_csr_pattern(dofs, n):
    """(indices, indptr, sum, load) with the int64-key argsort and searchsorted indptr."""
    k = dofs.shape[1]
    idx = np.int32 if max(n, dofs.size * k) <= np.iinfo(np.int32).max else np.int64
    dofs = dofs.astype(idx)
    nt = len(dofs)
    by_dof = np.argsort(dofs.ravel(), kind="stable").astype(idx)
    at_dof = np.append(0, np.cumsum(np.bincount(dofs.ravel(), minlength=n))).astype(idx)
    t, a = np.divmod(by_dof, idx(k))
    number = (a[:, None] * k + np.arange(k, dtype=idx)) * idx(nt) + t[:, None]
    unsummed = sp.csr_matrix((number.ravel(), dofs[t].ravel(), at_dof * idx(k)), shape=(n, n))
    unsummed.sort_indices()
    j = unsummed.indices
    first = np.ones(len(j), dtype=bool)
    first[1:] = j[1:] != j[:-1]
    first[unsummed.indptr[:-1][np.diff(at_dof) > 0]] = True
    opens = np.append(np.flatnonzero(first), len(j)).astype(idx)
    indices = j[first]
    indptr = np.searchsorted(opens, unsummed.indptr).astype(idx)
    S = sp.csr_matrix((np.ones(len(j)), unsummed.data, opens), shape=(len(indices), len(j)))
    L = sp.csr_matrix((np.ones(dofs.size), by_dof, at_dof), shape=(n, dofs.size))
    return indices, indptr, S, L


def ref_quad_points(mesh):
    bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    w = np.array([1.0, 1.0, 1.0]) / 3.0
    p = mesh.nodes[mesh.triangles]
    return np.einsum("qa,tak->tqk", bary, p), mesh.areas[:, None] * w[None, :], bary


def ref_mass_slots(s, v):
    n = v.shape[1]
    keys = fem._entry_rows(v.indptr).astype(np.int64) * n + v.indices
    rows = fem._entry_rows(s.indptr).astype(np.int64)
    return np.stack([np.searchsorted(keys, (2 * rows + c) * n + 2 * s.indices + c)
                     for c in (0, 1)], axis=1)


def ref_save_mesh(mesh, path):
    with open(path, "w") as f:
        f.write("homsim-mesh 1\n")
        f.write(f"{mesh.num_nodes} {mesh.num_triangles}\n")
        f.write(("%r %r\n" * mesh.num_nodes) % tuple(mesh.nodes.ravel().tolist()))
        rows = np.column_stack([mesh.triangles, mesh.phase_tag])
        f.write(("%d %d %d %d\n" * mesh.num_triangles) % tuple(rows.ravel().tolist()))


def ref_disk_mesh(radius, n_theta, n_r, n_out):
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
    t_exit = 0.5 / np.maximum(np.abs(ct), np.abs(st))
    for l in range(1, n_out + 1):
        ids = []
        s = l / n_out
        for k in range(n_theta):
            rr = radius + s * (t_exit[k] - radius)
            ids.append(len(nodes))
            nodes.append((cx + rr * ct[k], cy + rr * st[k]))
        ring_ids.append(ids)
    tris, tags = [], []
    first = ring_ids[0]
    for k in range(n_theta):
        tris.append([0, first[k], first[(k + 1) % n_theta]])
        tags.append(INCLUSION)
    for jr in range(len(ring_ids) - 1):
        inner, outer = ring_ids[jr], ring_ids[jr + 1]
        tag = INCLUSION if jr + 1 <= n_r - 1 else MATRIX
        for k in range(n_theta):
            k1 = (k + 1) % n_theta
            quad = [inner[k], outer[k], outer[k1], inner[k1]]
            cidx = len(nodes)
            nodes.append(tuple(np.mean([nodes[q] for q in quad], axis=0)))
            for u, v in ((quad[0], quad[1]), (quad[1], quad[2]), (quad[2], quad[3]),
                         (quad[3], quad[0])):
                tris.append([u, v, cidx])
                tags.append(tag)
    return Mesh(np.array(nodes), np.array(tris), np.array(tags))


def ref_disk_cell(radius, target_h):
    """The disk cell, built as a Mesh for every trial."""
    n_theta = max(8, 8 * math.ceil(4.0 / (1.4 * target_h) / 8.0))
    n_r = max(2, math.ceil(radius / (1.4 * target_h)))
    n_out = max(2, math.ceil((0.5 * math.sqrt(2.0) - radius) / (1.4 * target_h)))
    for _ in range(8):
        mesh = ref_disk_mesh(radius, n_theta, n_r, n_out)
        if mesh.h <= 1.5 * target_h:
            return mesh
        grow = mesh.h / (1.4 * target_h)
        n_theta = 8 * math.ceil(n_theta * grow / 8.0)
        n_r = math.ceil(n_r * grow)
        n_out = math.ceil(n_out * grow)
    raise MeshError("unit-cell mesh refinement failed to reach the target size")


def ref_boundary_patches(mesh, nodes, elems_by_node):
    """One least-squares solve per boundary node, on numpy arrays."""
    tri = mesh.triangles
    start = np.searchsorted(nodes, np.arange(mesh.num_nodes + 1))

    def node_elems(a):
        return elems_by_node[start[a]:start[a + 1]]

    def nbrs(a):
        out = set()
        for t in node_elems(a):
            out.update(tri[t])
        return out

    interior = np.ones(mesh.num_nodes, dtype=bool)
    interior[mesh.boundary_nodes] = False
    centroids = mesh.nodes[tri].mean(axis=1)
    patches = []
    for b in mesh.boundary_nodes:
        cand = [a for a in nbrs(b) if interior[a]]
        if not cand:
            two = set()
            for a in nbrs(b):
                two.update(nbrs(a))
            cand = [a for a in two if interior[a]]
        cand = np.asarray(cand)
        dist = np.sum((mesh.nodes[cand] - mesh.nodes[b]) ** 2, axis=1)
        elems = node_elems(cand[np.argmin(dist)])
        d = centroids[elems] - mesh.nodes[b]
        X = np.column_stack([np.ones(len(elems)), d])
        w = mesh.areas[elems]
        patches.append((elems, np.linalg.solve(X.T @ (w[:, None] * X), X.T * w)[0]))
    return patches


def ref_dirichlet_plan(pattern, dofs, drop=False):
    """(keep, pivots, indices, indptr) from a running count of the kept entries."""
    fixed = np.zeros(pattern.shape[0], dtype=bool)
    fixed[np.asarray(dofs, dtype=np.int64)] = True
    rows = fem._entry_rows(pattern.indptr)
    cut = fixed[rows] | fixed[pattern.indices]
    pivot = cut & (rows == pattern.indices)
    keep = ~(cut | drop) | pivot
    before = np.concatenate([[0], np.cumsum(keep)])
    return (keep, before[np.flatnonzero(pivot)], pattern.indices[keep],
            before[pattern.indptr].astype(pattern.indptr.dtype))


# ---------------------------------------------------------------------------
# the meshes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def meshes(macro_mesh, disk_cell_mesh, fine_disk_cell_mesh, stripe_cell_mesh):
    """The macro mesh, the disk cells (cell_h 0.2 and the benchmark's 0.12), a
    stripe cell and the epsilon=1/6 tiled mesh of the benchmark's cell."""
    return {"macro": macro_mesh, "disk cell": disk_cell_mesh,
            "fine disk cell": fine_disk_cell_mesh, "stripe cell": stripe_cell_mesh,
            "tiled 1/6": build_tiled_mesh(fine_disk_cell_mesh, 1 / 6)}


@pytest.mark.parametrize("radius, target_h", [(0.25, 0.2), (0.25, 0.12), (0.25, 0.08),
                                              (0.4, 0.12), (0.1, 0.05)])
def test_unit_cell_mesh_is_the_trial_by_trial_mesh(radius, target_h):
    got = build_unit_cell_mesh(PhaseGeometry("disk", radius, 0.5), target_h)
    assert_same_mesh(got, ref_disk_cell(radius, target_h))


@pytest.mark.parametrize("epsilon", [1.0, 1 / 3, 1 / 6])
def test_tiled_mesh_is_the_tile_loop_mesh(fine_disk_cell_mesh, stripe_cell_mesh, epsilon):
    for cell in (fine_disk_cell_mesh, stripe_cell_mesh):
        assert_same_mesh(build_tiled_mesh(cell, epsilon), ref_tiled_mesh(cell, epsilon))


def test_mesh_gradients_and_size_are_the_edge_by_edge_ones(meshes):
    for name, m in meshes.items():
        grads, h = ref_mesh_derived(m)
        assert_same(m.grads, grads, name)
        assert m.h == h, name


def test_csr_patterns_are_the_int64_key_patterns(meshes):
    for name, m in meshes.items():
        for dofs, n in ((m.triangles, m.num_nodes),
                        (fem.vector_dofs(m.triangles), 2 * m.num_nodes)):
            got = fem.CsrPattern(dofs, n)
            indices, indptr, S, L = ref_csr_pattern(dofs, n)
            assert_same(got.indices, indices, name)
            assert_same(got.indptr, indptr, name)
            assert_same_csr(got.sum, S, f"{name} sum")
            assert_same_csr(got.load, L, f"{name} load")


def test_csr_pattern_beyond_16_bit_dofs_sorts_the_full_keys():
    """With n > 65,536 the 16-bit keys would collide: dof 70,000 is 4,464 mod
    2^16.  Four elements whose dofs straddle that boundary, in an order that
    a sort on the low 16 bits would get wrong."""
    n = 70_010
    dofs = np.array([[70_000, 4_464, 9], [4_464, 70_000, 70_005],
                     [9, 70_005, 65_536], [0, 65_536, 70_009]])
    assert n > 1 << 16 and len(np.unique(dofs.ravel() % (1 << 16))) < len(np.unique(dofs))
    got = fem.CsrPattern(dofs, n)
    indices, indptr, S, L = ref_csr_pattern(dofs, n)
    assert_same(got.indices, indices)
    assert_same(got.indptr, indptr)
    assert_same_csr(got.sum, S, "sum")
    assert_same_csr(got.load, L, "load")
    # the pattern assembles what SciPy's COO path gives
    rng = np.random.default_rng(3)
    elem = rng.standard_normal((3, 3, len(dofs)))
    rows, cols = np.repeat(dofs, 3, axis=1), np.tile(dofs, (1, 3))
    coo = sp.coo_matrix((elem.transpose(2, 0, 1).ravel(), (rows.ravel(), cols.ravel())),
                        shape=(n, n)).tocsr()
    assert_same_csr(got.assemble(elem), coo, "assembled")


def test_quadrature_points_are_the_einsum_points(meshes):
    for name, m in meshes.items():
        for a, b in zip(fem.quad_points(m), ref_quad_points(m)):
            assert_same(a, b, name)


def test_vector_mass_slots_are_the_searched_slots(meshes):
    for name, m in meshes.items():
        space = fem.FemSpace(m)
        assert_same(space.vector_mass_slots,
                    ref_mass_slots(space.scalar_pattern, space.vector_pattern), name)


def test_boundary_patches_are_the_node_by_node_fits(meshes):
    for name, m in meshes.items():
        got = fem._boundary_patches(m, *fem._node_elements(m))
        ref = ref_boundary_patches(m, *fem._node_elements(m))
        assert len(got) == len(ref) == len(m.boundary_nodes), name
        for (e1, r1), (e2, r2) in zip(got, ref):
            assert_same(e1, e2, name)
            assert_same(r1, r2, name)


def test_dirichlet_plans_are_the_running_count_plans(meshes):
    rng = np.random.default_rng(11)
    for name, m in meshes.items():
        space, bn = fem.FemSpace(m), m.boundary_nodes
        for pattern, dofs in ((space.scalar_pattern, bn),
                              (space.vector_pattern, np.concatenate([2 * bn, 2 * bn + 1]))):
            A = pattern.matrix(rng.standard_normal(pattern.nnz))
            A.data[::5] = 0.0
            for plan_of, drop in ((pattern, False), (A, A.data == 0.0)):
                plan = fem.DirichletPlan(plan_of, dofs, drop)
                keep, pivots, indices, indptr = ref_dirichlet_plan(plan_of, dofs, drop)
                for got, ref in ((plan.keep, keep), (plan.pivots, pivots),
                                 (plan.indices, indices), (plan.indptr, indptr)):
                    assert_same(got, ref, name)


def test_mesh_file_is_the_formatted_file(tmp_path, meshes):
    odd = {  # signed zeros, a subnormal and a tiny coordinate, a negative and a huge tag
        "odd": Mesh(np.array([[0.0, -0.0], [1.0, 0.0], [-0.0, 1e-300], [5e-324, 2.0]]),
                    np.array([[0, 1, 2], [1, 3, 2]]), np.array([-7, 10**12])),
    }
    for name, m in dict(meshes, **odd).items():
        p, ref = tmp_path / "mesh.txt", tmp_path / "ref.txt"
        save_mesh(m, p)
        ref_save_mesh(m, ref)
        assert p.read_bytes() == ref.read_bytes(), name
