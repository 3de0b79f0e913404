"""P1 finite element kernel: quadrature, assembly, Dirichlet elimination, solves.

Scalar unknowns use one dof per node; vector (displacement) unknowns use the
interleaved ordering dof = 2*node + component.  All bilinear forms here are
symmetric and are assembled with a 3-point edge-midpoint rule (exact for an
affine coefficient times P1 x P1 terms); a 6-point degree-4 rule is available
for exactness checks.  The kernels take a FemSpace, which holds the data that
depends on the mesh alone and is built once per mesh.

Matrices are canonical CSR on one fixed pattern per operator kind
(CsrPattern), bit for bit what SciPy's COO -> CSR conversion gives; Dirichlet
elimination masks their stored entries.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# barycentric points and weights (weights sum to 1, scale by element area)
_QUAD = {
    2: (
        np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        np.array([1.0, 1.0, 1.0]) / 3.0,
    ),
    4: (
        np.array(
            [
                [0.108103018168070, 0.445948490915965, 0.445948490915965],
                [0.445948490915965, 0.108103018168070, 0.445948490915965],
                [0.445948490915965, 0.445948490915965, 0.108103018168070],
                [0.816847572980459, 0.091576213509771, 0.091576213509771],
                [0.091576213509771, 0.816847572980459, 0.091576213509771],
                [0.091576213509771, 0.091576213509771, 0.816847572980459],
            ]
        ),
        np.array(
            [
                0.223381589678011,
                0.223381589678011,
                0.223381589678011,
                0.109951743655322,
                0.109951743655322,
                0.109951743655322,
            ]
        ),
    ),
}


class SolverError(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


def quad_points(mesh, order: int = 2):
    """(xq, wq, phi): points (nt,nq,2), weights (nt,nq), P1 values (nq,3)."""
    bary, w = _QUAD[order]
    p = mesh.nodes[mesh.triangles]  # (nt,3,2)
    xq = np.einsum("qa,tak->tqk", bary, p)
    wq = mesh.areas[:, None] * w[None, :]
    return xq, wq, bary


def _boundary_patches(mesh):
    """Recovery patches (elements, weights) for the boundary nodes.

    Area-weighted averaging is biased at boundary nodes (one-sided patches).
    Instead, fit a linear function to the element gradients over the element
    ring of the nearest interior node and evaluate the fit at the boundary
    node; the interior ring keeps the superconvergence of centroid sampling.
    """
    tri = mesh.triangles
    flat = tri.ravel()
    order = np.argsort(flat, kind="stable")
    start = np.searchsorted(flat[order], np.arange(mesh.num_nodes + 1))

    def node_elems(a):  # the elements around node a, in ascending order
        return order[start[a]:start[a + 1]] // 3

    def nbrs(a):
        # built in element order: the iteration order of the set, and so the
        # nearest candidate picked among equidistant ones, depends on it
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
        if not cand:  # corner node: widen to the second ring
            two = set()
            for a in nbrs(b):
                two.update(nbrs(a))
            cand = [a for a in two if interior[a]]
        cand = np.asarray(cand)
        dist = np.sum((mesh.nodes[cand] - mesh.nodes[b]) ** 2, axis=1)
        elems = node_elems(cand[np.argmin(dist)])
        # weighted least-squares linear fit of patch values, evaluated at the
        # boundary node: value = row @ data with row precomputed from the
        # design matrix [1, cx - x_b, cy - y_b] at the element centroids.
        d = centroids[elems] - mesh.nodes[b]
        X = np.column_stack([np.ones(len(elems)), d])
        w = mesh.areas[elems]
        A = X.T @ (w[:, None] * X)
        row = np.linalg.solve(A, X.T * w)[0]
        patches.append((elems, row))
    return patches


def _entry_rows(indptr):
    """The row of each stored entry of a CSR matrix with this indptr."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr))


class CsrPattern:
    """The CSR pattern of one operator kind and the plan that assembles on it.

    dofs (nt, k) lists the dofs of each element; element block elem (nt, k, k)
    puts elem[t, a, b] at (dofs[t, a], dofs[t, b]).  indptr and indices are
    SciPy's canonical CSR pattern of those entries, built once and shared,
    read-only, by every matrix assembled here.  assemble(elem) gives the
    matrix SciPy's coo_matrix(...).tocsr() gives, bit for bit: that path
    stores the entries row by row in input order, sorts each row with
    csr_sort_indices (not a stable sort) and sums the duplicates left to
    right.  perm replays that order, taken from sort_indices() itself on the
    unsummed CSR whose data are the entry numbers, and slot is the stored
    position of each entry in that order; np.bincount sums in input order
    too.  np.add.reduceat would not do: it sums pairwise.
    """

    def __init__(self, dofs, n):
        k = dofs.shape[1]
        idx = np.int32 if max(n, dofs.size * k) <= np.iinfo(np.int32).max else np.int64
        dofs = dofs.astype(idx)
        # entry (t, a, b) is number (t k + a) k + b, in row dofs[t, a]: a
        # stable argsort of the element dofs, each expanded to its k entries,
        # lists the entries row by row in input order, as SciPy's COO -> CSR
        # conversion stores them before it sorts each row
        by_dof = np.argsort(dofs.ravel(), kind="stable").astype(idx)
        counts = np.bincount(dofs.ravel(), minlength=n) * k
        unsummed = sp.csr_matrix(((by_dof[:, None] * k + np.arange(k, dtype=idx)).ravel(),
                                  dofs[by_dof // k].ravel(),
                                  np.concatenate([[0], np.cumsum(counts)]).astype(idx)),
                                 shape=(n, n))
        unsummed.sort_indices()
        self.perm = unsummed.data
        # an entry opens a new slot at the start of its row or where its
        # column differs from the entry before it
        j = unsummed.indices
        first = np.ones(len(j), dtype=bool)
        first[1:] = j[1:] != j[:-1]
        first[unsummed.indptr[:-1][counts > 0]] = True
        before = np.concatenate([[0], np.cumsum(first)])  # slots before each entry
        self.slot = before[1:] - 1
        self.indices = j[first]
        self.indptr = before[unsummed.indptr].astype(idx)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        self.nnz = len(self.indices)
        self.shape = (n, n)

    def matrix(self, data):
        """The CSR matrix with this pattern and the stored values data (nnz,)."""
        A = sp.csr_matrix((data, self.indices, self.indptr), shape=self.shape)
        A.has_canonical_format = True
        return A

    def assemble(self, elem):
        """Sum the element blocks elem (nt, k, k) into a matrix."""
        return self.matrix(np.bincount(self.slot, weights=elem.ravel()[self.perm],
                                       minlength=self.nnz))


class FemSpace:
    """The P1 space on one mesh: the data that depends on the mesh alone.

    Build it once per mesh, in the object that owns the mesh, and pass it to
    the kernels below, so that quadrature points, node area sums and the
    gradient-recovery operator are not recomputed on every call.

    The element-constant load operators source_load and flux_load map
    per-element data, flattened element-major, to the load vector of the
    source and the flux form, so that a block of right-hand sides costs one
    sparse product per form (per component for the vector forms).  Like
    average and recovery they are built on first use: only the cell
    problems need them.

    unit_stiffness, the (nt, 3, 3) products g_a . g_b of the element
    gradients, is built on first use too: a scalar stiffness is its element
    integral times this block.

    scalar_pattern and vector_pattern, the CSR patterns of the scalar and
    the interleaved vector operators, are built on first assembly of their
    kind.  vector_mass_slots (nnz_scalar, 2) holds the vector_pattern
    positions of the entries (2i, 2j) and (2i+1, 2j+1) of each stored scalar
    entry (i, j): a scalar M added there is the interleaved kron(M, I_2).
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.xq, self.wq, self.phi = quad_points(mesh)
        self.node_area = np.bincount(mesh.triangles.ravel(), weights=np.repeat(mesh.areas, 3),
                                     minlength=mesh.num_nodes)

    def at_quadrature(self, nodal):
        """P1 interpolation of nodal values, (..., nn) -> (..., nt, nq)."""
        return np.asarray(nodal, dtype=float)[..., self.mesh.triangles] @ self.phi.T

    def element_integrals(self, nodal):
        """Integral of a P1 field over each element, (..., nn) -> (nt, ...).

        The area times the mean of the vertex values, which is also what the
        3-point rule gives, with the element axis first, as the assembly
        kernels read it.
        """
        nodal = np.asarray(nodal, dtype=float)
        flat = self._p1_integral @ nodal.reshape(-1, nodal.shape[-1]).T
        return flat.reshape((-1,) + nodal.shape[:-1])

    @cached_property
    def _p1_integral(self):
        """(nt, nn) operator: nodal values -> element integrals of their P1 field."""
        mesh = self.mesh
        return sp.csr_matrix((np.repeat(mesh.areas / 3.0, 3), mesh.triangles.ravel(),
                              np.arange(0, mesh.triangles.size + 1, 3)),
                             shape=(mesh.num_triangles, mesh.num_nodes))

    # Products of element gradients run with the element axis last, over nt
    # contiguous values each: numpy is slow on the short axes of (nt, 3, 2).
    @cached_property
    def grads_last(self):
        """(2, 3, nt): the element gradients with the element axis last, [i, a, t] = g_ai on t."""
        return np.ascontiguousarray(self.mesh.grads.transpose(2, 1, 0))

    @cached_property
    def unit_stiffness(self):
        """(nt, 3, 3): g_a . g_b in each element, the stiffness block of a unit integral."""
        g0, g1 = self.grads_last
        return np.ascontiguousarray(np.moveaxis(g0[:, None] * g0 + g1[:, None] * g1, -1, 0))

    # The two operators below are built on first use: the cell operators
    # never need them, and the boundary patches cost a Python loop.
    @cached_property
    def average(self):
        """(nn, nt) operator: area average of element values at each node."""
        mesh = self.mesh
        rows = mesh.triangles.ravel()
        cols = np.repeat(np.arange(mesh.num_triangles), 3)
        vals = np.repeat(mesh.areas, 3) / self.node_area[rows]
        return sp.csr_matrix((vals, (rows, cols)), shape=(mesh.num_nodes, mesh.num_triangles))

    @cached_property
    def recovery(self):
        """(nn, nt) gradient-recovery operator applied to element gradients.

        The area average, with each boundary row replaced by the
        least-squares patch row of that node.
        """
        mesh = self.mesh
        avg = self.average.tocoo()
        keep = ~np.isin(avg.row, mesh.boundary_nodes)
        patches = _boundary_patches(mesh)
        rows = [avg.row[keep]] + [np.full(len(e), b) for b, (e, _) in zip(mesh.boundary_nodes, patches)]
        cols = [avg.col[keep]] + [e for e, _ in patches]
        vals = [avg.data[keep]] + [r for _, r in patches]
        return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=avg.shape)

    @cached_property
    def scalar_pattern(self):
        return CsrPattern(self.mesh.triangles, self.mesh.num_nodes)

    @cached_property
    def vector_pattern(self):
        return CsrPattern(vector_dofs(self.mesh.triangles), 2 * self.mesh.num_nodes)

    @cached_property
    def vector_mass_slots(self):
        s, v = self.scalar_pattern, self.vector_pattern
        n = v.shape[1]
        # row-major keys of the stored entries, ascending in canonical CSR
        keys = _entry_rows(v.indptr).astype(np.int64) * n + v.indices
        rows = _entry_rows(s.indptr).astype(np.int64)
        return np.stack([np.searchsorted(keys, (2 * rows + c) * n + 2 * s.indices + c)
                         for c in (0, 1)], axis=1)

    # The two element-constant load operators below serve the vector forms
    # too: component i of integral f_i v_i or of integral G_ij dv_i/dx_j is
    # the scalar load of f_i or of the row G_i.
    def _load(self, elem):
        """(nn, nt * per) operator from elem (nt, per, 3): column t * per + c
        adds elem[t, c, a] at node a of element t."""
        mesh = self.mesh
        nt, per = elem.shape[:2]
        rows = np.repeat(mesh.triangles, per, axis=0)
        return sp.csc_matrix((elem.ravel(), rows.ravel(), np.arange(0, elem.size + 1, 3)),
                             shape=(mesh.num_nodes, nt * per))

    @cached_property
    def source_load(self):
        """(nn, nt): element-constant f -> integral f v."""
        return self._load((self.wq @ self.phi)[:, None, :])

    @cached_property
    def flux_load(self):
        """(nn, 2 nt): element-constant g (nt, 2) -> integral g_i dv/dx_i."""
        mesh = self.mesh
        return self._load((mesh.areas[:, None, None] * mesh.grads).transpose(0, 2, 1))


def _as_tq(space, coef, extra=()):
    """Broadcast a coefficient spec to shape (nt, nq, *extra)."""
    target = space.wq.shape + extra
    nt = target[0]
    arr = np.asarray(coef, dtype=float)
    if arr.shape == target:
        return arr
    if arr.ndim == 0:
        return np.broadcast_to(arr, target)
    if arr.shape == (nt,) + extra:  # constant per element
        return np.broadcast_to(arr[:, None], target)
    if arr.shape == extra:  # one constant tensor
        return np.broadcast_to(arr, target)
    raise ValueError(f"coefficient shape {arr.shape} not broadcastable to {target}")


def _element_integral(space, coef, extra):
    """Integral over each element of a coefficient given per quadrature point, (nt, *extra)."""
    return np.einsum("tq,tq...->t...", space.wq, _as_tq(space, coef, extra))


# An element-constant coefficient (the cell operators' input) is contracted
# with the original expressions below, not with the element integral: the
# benchmark's coefficients.csv digest pins columns that are pure rounding
# noise, and integrating first rounds them differently.  Drop this branch
# when that digest scales its tolerance by the whole tensor.
def _varies_over_quadrature(space, coef, extra):
    return np.shape(coef) == space.wq.shape + extra


def assemble_grad_grad(space, coef, *, integrated: bool = False):
    """Stiffness for the form  integral  (coef grad u) . grad v.

    coef: scalar, (nt,), (nt,nq), 2x2 tensor, (nt,2,2) or (nt,nq,2,2) values;
    with integrated=True, the integral of coef over each element, (nt,) or
    (nt,2,2).  A scalar integral k_t gives the block k_t (g_a . g_b).
    """
    g = space.mesh.grads
    arr = np.asarray(coef, dtype=float)
    if arr.ndim >= 2 and arr.shape[-2:] == (2, 2):
        k = arr if integrated else _element_integral(space, arr, (2, 2))
        gl = space.grads_last
        elem = np.einsum("ijt,iat,jbt->abt", np.ascontiguousarray(np.moveaxis(k, 0, -1)), gl, gl)
        elem = np.moveaxis(elem, -1, 0)
    elif integrated or _varies_over_quadrature(space, arr, ()):
        k = arr if integrated else _element_integral(space, arr, ())
        elem = k[:, None, None] * space.unit_stiffness
    else:
        kg = np.einsum("tq,tbi->tbi", space.wq * _as_tq(space, arr), g)
        elem = np.einsum("tai,tbi->tab", g, kg)
    return space.scalar_pattern.assemble(elem)


def assemble_mass(space, coef):
    """Mass matrix for the form  integral  coef u v: (w_q coef_q) @ (phi_qa phi_qb)."""
    wq, phi = space.wq, space.phi
    elem = (wq * _as_tq(space, coef)) @ (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), 9)
    return space.scalar_pattern.assemble(elem.reshape(-1, 3, 3))


def vector_dofs(triangles):
    """(nt,6) interleaved displacement dofs [n0x,n0y,n1x,n1y,n2x,n2y]."""
    d = np.empty(triangles.shape[:1] + (6,), dtype=np.int64)
    d[:, 0::2] = 2 * triangles
    d[:, 1::2] = 2 * triangles + 1
    return d


def assemble_elasticity(space, c, *, integrated: bool = False):
    """Stiffness for  integral  c_ijkl du_k/dx_l dv_i/dx_j  (2-component).

    c: 2x2x2x2 tensor values, one, (nt,...) or (nt,nq,...); with
    integrated=True, the integral of c over each element (nt,2,2,2,2), or,
    for an isotropic c = lame d_ij d_kl + mu (d_ik d_jl + d_il d_jk), the
    pair (lame, mu) of the element integrals of its Lame parameters, each
    (nt,).
    """
    mesh, g = space.mesh, space.mesh.grads
    # trial dof (a,k): du_k/dx_l = grads[t,a,l]; test dof (b,i) likewise
    if integrated and isinstance(c, tuple):
        ke = _isotropic_elasticity(space, *c)
    elif integrated or _varies_over_quadrature(space, c, (2, 2, 2, 2)):
        cbar = c if integrated else _element_integral(space, c, (2, 2, 2, 2))
        ke = np.einsum("tijkl,tal,tbj->tbiak", cbar, g, g, optimize=True)
    else:
        cq = _as_tq(space, c, (2, 2, 2, 2))
        ke = np.einsum("tq,tqijkl,tal,tbj->tbiak", space.wq, cq, g, g)
    return space.vector_pattern.assemble(ke.reshape(mesh.num_triangles, 6, 6))


def _isotropic_elasticity(space, lame, mu):
    """(nt, 3, 2, 3, 2) blocks lame g_bi g_ak + mu (g_bk g_ai + d_ik g_a . g_b).

    Entry (t, b, i, a, k): test dof (b, i), trial dof (a, k).  The (i, k) =
    (1, 0) block is the transpose of the (0, 1) block.
    """
    g0, g1 = space.grads_last  # (3, nt) each
    x00, x11, x01 = g0[:, None] * g0, g1[:, None] * g1, g0[:, None] * g1  # g_bi g_ak
    mgg = mu * (x00 + x11)
    ke = np.empty((3, 2, 3, 2, len(mu)))
    ke[:, 0, :, 0] = (lame + mu) * x00 + mgg
    ke[:, 1, :, 1] = (lame + mu) * x11 + mgg
    ke[:, 0, :, 1] = lame * x01 + mu * x01.transpose(1, 0, 2)
    ke[:, 1, :, 0] = ke[:, 0, :, 1].transpose(1, 0, 2)
    return np.ascontiguousarray(np.moveaxis(ke, -1, 0))


def _scatter(elem, dofs, n):
    """Sum per-element load entries into a length-n vector.

    elem holds one entry per element dof, in the order of dofs (nt, k); the
    entries are added one after another in that order, into zeros.
    np.add.at, not np.bincount: on numpy 2.4 bincount sums in the same order
    but is slower per call and raised the peak RSS of `homsim online`.
    """
    out = np.zeros(n)
    np.add.at(out, dofs.ravel(), elem.ravel())
    return out


def assemble_source(space, f):
    """Load vector  integral  f v."""
    mesh, wq, phi = space.mesh, space.wq, space.phi
    fq = _as_tq(space, f)
    elem = np.einsum("tq,qa->ta", wq * fq, phi)
    return _scatter(elem, mesh.triangles, mesh.num_nodes)


def assemble_flux(space, g):
    """Load vector  integral  g_i dv/dx_i  for a 2-vector density g."""
    mesh = space.mesh
    gq = _as_tq(space, g, (2,))
    elem = np.einsum("tq,tqi,tai->ta", space.wq, gq, mesh.grads)
    return _scatter(elem, mesh.triangles, mesh.num_nodes)


def assemble_vector_source(space, f):
    """Load vector  integral  f_i v_i  (interleaved dofs)."""
    mesh = space.mesh
    fq = _as_tq(space, f, (2,))
    elem = np.einsum("tq,tqi,qa->tai", space.wq, fq, space.phi)
    return _scatter(elem, vector_dofs(mesh.triangles), 2 * mesh.num_nodes)


def assemble_tensor_flux(space, G):
    """Load vector  integral  G_ij dv_i/dx_j  for a 2x2 tensor density G.

    A density of shape (nt, nq) holds the scalars s of the isotropic
    G = s d_ij at the quadrature points.
    """
    mesh = space.mesh
    if np.shape(G) == space.wq.shape:
        elem = _element_integral(space, G, ())[:, None, None] * mesh.grads
    elif _varies_over_quadrature(space, G, (2, 2)):
        elem = np.einsum("tij,taj->tai", _element_integral(space, G, (2, 2)), mesh.grads)
    else:
        Gq = _as_tq(space, G, (2, 2))
        elem = np.einsum("tq,tqij,taj->tai", space.wq, Gq, mesh.grads)
    return _scatter(elem, vector_dofs(mesh.triangles), 2 * mesh.num_nodes)


def element_gradient(mesh, nodal):
    """Per-element constant gradient of a P1 field.

    nodal shape (..., nn) -> gradient shape (..., nt, 2).
    """
    nodal = np.asarray(nodal, dtype=float)
    vt = nodal[..., mesh.triangles]  # (..., nt, 3)
    return np.einsum("...ta,tai->...ti", vt, mesh.grads)


# ---------------------------------------------------------------------------
# boundary conditions and solves
# ---------------------------------------------------------------------------


def apply_dirichlet(A, b, dofs, values):
    """Symmetric elimination of Dirichlet dofs; keeps the system SPD.

    Returns (A', b') where constrained rows/cols are zeroed with unit
    diagonal and b' forces the prescribed values; the solution of the
    reduced system carries the exact boundary values.

    A' is canonical CSR, a mask over the stored entries of A: those in kept
    rows and kept columns, less exact zeros, and the diagonal entry of each
    constrained row, set to 1; A must store that diagonal.  That is
    D A D + I - D, with D the diagonal of kept dofs, as SciPy's sparse
    products and sum compute it, bit for bit: they multiply by exact ones,
    add exact zeros and drop every entry that sums to zero.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    values = np.broadcast_to(np.asarray(values, dtype=float), dofs.shape)
    n = A.shape[0]
    x = np.zeros(n)
    x[dofs] = values
    b = b - A @ x
    A = A.tocsr()
    if not A.has_canonical_format:
        A = A.copy()
        A.sum_duplicates()
    fixed = np.zeros(n, dtype=bool)
    fixed[dofs] = True
    rows = _entry_rows(A.indptr)
    cut = fixed[rows] | fixed[A.indices]
    pivot = cut & (rows == A.indices)
    if np.count_nonzero(pivot) != np.count_nonzero(fixed):
        raise ValueError("apply_dirichlet: a constrained row stores no diagonal entry")
    keep = ~cut & (A.data != 0.0) | pivot
    before = np.concatenate([[0], np.cumsum(keep)])  # kept entries before each stored one
    data = A.data[keep]
    data[before[np.flatnonzero(pivot)]] = 1.0
    A = sp.csr_matrix((data, A.indices[keep], before[A.indptr].astype(A.indptr.dtype)),
                      shape=A.shape)
    A.has_canonical_format = True
    b[dofs] = values
    return A, b


def solve_spd(A, b, tol: float = 1e-10, max_iter: int = 20000):
    """Diagonally preconditioned conjugate gradients with residual guarantee.

    Only PeriodicMap.solve calls it, for the first-order periodic correctors
    (cell.CellOperators.solve_first); every other solve is factored
    (SpdSolver).  The benchmark's coefficients.csv digest pins the rounding
    of noise columns such as k_hat_12, which a factored solve would change.
    Delete this function with PeriodicMap.solve once that digest scales its
    tolerance by the whole tensor (ROADMAP item 1).

    The operator and the Jacobi step go to CG as plain callables; given the
    matrices, scipy wraps each one and sends every product through its
    matrix-matrix wrappers.
    """
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return np.zeros_like(b)
    dinv = 1.0 / A.diagonal()
    op = spla.LinearOperator(A.shape, matvec=A.__matmul__, dtype=float)
    M = spla.LinearOperator(A.shape, matvec=lambda r: dinv * r, dtype=float)
    x, info = spla.cg(op, b, rtol=tol * 1e-2, atol=0.0, maxiter=max_iter, M=M)
    res = np.linalg.norm(A @ x - b) / bn
    if res > tol:
        raise SolverError(f"conjugate gradients stalled at residual {res:.3e}", residual=res)
    return x


class SpdSolver:
    """Sparse LU factorization of one SPD matrix, with a residual guarantee.

    solve(b) runs the triangular solves for a right-hand side (n,) or a
    block of them (n, k), in one call.  solve_near(A, b, max_iter) solves a
    nearby matrix A by conjugate gradients preconditioned with this LU, so
    that a slowly varying operator can reuse one factorization over many
    solves.  Both check the relative residual of every right-hand side
    against tol, the contract of solve_spd, and leave the worst in
    self.residual.

    Every matrix given here is SPD, so SuperLU runs in its symmetric mode:
    minimum-degree ordering of A^T + A, the same permutation for rows and
    columns, and the diagonal as pivot (X. S. Li, "An overview of SuperLU",
    ACM TOMS 31, 2005).  That fills L + U about half as much as SciPy's
    default (COLAMD ordering of A^T A, partial pivoting), so the factor, its
    triangular solves and its memory all shrink.  self.fill is the number of
    entries SuperLU stores for L and U (its own count: the L and U
    properties would build CSC copies of both factors).  There is no
    pivoting to fall back on and no retry with the default ordering: a
    factor whose solve misses tol raises SolverError.

    default_ordering=True keeps SciPy's default.  Only cell.CellOperators
    passes it, for the Dirichlet-cell operators: their first-order
    correctors feed the benchmark's coefficients.csv digest, which pins the
    rounding of noise columns such as k_hat_12.  Delete the argument with
    CellOperators.solve_first and solve_spd once that digest scales its
    tolerance by the whole tensor (ROADMAP item 1).
    """

    def __init__(self, A, tol: float = 1e-10, *, default_ordering: bool = False):
        self.A = A.tocsc()
        self.tol = tol
        if default_ordering:
            self._lu = spla.splu(self.A)
        else:
            self._lu = spla.splu(self.A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
        self.fill = self._lu.nnz
        self.residual = 0.0

    def solve(self, b):
        """x with A x = b for b (n,) or (n, k); an all-zero column gives zeros."""
        b = np.asarray(b, dtype=float)
        cols = b.reshape(len(b), -1)
        bn = np.linalg.norm(cols, axis=0)
        live = bn > 0.0
        if not live.all():
            x = np.zeros_like(cols)
            self.residual = 0.0
            if live.any():
                x[:, live] = self.solve(cols[:, live])
            return x.reshape(b.shape)
        x = self._lu.solve(cols)
        res = self.residual = float(np.max(np.linalg.norm(self.A @ x - cols, axis=0) / bn))
        if res > self.tol:
            raise SolverError(f"factorized solve residual {res:.3e} above {self.tol}", residual=res)
        return x.reshape(b.shape)

    def solve_near(self, A, b, max_iter: int):
        """(x, iterations) for A x = b by CG preconditioned with this LU.

        CG stops at tol * 1e-2, as solve_spd does.  x is None when the
        residual is still above tol after max_iter iterations: the owner
        should then factor A itself.
        """
        b = np.asarray(b, dtype=float)
        bn = np.linalg.norm(b)
        if bn == 0.0:
            self.residual = 0.0
            return np.zeros_like(b), 0
        iterations = 0

        def count(_):
            nonlocal iterations
            iterations += 1

        M = spla.LinearOperator(A.shape, matvec=self._lu.solve, dtype=float)
        x, info = spla.cg(A, b, rtol=self.tol * 1e-2, atol=0.0, maxiter=max_iter, M=M,
                          callback=count)
        self.residual = np.linalg.norm(A @ x - b) / bn
        if info != 0 or self.residual > self.tol:
            return None, iterations
        return x, iterations


class PeriodicMap:
    """A cell operator constrained to periodic fields, for many right-hand sides.

    R has full-dof rows and reduced-dof columns, identifying opposite-boundary
    nodes of the unit cell, so that x_full = R x_red.  The reduced operator
    A = R^T K R, with the anchor (the origin corner master) additionally
    pinned to remove the constant null space, is built once here.  K is
    scalar (nn dofs) or interleaved vector (2 nn dofs).

    reduce(b) and expand(x) map a right-hand side, or a block (n, k) of
    them, to A's dofs and a solution back; cell.CellOperators factors A once
    (SpdSolver) and solves between them.  solve(b) is the Jacobi-CG path,
    kept only for the first-order correctors (see solve_spd).
    """

    def __init__(self, mesh, masters, slaves, K):
        nn = mesh.num_nodes
        components = K.shape[0] // nn
        rep = np.arange(nn)
        rep[slaves] = masters
        keep = np.setdiff1d(np.arange(nn), slaves)
        col_of = -np.ones(nn, dtype=np.int64)
        col_of[keep] = np.arange(len(keep))
        rows = np.arange(nn)
        cols = col_of[rep[rows]]
        a = col_of[rep[int(np.argmin(np.sum(mesh.nodes**2, axis=1)))]]
        if components == 1:
            R = sp.coo_matrix((np.ones(nn), (rows, cols)), shape=(nn, len(keep)))
            self.anchors = np.array([a])
        else:
            r2 = np.concatenate([2 * rows, 2 * rows + 1])
            c2 = np.concatenate([2 * cols, 2 * cols + 1])
            R = sp.coo_matrix((np.ones(2 * nn), (r2, c2)), shape=(2 * nn, 2 * len(keep)))
            self.anchors = np.array([2 * a, 2 * a + 1])
        self.R = R.tocsr()
        Ar = (self.R.T @ K @ self.R).tocsr()
        self.A, _ = apply_dirichlet(Ar, np.zeros(Ar.shape[0]), self.anchors, 0.0)

    def reduce(self, b):
        # the anchored right-hand side apply_dirichlet gives for the value 0
        br = self.R.T @ b
        br[self.anchors] = 0.0
        return br

    def expand(self, x):
        return self.R @ x

    def solve(self, b, tol: float = 1e-10):
        return self.expand(solve_spd(self.A, self.reduce(b), tol=tol))
