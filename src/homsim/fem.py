"""P1 finite element kernel: quadrature, assembly, Dirichlet elimination, solves.

Scalar unknowns use one dof per node; vector (displacement) unknowns use the
interleaved ordering dof = 2*node + component.  All bilinear forms here are
symmetric and are assembled with a 3-point edge-midpoint rule (exact for an
affine coefficient times P1 x P1 terms).  The kernels take a FemSpace, which
holds the data that depends on the mesh alone and is built once per mesh, and
each takes its coefficient in one form: element integrals for the stiffness
kernels, quadrature-point values for the others, one value per element for
the cell stage's block of kernels.

Matrices are canonical CSR (CsrMatrix) on one fixed pattern per operator
kind (CsrPattern), bit for bit what SciPy's COO -> CSR conversion gives,
and load vectors are bit for bit an np.add.at scatter.  Both are one sparse product
with a 0/1 operator the pattern holds: CsrPattern.assemble takes the element
blocks element-last, (k, k, nt), so no block is copied back to element-first
order, and CsrPattern.scatter takes the element loads element-first, (nt, k);
a block of loads is the same product with one column per load
(cell._solve_family).
apply_dirichlet eliminates boundary dofs by masking the stored entries of any
matrix; DirichletPlan plans the same elimination once per pattern and dof
set, for a stepper that eliminates on every solve.
pcg is the one conjugate-gradient loop, for the Jacobi-preconditioned cell
solves (solve_spd) and the LU-preconditioned stepper solves
(SpdSolver.solve_near).

CsrMatrix is the one sparse operator: the matrices, and the operators that
are built once and then only multiply (CsrPattern's, PeriodicMap's, and
those CsrMatrix.by_rows builds for FemSpace and reconstruct).

fem is the one module that reaches SciPy, and it loads two of SciPy's
compiled modules, not the scipy packages (_scipy_kernel): the CSR kernels
(scipy.sparse._sparsetools), which CsrMatrix's products, CsrPattern's sort
and SpdSolver's CSC conversion call, and SuperLU's gstrf
(scipy.sparse.linalg._dsolve._superlu), which SpdSolver calls.  Each is
loaded on first use, and checked for every function fem calls in it
(KERNEL_FUNCTIONS), so import homsim.cli loads no SciPy, and neither does
verify, which builds no matrix; errors loads the CSR kernels alone, and the
off-line stage, online and dns load the two kernels.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from functools import cache, cached_property
from importlib.machinery import PathFinder

import numpy as np

#: relative residual every linear solve must meet
SOLVE_RTOL = 1e-10
#: conjugate gradients stop at this residual relative to the right-hand side
CG_RTOL = SOLVE_RTOL * 1e-2
#: iteration cap of the Jacobi-CG solve (solve_spd)
CG_MAX_ITER = 20000


class SolverError(RuntimeError):
    pass


def quad_points(mesh):
    """(xq, wq, phi) of the edge-midpoint rule: points (nt,nq,2), weights (nt,nq), P1 values (nq,3).

    Point q is the midpoint of the edge from vertex q to vertex q + 1, where
    phi is 1/2 at both ends and 0 at the third vertex.
    """
    bary = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    w = np.array([1.0, 1.0, 1.0]) / 3.0  # sums to 1, scaled by the element area
    p = np.take(mesh.nodes, mesh.triangles, axis=0)  # (nt,3,2)
    xq = p + np.take(p, [1, 2, 0], axis=1)
    xq *= 0.5
    wq = mesh.areas[:, None] * w[None, :]
    return xq, wq, bary


def _node_elements(mesh):
    """(nodes, elements): every (vertex, element) pair of mesh, node-major,
    with the elements of each node ascending: CSR order of a node-by-element
    operator."""
    flat = mesh.triangles.ravel()
    # a stable order is unique, and numpy sorts 16-bit keys by radix, in
    # linear time: 0.5 ms against 2.8 ms for the int64 keys of the
    # 14,497-node tiled mesh on a 2-core x86-64 host
    key = flat.astype(np.uint16) if mesh.num_nodes <= 1 << 16 else flat
    order = np.argsort(key, kind="stable")
    return flat[order], order // 3


def _boundary_patches(mesh, nodes, elems_by_node):
    """Recovery patches (elements, weights) for the boundary nodes.

    nodes, elems_by_node: _node_elements(mesh).  Area-weighted averaging is
    biased at boundary nodes (one-sided patches).  Instead, fit a linear
    function to the element gradients over the element ring of the nearest
    interior node and evaluate the fit at the boundary node; the interior
    ring keeps the superconvergence of centroid sampling.

    The nearest node is picked in Python, on lists; the fits of the patches
    of one size are then one stacked matmul and one stacked solve, which
    each run the LAPACK and BLAS call of a single patch, patch by patch.
    """
    tri = mesh.triangles
    start = np.searchsorted(nodes, np.arange(mesh.num_nodes + 1))

    def node_elems(a):  # the elements around node a, in ascending order
        return elems_by_node[start[a]:start[a + 1]]

    def nbrs(a):
        # built in element order: the iteration order of the set, and so the
        # nearest candidate picked among equidistant ones, depends on it
        return set(tri[node_elems(a)].ravel().tolist())

    interior = np.ones(mesh.num_nodes, dtype=bool)
    interior[mesh.boundary_nodes] = False
    interior = interior.tolist()
    nearest = []
    for b in mesh.boundary_nodes.tolist():
        cand = [a for a in nbrs(b) if interior[a]]
        if not cand:  # corner node: widen to the second ring
            two = set()
            for a in nbrs(b):
                two.update(nbrs(a))
            cand = [a for a in two if interior[a]]
        (xb, yb), dist = mesh.nodes[b].tolist(), []
        for xa, ya in mesh.nodes[cand].tolist():
            dist.append((xa - xb) * (xa - xb) + (ya - yb) * (ya - yb))
        nearest.append(cand[dist.index(min(dist))])  # the first of the nearest
    # weighted least-squares linear fit of patch values, evaluated at the
    # boundary node: value = row @ data with row precomputed from the design
    # matrix [1, cx - x_b, cy - y_b] at the element centroids
    size = np.diff(start)[nearest]
    patches = [None] * len(nearest)
    for m in np.unique(size).tolist():
        which = np.flatnonzero(size == m)
        elems = np.array([node_elems(nearest[i]) for i in which.tolist()])
        p = np.take(mesh.nodes, tri[elems], axis=0)  # the vertices, (patches, m, 3, 2)
        centroids = (p[..., 0, :] + p[..., 1, :] + p[..., 2, :]) / 3.0  # np.mean's order
        X = np.ones(elems.shape + (3,))
        X[..., 1:] = centroids - mesh.nodes[mesh.boundary_nodes[which]][:, None]
        w = mesh.areas[elems]
        Xt = X.transpose(0, 2, 1)
        rows = np.linalg.solve(Xt @ (w[..., None] * X), Xt * w[:, None])[:, 0]
        for i, e, row in zip(which.tolist(), elems, rows):
            patches[i] = (e, row)
    return patches


def _entry_rows(indptr):
    """The row of each stored entry of a CSR matrix with this indptr."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype), np.diff(indptr))


class KernelError(ImportError):
    """The installed SciPy lacks a compiled module, or a function in one, that
    fem calls; the message names SciPy's version, read without importing it."""

    def __init__(self, what):
        from importlib import metadata

        try:
            version = "SciPy " + metadata.version("scipy")
        except metadata.PackageNotFoundError:
            version = "no installed SciPy"
        super().__init__(f"{version} has no {what}")


#: the functions fem calls in each of SciPy's compiled modules it loads
KERNEL_FUNCTIONS = {
    "sparse._sparsetools": ("csr_matvec", "csr_matvecs", "csr_diagonal", "csr_tocsc",
                            "csr_has_sorted_indices", "csr_sort_indices"),
    "sparse.linalg._dsolve._superlu": ("gstrf",),
}


@cache
def _scipy_kernel(path):
    """SciPy's compiled module scipy.<path>, loaded from its file on first use.

    Only the extension module runs, none of the scipy packages above it: in
    a process that has imported homsim.cli, import scipy.sparse takes
    0.13-0.18 s and scipy.sparse.linalg 0.05-0.07 s more, where loading
    both kernels used here takes 3 ms (2-core x86-64 host).  The module is
    registered in sys.modules under its own name, so a later import of SciPy
    in the process reuses it, as this reuses one SciPy has loaded.

    Each module is looked up and checked once per process: a missing
    module, or one without a function KERNEL_FUNCTIONS lists for it, raises
    KernelError before any kernel runs.
    """
    name = "scipy." + path
    module = sys.modules.get(name)
    if module is None:
        scipy = PathFinder.find_spec("scipy")
        spec = scipy and PathFinder.find_spec(
            name, [os.path.join(scipy.submodule_search_locations[0], *path.split(".")[:-1])])
        if spec is None:
            raise KernelError(f"module {name}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    missing = [f for f in KERNEL_FUNCTIONS[path] if not hasattr(module, f)]
    if missing:
        raise KernelError(f"{', '.join(missing)} in {name}")
    sys.modules[name] = module
    return module


class CsrMatrix:
    """A CSR matrix held as SciPy's csr_matrix holds it: data, indices, indptr.

    self @ x calls the kernel SciPy's csr_matrix @ x calls, csr_matvec for x
    (m,) or (m, 1) and csr_matvecs for x (m, k), on the same arrays, so the
    two products agree bit for bit: each row sums from 0.0 in stored order.
    diagonal() is SciPy's csr_diagonal.  Every matrix fem assembles or
    eliminates is canonical (each row's columns ascending, none twice), which
    apply_dirichlet and SpdSolver require.
    """

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = shape
        self.nnz = len(indices)

    @classmethod
    def by_rows(cls, rows, cols, data, shape):
        """The CsrMatrix of the entries (rows[s], cols[s], data[s]), each
        row's stored, and so summed, in the order given: a stable sort puts
        the entries in rows.  The indices are int32 where they fit, which
        halves what a fine mesh's operators keep."""
        rows = np.asarray(rows)
        idx = np.int32 if max(shape + (len(rows),)) <= np.iinfo(np.int32).max else np.int64
        order = np.argsort(rows, kind="stable")
        indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=shape[0])))
        return cls(np.take(data, order), np.take(cols, order).astype(idx), indptr.astype(idx), shape)

    def __matmul__(self, x):
        x = np.asarray(x, dtype=float)
        m, n = self.shape
        if x.ndim not in (1, 2) or len(x) != n:
            raise ValueError(f"CsrMatrix of shape {self.shape} cannot multiply x of shape {x.shape}")
        kernels = _scipy_kernel("sparse._sparsetools")
        if x.shape[1:] in ((), (1,)):
            y = np.zeros(m)
            kernels.csr_matvec(m, n, self.indptr, self.indices, self.data, x.ravel(), y)
            return y.reshape((m,) + x.shape[1:])
        y = np.zeros((m, x.shape[1]))
        kernels.csr_matvecs(m, n, x.shape[1], self.indptr, self.indices, self.data, x.ravel(),
                            y.ravel())
        return y

    def diagonal(self):
        d = np.empty(min(self.shape))
        _scipy_kernel("sparse._sparsetools").csr_diagonal(0, *self.shape, self.indptr, self.indices,
                                                            self.data, d)
        return d


class CsrPattern:
    """The CSR pattern of one operator kind and the two operators that assemble on it.

    dofs (nt, k) lists the dofs of each element; the element blocks elem
    (k, k, nt), element axis last, put elem[a, b, t] at (dofs[t, a],
    dofs[t, b]).  indptr and indices are SciPy's canonical CSR pattern of
    those entries, built once and shared, read-only, by every matrix
    assembled here.

    sum (nnz, k^2 nt) and load (n, k nt) are read-only 0/1 CsrMatrix operators.
    Row s of sum lists the entries that sum into stored slot s, by their flat
    position (a k + b) nt + t in elem, in the order SciPy's
    coo_matrix(...).tocsr() adds them: that path stores the entries row by
    row in input order, blocks (t, a, b) element-first, sorts each row with
    csr_sort_indices (not a stable sort) and sums the duplicates left to
    right.  The order is taken from csr_sort_indices itself, called as
    sort_indices() calls it, on the unsummed CSR whose data are the entry
    numbers; the sort compares columns only, so element-last numbers give
    the order element-first ones give.  Row i of load lists the positions
    t k + a of dof i in dofs, in input order.
    SciPy's csr_matvec sums each row left to right from 0.0 and multiplies by
    exact ones, so assemble(elem) is bit for bit SciPy's COO path and
    scatter(entries) is bit for bit np.add.at of the entries into zeros.

    The entries are put in rows by one stable argsort of the element dofs,
    on 16-bit keys while n <= 65,536 (numpy sorts those by radix; a larger
    n sorts the dofs as they are), and the two operators share one array of
    ones, the first dofs.size of which are load's.
    """

    def __init__(self, dofs, n):
        k = dofs.shape[1]
        idx = np.int32 if max(n, dofs.size * k) <= np.iinfo(np.int32).max else np.int64
        dofs = dofs.astype(idx)
        # entry (t, a, b) lies in row dofs[t, a]: a stable argsort of the
        # element dofs, each expanded to its k entries, lists the entries row
        # by row in input order, as SciPy's COO -> CSR conversion stores them
        # before it sorts each row
        nt = len(dofs)
        # a stable order is unique, whatever the width of the keys
        flat = dofs.ravel()
        by_dof = np.argsort(flat.astype(np.uint16) if n <= 1 << 16 else flat, kind="stable")
        by_dof = by_dof.astype(idx)
        at_dof = np.append(0, np.cumsum(np.bincount(flat, minlength=n))).astype(idx)
        t, a = np.divmod(by_dof, idx(k))
        # the number of entry (t, a, b) is (a k + b) nt + t, written one b at
        # a time: numpy broadcasts slowly over a short inner axis
        number = np.empty((len(t), k), dtype=idx)
        start = a * idx(k * nt) + t
        for b in range(k):
            np.add(start, idx(b * nt), out=number[:, b])
        number = number.ravel()
        # the unsummed CSR, sorted as its sort_indices() sorts it: each row
        # by csr_sort_indices, unless every row is sorted already
        j, indptr = np.take(dofs, t, axis=0).ravel(), at_dof * idx(k)
        kernels = _scipy_kernel("sparse._sparsetools")
        if not kernels.csr_has_sorted_indices(n, indptr, j):
            kernels.csr_sort_indices(n, indptr, j, number)
        # an entry opens a new slot at the start of its row or where its
        # column differs from the entry before it
        first = np.ones(len(j), dtype=bool)
        first[1:] = j[1:] != j[:-1]
        first[indptr[:-1][np.diff(at_dof) > 0]] = True
        opens = np.flatnonzero(np.append(first, True)).astype(idx)
        self.indices = np.take(j, opens[:-1])
        self.indptr = np.searchsorted(opens, indptr).astype(idx)
        self.nnz = len(self.indices)
        self.shape = (n, n)
        ones = np.ones(len(j))
        self.sum = CsrMatrix(ones, number, opens, (self.nnz, len(j)))
        self.load = CsrMatrix(ones[:dofs.size], by_dof, at_dof, (n, dofs.size))
        for A in (self.sum, self.load):
            A.data.flags.writeable = False
        for A in (self, self.sum, self.load):
            A.indices.flags.writeable = A.indptr.flags.writeable = False

    def matrix(self, data):
        """The CsrMatrix with this pattern and the stored values data (nnz,)."""
        return CsrMatrix(data, self.indices, self.indptr, self.shape)

    def assemble(self, elem):
        """Sum the element blocks elem (k, k, nt) into a matrix."""
        return self.matrix(self.sum @ elem.ravel())

    def scatter(self, entries):
        """Sum the element loads entries, (nt, k) flattened, into a vector (n,)."""
        return self.load @ entries.ravel()


class FemSpace:
    """The P1 space on one mesh: the data that depends on the mesh alone.

    Build it once per mesh, in the object that owns the mesh, and pass it to
    the kernels below, so that quadrature points, node area sums and the
    gradient-recovery operator are not recomputed on every call.

    average and recovery, the CsrMatrix operators that map element values
    to the nodes, are built on first use from the node-major list of the
    elements around each node, which the boundary patches of recovery read
    too.

    unit_stiffness, the (3, 3, nt) products g_a . g_b of the element
    gradients, is built on first use too: a scalar stiffness is its element
    integral times this block.

    scalar_pattern and vector_pattern, the CSR patterns of the scalar and
    the interleaved vector operators and loads, are built on first assembly
    of their kind.  Every load vector, and every block of them, is one
    product with a pattern's load operator: the kernels below and the
    second-order cell loads (cell._solve_family) compute the element loads,
    and the pattern sums them.  vector_mass_slots (nnz_scalar, 2) holds the
    vector_pattern positions of the entries (2i, 2j) and (2i+1, 2j+1) of
    each stored scalar entry (i, j): a scalar M added there is the
    interleaved kron(M, I_2).
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.xq, self.wq, self.phi = quad_points(mesh)
        self.node_area = np.bincount(mesh.triangles.ravel(), weights=np.repeat(mesh.areas, 3),
                                     minlength=mesh.num_nodes)

    def at_quadrature(self, nodal):
        """P1 interpolation of nodal values, (..., nn) -> (..., nt, nq)."""
        return np.take(np.asarray(nodal, dtype=float), self.mesh.triangles, axis=-1) @ self.phi.T

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
        """(nt, nn) CsrMatrix: nodal values -> element integrals of their P1 field."""
        mesh = self.mesh
        return CsrMatrix(np.repeat(mesh.areas / 3.0, 3), mesh.triangles.ravel(),
                         np.arange(0, mesh.triangles.size + 1, 3), (mesh.num_triangles, mesh.num_nodes))

    # Products of element gradients run with the element axis last, over nt
    # contiguous values each: numpy is slow on the short axes of (nt, 3, 2).
    @cached_property
    def grads_last(self):
        """(2, 3, nt): the element gradients with the element axis last, [i, a, t] = g_ai on t."""
        return np.ascontiguousarray(self.mesh.grads.transpose(2, 1, 0))

    @cached_property
    def unit_stiffness(self):
        """(3, 3, nt): g_a . g_b in each element, the stiffness block of a unit integral."""
        g0, g1 = self.grads_last
        return g0[:, None] * g0 + g1[:, None] * g1

    def _average_weights(self, nodes, elems):
        """The weight of each (node, element) pair in average: the element's
        area over the node's area sum."""
        return self.mesh.areas[elems] / self.node_area[nodes]

    # The two operators below are built on first use: the cell operators
    # never need them, and the boundary patches cost a Python loop.
    @cached_property
    def average(self):
        """(nn, nt) CsrMatrix: area average of element values at each node."""
        nodes, elems = _node_elements(self.mesh)
        return CsrMatrix.by_rows(nodes, elems, self._average_weights(nodes, elems),
                                 (self.mesh.num_nodes, self.mesh.num_triangles))

    @cached_property
    def recovery(self):
        """(nn, nt) CsrMatrix: gradient recovery applied to element gradients.

        The area average, with each boundary row replaced by the
        least-squares patch row of that node.
        """
        mesh = self.mesh
        nodes, elems = _node_elements(mesh)
        patches = _boundary_patches(mesh, nodes, elems)
        interior = np.ones(mesh.num_nodes, dtype=bool)
        interior[mesh.boundary_nodes] = False
        keep = interior[nodes]
        nodes, elems = nodes[keep], elems[keep]
        rows = [nodes] + [np.full(len(e), b) for b, (e, _) in zip(mesh.boundary_nodes, patches)]
        cols = [elems] + [e for e, _ in patches]
        vals = [self._average_weights(nodes, elems)] + [r for _, r in patches]
        return CsrMatrix.by_rows(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                                 (mesh.num_nodes, mesh.num_triangles))

    @cached_property
    def scalar_pattern(self):
        return CsrPattern(self.mesh.triangles, self.mesh.num_nodes)

    @cached_property
    def vector_pattern(self):
        return CsrPattern(vector_dofs(self.mesh.triangles), 2 * self.mesh.num_nodes)

    @cached_property
    def vector_mass_slots(self):
        # vector row 2i + c stores the columns 2j, 2j + 1 of each column j of
        # scalar row i, ascending: the r-th entry of scalar row i sits at
        # 2r + c in vector row 2i + c
        s, v = self.scalar_pattern, self.vector_pattern
        rows = _entry_rows(s.indptr)
        offset = 2 * (np.arange(s.nnz) - s.indptr[rows])
        return np.stack([v.indptr[2 * rows + c] + offset + c for c in (0, 1)], axis=1)


def assemble_grad_grad(space, k):
    """Stiffness for the form  integral  (coef grad u) . grad v.

    k: the integral of coef over each element, (nt,) for a scalar coef or
    (nt,2,2) for a tensor one.  A scalar integral k_t gives the block
    k_t (g_a . g_b).
    """
    if np.ndim(k) == 3:
        gl = space.grads_last
        elem = np.einsum("ijt,iat,jbt->abt", np.ascontiguousarray(np.moveaxis(k, 0, -1)), gl, gl)
    else:
        elem = k * space.unit_stiffness
    return space.scalar_pattern.assemble(elem)


def assemble_mass(space, coef):
    """Mass matrix for the form  integral  coef u v, coef (nt,nq) at the quadrature
    points: (phi_qa phi_qb) @ (w_q coef_q)."""
    wq, phi = space.wq, space.phi
    elem = (phi[:, :, None] * phi[:, None, :]).reshape(len(phi), 9).T @ (wq * coef).T
    return space.scalar_pattern.assemble(elem.reshape(3, 3, -1))


def vector_dofs(triangles):
    """(nt,6) interleaved displacement dofs [n0x,n0y,n1x,n1y,n2x,n2y]."""
    d = np.empty(triangles.shape[:1] + (6,), dtype=np.int64)
    d[:, 0::2] = 2 * triangles
    d[:, 1::2] = 2 * triangles + 1
    return d


def assemble_elasticity(space, c):
    """Stiffness for  integral  c_ijkl du_k/dx_l dv_i/dx_j  (2-component).

    c: the integral of the tensor over each element, (nt,2,2,2,2), or, for
    an isotropic c = lame d_ij d_kl + mu (d_ik d_jl + d_il d_jk), the pair
    (lame, mu) of the element integrals of its Lame parameters, each (nt,).
    """
    # trial dof (a,k): du_k/dx_l = g_al; test dof (b,i) likewise
    if isinstance(c, tuple):
        ke = _isotropic_elasticity(space, *c)
    else:
        gl = space.grads_last
        ke = np.einsum("ijklt,lat,jbt->biakt", np.moveaxis(c, 0, -1), gl, gl, optimize=True)
    return space.vector_pattern.assemble(ke.reshape(6, 6, -1))


def _isotropic_elasticity(space, lame, mu):
    """(3, 2, 3, 2, nt) blocks lame g_bi g_ak + mu (g_bk g_ai + d_ik g_a . g_b).

    Entry (b, i, a, k, t): test dof (b, i), trial dof (a, k).  The (i, k) =
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
    return ke


# Quadrature point q is the midpoint of the edge from vertex q to vertex q + 1
# (quad_points), where phi is 1/2 at both ends and 0 at the third vertex, so
# the load at vertex a is half the sum of w f at its two edge midpoints, a and
# a - 1: exactly what the sum over q of w f phi_qa gives.
_EDGES_BEFORE = [2, 0, 1]  # the midpoint of the edge ending at each vertex


def assemble_source(space, f):
    """Load vector  integral  f v, f (nt,nq) at the quadrature points."""
    wf = space.wq * f
    return space.scalar_pattern.scatter(0.5 * (wf + np.take(wf, _EDGES_BEFORE, axis=1)))


def assemble_vector_source(space, f):
    """Load vector  integral  f_i v_i  (interleaved dofs), f (nt,nq,2) at the quadrature points."""
    wf = space.wq[..., None] * f
    return space.vector_pattern.scatter(0.5 * (wf + np.take(wf, _EDGES_BEFORE, axis=1)))


def assemble_tensor_flux(space, G):
    """Load vector  integral  G_ij dv_i/dx_j  for a 2x2 tensor density G.

    G: (nt,nq,2,2) at the quadrature points, or (nt,nq) holding the scalars
    s of the isotropic G = s d_ij there.
    """
    Gbar = np.einsum("tq,tq...->t...", space.wq, G)  # the integral over each element
    if Gbar.ndim == 1:
        elem = Gbar[:, None, None] * space.mesh.grads
    else:
        # Gbar_ij g_aj, element axis last, (i, a, t) scattered as (t, a, i)
        gl, Gl = space.grads_last, np.moveaxis(Gbar, 0, -1)
        elem = (Gl[:, 0, None] * gl[0] + Gl[:, 1, None] * gl[1]).transpose(2, 1, 0)
    return space.vector_pattern.scatter(elem)


# ---------------------------------------------------------------------------
# cell-stage kernels: one coefficient value per element, for cell.CellOperators
# and cell.solve_first_order.  The benchmark's coefficients.csv digest pins
# columns that are pure rounding noise (k_hat_12), so each kernel keeps the
# rounding of the one-step np.einsum, over a broadcast view of the values at the
# quadrature points, that produced the digest.  The elasticity and the tensor
# flux write that einsum's summation order out, with the element axis last:
# products in operand order, the q-sum formed from zero (_q_sum) and added to
# the output for each index of the outer summed axis in turn.  The pinned bits
# thus come from an order written here, not from einsum's stride-driven choice,
# which another numpy could change.  The scalar stiffness and the flux stay
# einsums: no written order reproduces theirs.  ROADMAP item 6 deletes this
# block once that digest scales its tolerance by the whole tensor; the cells
# then call the kernels above.
# ---------------------------------------------------------------------------


def sum_from_zero(terms):
    """0 + t_0 + t_1 + ... for arrays of one shape, added left to right.

    Each of einsum's sums is formed this way, in the order of its loop over
    the summed index, so a sum written with it in that order is einsum's bit
    for bit.
    """
    terms = iter(terms)
    total = 0.0 + next(terms)
    for t in terms:
        total += t
    return total


def _q_sum(space, term):
    """The sum over the quadrature points of term(w), w (nt,) the weights of one point."""
    return sum_from_zero(term(w) for w in space.wq.T)


def _per_point(space, values):
    """Element values (nt, ...) as a broadcast view (nt, nq, ...) over the quadrature points."""
    return np.broadcast_to(values[:, None], space.wq.shape + values.shape[1:])


def assemble_cell_grad_grad(space, k):
    """Stiffness of assemble_grad_grad for a scalar coefficient given per element, k (nt,)."""
    g = space.mesh.grads
    kg = np.einsum("tq,tbi->tbi", space.wq * _per_point(space, k), g)
    return space.scalar_pattern.assemble(np.einsum("tai,tbi->tab", g, kg).transpose(1, 2, 0))


def assemble_cell_elasticity(space, c):
    """Stiffness of assemble_elasticity for a tensor given per element, c (nt,2,2,2,2).

    The order of np.einsum("tq,tqijkl,tal,tbj->tbiak") over the broadcast
    view of c: for j, then l, the q-sum of ((w_q c_ijkl) g_al) g_bj, added.
    """
    gl, cl = space.grads_last, np.ascontiguousarray(np.moveaxis(c, 0, -1))
    # (b, i, a, k, t): test dof (b, i), trial dof (a, k)
    ke = sum_from_zero(_q_sum(space, lambda w: ((w * cl[:, j, :, l])[:, None] * gl[l][:, None])
                              * gl[j][:, None, None, None])
                       for j in range(2) for l in range(2))
    return space.vector_pattern.assemble(ke.reshape(6, 6, -1))


def assemble_flux(space, g):
    """Load vector  integral  g_i dv/dx_i  for a 2-vector density given per element, g (nt,2)."""
    elem = np.einsum("tq,tqi,tai->ta", space.wq, _per_point(space, g), space.mesh.grads)
    return space.scalar_pattern.scatter(elem)


def assemble_cell_tensor_flux(space, G):
    """Load vector of assemble_tensor_flux for a tensor density given per element, G (nt,2,2).

    The order of np.einsum("tq,tqij,taj->tai") over the broadcast view of G:
    for j, the q-sum of (w_q G_ij) g_aj, added.
    """
    gl, Gl = space.grads_last, np.moveaxis(G, 0, -1)
    elem = sum_from_zero(_q_sum(space, lambda w: (w * Gl[:, j])[None] * gl[j][:, None])
                         for j in range(2))  # (a, i, t)
    return space.vector_pattern.scatter(elem.transpose(2, 0, 1))


def element_gradient(mesh, nodal):
    """Per-element constant gradient of a P1 field.

    nodal shape (..., nn) -> gradient shape (..., nt, 2), component i the
    vertex sum of v_a g_ai from zero over a = 0, 1, 2: the order of
    np.einsum("...ta,tai->...ti"), with the element axis last.  The result
    has that einsum's memory layout too, element axis outermost, because
    the einsums that read the cell correctors' gradients sum in an order
    their operands' strides set.
    """
    nodal = np.asarray(nodal, dtype=float)
    g = mesh.grads
    v = [np.take(nodal, mesh.triangles[:, a], axis=-1) for a in range(3)]  # (..., nt) each
    out = np.moveaxis(np.empty(g.shape[:1] + nodal.shape[:-1] + (2,)), 0, -2)
    for i in range(2):
        out[..., i] = sum_from_zero(v[a] * g[:, a, i] for a in range(3))
    return out


# ---------------------------------------------------------------------------
# boundary conditions and solves
# ---------------------------------------------------------------------------


def apply_dirichlet(A, b, dofs, values):
    """Symmetric elimination of Dirichlet dofs; keeps the system SPD.

    Returns (A', b') where constrained rows/cols are zeroed with unit
    diagonal and b' forces the prescribed values; the solution of the
    reduced system carries the exact boundary values.

    A is a canonical CsrMatrix, and so is A', a mask over the stored
    entries of A: those in kept rows and kept columns, less exact zeros, and
    the diagonal entry of each constrained row, set to 1; A must store that
    diagonal.  That is D A D + I - D, with D the diagonal of kept dofs, as
    SciPy's sparse products and sum compute it, bit for bit: they multiply
    by exact ones, add exact zeros and drop every entry that sums to zero.
    """
    return DirichletPlan(A, dofs, drop=A.data == 0.0).apply(A, b, values)


class DirichletPlan:
    """Dirichlet elimination of dofs, planned once for the matrices on one pattern.

    pattern is a CsrPattern or a canonical CsrMatrix.  The plan keeps the
    mask of the stored entries that survive (those in kept rows and columns,
    less drop, and the diagonal of each constrained row), the positions of
    those diagonals among them, and the reduced indices and indptr, shared
    read-only by every matrix apply returns.  apply(A, b, values) is then
    apply_dirichlet as a gather of A.data, except that without drop the
    exact zeros of A stay stored.
    """

    def __init__(self, pattern, dofs, drop=False):
        self.dofs = np.asarray(dofs, dtype=np.int64)
        n = pattern.shape[0]
        fixed = np.zeros(n, dtype=bool)
        fixed[self.dofs] = True
        rows = _entry_rows(pattern.indptr)
        cut = np.repeat(fixed, np.diff(pattern.indptr)) | np.take(fixed, pattern.indices)
        pivot = cut & (rows == pattern.indices)
        if np.count_nonzero(pivot) != np.count_nonzero(fixed):
            raise ValueError("Dirichlet elimination: a constrained row stores no diagonal entry")
        self.keep = ~(cut | drop) | pivot
        kept = np.flatnonzero(self.keep)
        # the kept entries before a stored one are kept entries at lower positions
        self.pivots = np.searchsorted(kept, np.flatnonzero(pivot))
        self.indices = np.take(pattern.indices, kept)
        self.indptr = np.searchsorted(kept, pattern.indptr).astype(pattern.indptr.dtype)
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        self.shape = pattern.shape

    def apply(self, A, b, values):
        """(A', b') of apply_dirichlet(A, b, dofs, values), A on the planned pattern."""
        x = np.zeros(A.shape[0])
        x[self.dofs] = values
        b = b - A @ x
        b[self.dofs] = values
        data = A.data[self.keep]
        data[self.pivots] = 1.0
        return CsrMatrix(data, self.indices, self.indptr, self.shape), b


def pcg(A, b, precondition, max_iter: int, x0=None):
    """(x, iterations): preconditioned conjugate gradients for A x = b, A SPD.

    precondition(r) applies the preconditioner to a residual.  The loop is
    SciPy's cg step for step (scipy.sparse.linalg.cg with rtol=CG_RTOL,
    atol=0), so it gives its x and its iteration count bit for bit: from x0,
    or from zero, it stops at the top of the first iteration whose residual
    norm is below CG_RTOL * |b|.  iterations == max_iter means it never got
    there; x is then the last iterate.
    """
    atol = CG_RTOL * np.linalg.norm(b)
    if x0 is None or not np.any(x0):
        x, r = np.zeros_like(b), b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A @ x
    p = rho_prev = None
    for iteration in range(max_iter):
        if np.linalg.norm(r) < atol:
            return x, iteration
        z = precondition(r)
        rho = np.dot(r, z)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = A @ p
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, max_iter


def _require_finite(b, norm):
    """SolverError unless every entry of the right-hand side b is finite.

    Every solve checks its right-hand side here: a NaN norm would pass both
    its zero test and its residual check, each of which compares.  norm is
    b's 2-norm (each column's, for a block): it is finite unless b is, or
    unless squares overflow, so the entries are read only then, and a
    finite b costs no temporary.
    """
    if not np.isfinite(norm).all() and not np.isfinite(b).all():
        raise SolverError("the right-hand side is not finite")


def solve_spd(A, b):
    """Diagonally preconditioned conjugate gradients with residual guarantee.

    Only PeriodicMap.solve calls it, for the first-order periodic correctors
    (cell.CellOperators.solve_first); every other solve is factored
    (SpdSolver).  The benchmark's coefficients.csv digest pins the rounding
    of noise columns such as k_hat_12, which a factored solve would change.
    Delete this function with PeriodicMap.solve once that digest scales its
    tolerance by the whole tensor (ROADMAP item 6).
    """
    bn = np.linalg.norm(b)
    _require_finite(b, bn)
    if bn == 0.0:
        return np.zeros_like(b)
    dinv = 1.0 / A.diagonal()
    x, _ = pcg(A, b, lambda r: dinv * r, CG_MAX_ITER)
    res = np.linalg.norm(A @ x - b) / bn
    if not res <= SOLVE_RTOL:
        raise SolverError(f"conjugate gradients stalled at residual {res:.3e}")
    return x


class SpdSolver:
    """Sparse LU factorization of one SPD matrix, with a residual guarantee.

    solve(b) runs the triangular solves for a right-hand side (n,) or a
    block of them (n, k), in one call.  solve_near(A, b, max_iter, x0) solves
    a nearby matrix A by conjugate gradients (pcg) preconditioned with this
    LU, from x0 (zero if None), so that a slowly varying operator can reuse
    one factorization over many solves.  Both check the relative residual of
    every right-hand side against SOLVE_RTOL, the contract of solve_spd, and leave the worst in
    self.residual.

    Every matrix given here is SPD, so SuperLU runs in its symmetric mode:
    minimum-degree ordering of A^T + A, the same permutation for rows and
    columns, and the diagonal as pivot (X. S. Li, "An overview of SuperLU",
    ACM TOMS 31, 2005).  That fills L + U about half as much as SciPy's
    default (COLAMD ordering of A^T A, partial pivoting), so the factor, its
    triangular solves and its memory all shrink.  self.fill is the number of
    entries SuperLU stores for L and U.  There is no pivoting to fall back
    on and no retry with the default ordering: a factor whose solve misses
    SOLVE_RTOL raises SolverError.

    A is a canonical CsrMatrix.  SuperLU's gstrf is called as SciPy's splu
    calls it: on the CSC arrays A.tocsc() builds (csr_tocsc), with int
    indices, and with the options splu passes for the same arguments.  The
    factor has no L and U properties, which would build SciPy matrices.  The
    residuals are checked with A's CSR product, which sums each row in the
    column order the CSC product of A.tocsc() does, bit for bit.

    default_ordering=True keeps SciPy's default.  Only cell.CellOperators
    passes it, for the Dirichlet-cell operators: their first-order
    correctors feed the benchmark's coefficients.csv digest, which pins the
    rounding of noise columns such as k_hat_12.  Delete the argument with
    CellOperators.solve_first and solve_spd once that digest scales its
    tolerance by the whole tensor (ROADMAP item 6).
    """

    def __init__(self, A, *, default_ordering: bool = False):
        n, nnz = A.shape[0], A.nnz
        indptr, indices, data = np.empty(n + 1, np.intc), np.empty(nnz, np.intc), np.empty(nnz)
        _scipy_kernel("sparse._sparsetools").csr_tocsc(
            n, n, A.indptr.astype(np.intc, copy=False), A.indices.astype(np.intc, copy=False), A.data,
            indptr, indices, data)
        options = dict(DiagPivotThresh=None, ColPerm=None, PanelSize=None, Relax=None)
        if not default_ordering:
            options.update(DiagPivotThresh=0.0, ColPerm="MMD_AT_PLUS_A", SymmetricMode=True)
        self._lu = _scipy_kernel("sparse.linalg._dsolve._superlu").gstrf(
            n, nnz, data, indices, indptr, csc_construct_func=None, ilu=False, options=options)
        self.A = A
        self.fill = self._lu.nnz
        self.residual = 0.0

    def solve(self, b):
        """x with A x = b for b (n,) or (n, k); an all-zero column gives zeros,
        a non-finite b raises SolverError."""
        b = np.asarray(b, dtype=float)
        cols = b.reshape(len(b), -1)
        bn = np.linalg.norm(cols, axis=0)
        _require_finite(cols, bn)
        live = bn != 0.0
        if not live.all():
            x = np.zeros_like(cols)
            self.residual = 0.0
            if live.any():
                x[:, live] = self.solve(cols[:, live])
            return x.reshape(b.shape)
        x = self._lu.solve(cols)
        res = self.residual = float(np.max(np.linalg.norm(self.A @ x - cols, axis=0) / bn))
        if not res <= SOLVE_RTOL:
            raise SolverError(f"factorized solve residual {res:.3e} above {SOLVE_RTOL}")
        return x.reshape(b.shape)

    def solve_near(self, A, b, max_iter: int, x0):
        """(x, iterations) for A x = b by CG preconditioned with this LU.

        CG starts from x0 (zero if None) and stops at CG_RTOL, as solve_spd
        does.  x is None when CG has not stopped within max_iter iterations
        or the residual is not within SOLVE_RTOL: the owner should then
        factor A itself.  A non-finite b raises SolverError.
        """
        b = np.asarray(b, dtype=float)
        bn = np.linalg.norm(b)
        _require_finite(b, bn)
        if bn == 0.0:
            self.residual = 0.0
            return np.zeros_like(b), 0
        x, iterations = pcg(A, b, self._lu.solve, max_iter, x0)
        self.residual = np.linalg.norm(A @ x - b) / bn
        if iterations == max_iter or not self.residual <= SOLVE_RTOL:
            return None, iterations
        return x, iterations


class PeriodicMap:
    """A cell operator constrained to periodic fields, for many right-hand sides.

    rep maps each full dof to its reduced dof: opposite-boundary nodes of the
    unit cell share their master's dofs (interleaved, for a vector K).  R,
    the 0/1 matrix of rep, has x_full = R x_red.  A = R^T K R, with the
    anchor (the origin corner master) pinned to remove the constant null
    space, is built once here, bit for bit what SciPy's products with R
    give.  K, a CsrMatrix, is scalar (nn dofs) or interleaved vector (2 nn).

    _reduced sums K's stored entries into the slots (rep(i), rep(j)) with a
    0/1 sum operator, as CsrPattern.sum sums element entries: each slot from
    0.0 in K's stored order, dropping exact zeros as SciPy's csr_matmat
    does.  csr_matmat sums over the columns j the sums over the rows i; the
    orders agree on a cell mesh, where no node neighbours two copies of one
    node: a slot then has one term per row and per column, and only the
    corner's own slots, which couple each corner node with itself, have
    more than two.

    reduce(b) is R^T b with the anchors zeroed, a 0/1 CsrMatrix that sums
    the full dofs of each reduced dof ascending, as SciPy's csc_matvec(s)
    does; expand(x) is R x, a gather plus 0.0, which turns -0.0 into +0.0 as
    the product does.  Both take one vector or a block (n, k);
    cell.CellOperators factors A once (SpdSolver) and solves between them.
    solve(b) is the Jacobi-CG path, kept only for the first-order correctors
    (see solve_spd).
    """

    def __init__(self, mesh, masters, slaves, K):
        nn = mesh.num_nodes
        components = K.shape[0] // nn
        node = np.arange(nn)
        node[slaves] = masters
        master = np.ones(nn, dtype=bool)
        master[slaves] = False
        node = (np.cumsum(master) - 1)[node]  # the reduced node of each node
        self.rep = rep = (components * node[:, None] + np.arange(components)).ravel()
        origin = int(np.argmin(np.sum(mesh.nodes**2, axis=1)))
        self.anchors = rep[components * origin:components * (origin + 1)]
        n = components * np.count_nonzero(master)
        self.A, _ = apply_dirichlet(self._reduced(K, n), np.zeros(n), self.anchors, 0.0)
        # the full dofs of each reduced dof, ascending
        self._sum = CsrMatrix.by_rows(rep, np.arange(len(rep)), np.ones(len(rep)), (n, len(rep)))

    def _reduced(self, K, n):
        """R^T K R (n, n), as SciPy's csr_matmat gives it: canonical, no exact zeros."""
        idx = K.indptr.dtype
        # K's stored entries by reduced slot, each slot's in stored order
        keys = np.take(self.rep, _entry_rows(K.indptr)) * n + np.take(self.rep, K.indices)
        order = np.argsort(keys, kind="stable")
        keys = np.take(keys, order)
        opens = np.flatnonzero(np.diff(keys, prepend=-1))
        total = CsrMatrix(np.ones(K.nnz), order.astype(idx), np.append(opens, K.nnz).astype(idx),
                          (len(opens), K.nnz))
        data = total @ K.data
        nonzero = data != 0.0
        rows, cols = np.divmod(np.take(keys, opens[nonzero]), n)
        return CsrMatrix(data[nonzero], cols.astype(idx),
                         np.searchsorted(rows, np.arange(n + 1)).astype(idx), (n, n))

    def reduce(self, b):
        # the anchored right-hand side apply_dirichlet gives for the value 0
        br = self._sum @ b
        br[self.anchors] = 0.0
        return br

    def expand(self, x):
        return 0.0 + np.take(x, self.rep, axis=0)

    def solve(self, b):
        return self.expand(solve_spd(self.A, self.reduce(b)))
