"""P1 finite element kernel: quadrature, assembly, Dirichlet elimination, solves.

Scalar unknowns use one dof per node; vector (displacement) unknowns use the
interleaved ordering dof = 2*node + component.  All bilinear forms here are
symmetric and are assembled with a 3-point edge-midpoint rule (exact for an
affine coefficient times P1 x P1 terms); a 6-point degree-4 rule is available
for exactness checks.
"""

from __future__ import annotations

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


def _as_tq(mesh, coef, nq, extra=()):
    """Broadcast a coefficient spec to shape (nt, nq, *extra)."""
    target = (mesh.num_triangles, nq) + extra
    arr = np.asarray(coef, dtype=float)
    if arr.shape == target:
        return arr
    if arr.ndim == 0:
        return np.broadcast_to(arr, target)
    if arr.shape == (mesh.num_triangles,) + extra:  # constant per element
        return np.broadcast_to(arr[:, None], target)
    if arr.shape == extra:  # one constant tensor
        return np.broadcast_to(arr, target)
    raise ValueError(f"coefficient shape {arr.shape} not broadcastable to {target}")


def _accumulate(mesh, elem, shape_rows, shape_cols=None):
    """Assemble per-element dense blocks into a CSR matrix or a vector."""
    if shape_cols is None:
        out = np.zeros(shape_rows.max() + 1 if shape_rows.size else 0)
        np.add.at(out, shape_rows.ravel(), elem.ravel())
        return out
    n = shape_rows.max() + 1
    m = shape_cols.max() + 1
    rows = np.broadcast_to(shape_rows, elem.shape)
    cols = np.broadcast_to(shape_cols, elem.shape)
    A = sp.coo_matrix((elem.ravel(), (rows.ravel(), cols.ravel())), shape=(n, m))
    return A.tocsr()


def assemble_grad_grad(mesh, coef, order: int = 2):
    """Stiffness for the form  integral  (coef grad u) . grad v.

    coef: scalar, (nt,), (nt,nq), 2x2 tensor, (nt,2,2) or (nt,nq,2,2).
    """
    _, wq, _ = quad_points(mesh, order)
    nq = wq.shape[1]
    arr = np.asarray(coef, dtype=float)
    if arr.ndim >= 2 and arr.shape[-2:] == (2, 2):
        k = _as_tq(mesh, arr, nq, (2, 2))
        kg = np.einsum("tq,tqij,tbj->tbi", wq, k, mesh.grads)
    else:
        k = _as_tq(mesh, arr, nq)
        kg = np.einsum("tq,tbi->tbi", wq * k, mesh.grads)
    elem = np.einsum("tai,tbi->tab", mesh.grads, kg)
    return _accumulate(mesh, elem, mesh.triangles[:, :, None], mesh.triangles[:, None, :])


def assemble_mass(mesh, coef, order: int = 2):
    """Mass matrix for the form  integral  coef u v."""
    _, wq, phi = quad_points(mesh, order)
    c = _as_tq(mesh, coef, wq.shape[1])
    elem = np.einsum("tq,qa,qb->tab", wq * c, phi, phi)
    return _accumulate(mesh, elem, mesh.triangles[:, :, None], mesh.triangles[:, None, :])


def vector_dofs(triangles):
    """(nt,6) interleaved displacement dofs [n0x,n0y,n1x,n1y,n2x,n2y]."""
    d = np.empty(triangles.shape[:1] + (6,), dtype=np.int64)
    d[:, 0::2] = 2 * triangles
    d[:, 1::2] = 2 * triangles + 1
    return d


def assemble_elasticity(mesh, c, order: int = 2):
    """Stiffness for  integral  c_ijkl du_k/dx_l dv_i/dx_j  (2-component)."""
    _, wq, _ = quad_points(mesh, order)
    cq = _as_tq(mesh, c, wq.shape[1], (2, 2, 2, 2))
    # trial dof (a,k): du_k/dx_l = grads[t,a,l]; test dof (b,i) likewise
    ke = np.einsum("tq,tqijkl,tal,tbj->tbiak", wq, cq, mesh.grads, mesh.grads)
    ke2 = ke.reshape(mesh.num_triangles, 6, 6)
    d = vector_dofs(mesh.triangles)
    return _accumulate(mesh, ke2, d[:, :, None], d[:, None, :])


def assemble_source(mesh, f, order: int = 2):
    """Load vector  integral  f v."""
    _, wq, phi = quad_points(mesh, order)
    fq = _as_tq(mesh, f, wq.shape[1])
    elem = np.einsum("tq,qa->ta", wq * fq, phi)
    out = np.zeros(mesh.num_nodes)
    np.add.at(out, mesh.triangles.ravel(), elem.ravel())
    return out


def assemble_flux(mesh, g, order: int = 2):
    """Load vector  integral  g_i dv/dx_i  for a 2-vector density g."""
    _, wq, _ = quad_points(mesh, order)
    gq = _as_tq(mesh, np.asarray(g, float), wq.shape[1], (2,))
    elem = np.einsum("tq,tqi,tai->ta", wq, gq, mesh.grads)
    out = np.zeros(mesh.num_nodes)
    np.add.at(out, mesh.triangles.ravel(), elem.ravel())
    return out


def assemble_vector_source(mesh, f, order: int = 2):
    """Load vector  integral  f_i v_i  (interleaved dofs)."""
    _, wq, phi = quad_points(mesh, order)
    fq = _as_tq(mesh, np.asarray(f, float), wq.shape[1], (2,))
    elem = np.einsum("tq,tqi,qa->tai", wq, fq, phi)
    out = np.zeros(2 * mesh.num_nodes)
    d = vector_dofs(mesh.triangles).reshape(-1, 3, 2)
    np.add.at(out, d.ravel(), elem.ravel())
    return out


def assemble_tensor_flux(mesh, G, order: int = 2):
    """Load vector  integral  G_ij dv_i/dx_j  for a 2x2 tensor density G."""
    _, wq, _ = quad_points(mesh, order)
    Gq = _as_tq(mesh, np.asarray(G, float), wq.shape[1], (2, 2))
    elem = np.einsum("tq,tqij,taj->tai", wq, Gq, mesh.grads)
    out = np.zeros(2 * mesh.num_nodes)
    d = vector_dofs(mesh.triangles).reshape(-1, 3, 2)
    np.add.at(out, d.ravel(), elem.ravel())
    return out


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


def apply_dirichlet(A, b, dofs, values, allowed=None):
    """Symmetric elimination of Dirichlet dofs; keeps the system SPD.

    Returns (A', b') where constrained rows/cols are zeroed with unit
    diagonal and b' forces the prescribed values; the solution of the
    reduced system carries the exact boundary values.
    """
    dofs = np.asarray(dofs, dtype=np.int64)
    values = np.broadcast_to(np.asarray(values, dtype=float), dofs.shape)
    if allowed is not None:
        bad = np.setdiff1d(dofs, np.asarray(allowed))
        if bad.size:
            raise ValueError(f"Dirichlet value on non-boundary dof(s) {bad[:5]}")
    n = A.shape[0]
    x = np.zeros(n)
    x[dofs] = values
    b = b - A @ x
    keep = np.ones(n)
    keep[dofs] = 0.0
    D = sp.diags(keep)
    A = (D @ A @ D + sp.diags(1.0 - keep)).tocsr()
    b[dofs] = values
    return A, b


def solve_spd(A, b, tol: float = 1e-10, max_iter: int = 20000):
    """Diagonally preconditioned conjugate gradients with residual guarantee."""
    bn = np.linalg.norm(b)
    if bn == 0.0:
        return np.zeros_like(b)
    M = sp.diags(1.0 / A.diagonal())
    x, info = spla.cg(A, b, rtol=tol * 1e-2, atol=0.0, maxiter=max_iter, M=M)
    res = np.linalg.norm(A @ x - b) / bn
    if res > tol:
        raise SolverError(f"conjugate gradients stalled at residual {res:.3e}", residual=res)
    return x


class SpdSolver:
    """Factorized sparse solver for repeated right-hand sides.

    Uses a sparse LU factorization and verifies the relative residual of
    every solve against tol, so it honors the same contract as solve_spd.
    """

    def __init__(self, A, tol: float = 1e-10):
        self.A = A.tocsc()
        self.tol = tol
        self._lu = spla.splu(self.A)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        bn = np.linalg.norm(b)
        if bn == 0.0:
            return np.zeros_like(b)
        x = self._lu.solve(b)
        res = np.linalg.norm(self.A @ x - b) / bn
        if res > self.tol:
            raise SolverError(f"factorized solve residual {res:.3e} above {self.tol}", residual=res)
        return x


class PeriodicMap:
    """Reduction operator identifying opposite-boundary nodes of the unit cell.

    Builds R with full-dof rows and reduced-dof columns so that A_red = R^T A R,
    b_red = R^T b, and x_full = R x_red.  One anchor node (the origin corner
    master) is additionally pinned to remove the constant null space.
    """

    def __init__(self, mesh, masters, slaves, components: int = 1):
        nn = mesh.num_nodes
        rep = np.arange(nn)
        rep[slaves] = masters
        keep = np.setdiff1d(np.arange(nn), slaves)
        col_of = -np.ones(nn, dtype=np.int64)
        col_of[keep] = np.arange(len(keep))
        rows = np.arange(nn)
        cols = col_of[rep[rows]]
        if components == 1:
            R = sp.coo_matrix((np.ones(nn), (rows, cols)), shape=(nn, len(keep)))
            anchor = col_of[rep[int(np.argmin(np.sum(mesh.nodes**2, axis=1)))]]
            self.anchors = np.array([anchor])
        else:
            r2 = np.concatenate([2 * rows, 2 * rows + 1])
            c2 = np.concatenate([2 * cols, 2 * cols + 1])
            R = sp.coo_matrix((np.ones(2 * nn), (r2, c2)), shape=(2 * nn, 2 * len(keep)))
            a = col_of[rep[int(np.argmin(np.sum(mesh.nodes**2, axis=1)))]]
            self.anchors = np.array([2 * a, 2 * a + 1])
        self.R = R.tocsr()

    def solve(self, A, b, tol: float = 1e-10):
        Ar = (self.R.T @ A @ self.R).tocsr()
        br = self.R.T @ b
        Ar, br = apply_dirichlet(Ar, br, self.anchors, 0.0)
        xr = solve_spd(Ar, br, tol=tol)
        return self.R @ xr
