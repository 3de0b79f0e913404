"""Fine-mesh reference solver for the oscillatory-coefficient system.

The fine mesh is the unit-cell mesh scaled by epsilon and tiled over the unit
square, so the matrix/inclusion interface is mesh-conforming in every cell.
Time stepping reuses the engine of the homogenized solver; only the
coefficient provider differs (phase-wise laws evaluated at quadrature-point
temperatures instead of tabulated effective coefficients).  Each phase is
isotropic, so the provider returns scalars, not tensors: the conductivities
integrated over each element, the other fields at the quadrature points, and
the elasticity as the element integrals of its two Lame parameters.
"""

from __future__ import annotations

import numpy as np

from . import fem
from .macro import INTEGRATED, Stepper, TimeGrid, Trajectory
from .materials import lame_parameters
from .mesh import Mesh, MeshError


def build_tiled_mesh(cell_mesh: Mesh, epsilon: float) -> Mesh:
    """Tile the scaled unit-cell mesh over [0,1]^2 (epsilon = 1/q)."""
    q = round(1.0 / epsilon)
    if abs(q * epsilon - 1.0) > 1e-12:
        raise MeshError(f"epsilon must be a reciprocal integer, got {epsilon}")
    nodes = []
    tris = []
    tags = []
    nn = cell_mesh.num_nodes
    for i in range(q):
        for j in range(q):
            off = (i * q + j) * nn
            nodes.append((cell_mesh.nodes + [i, j]) * epsilon)
            tris.append(cell_mesh.triangles + off)
            tags.append(cell_mesh.phase_tag)
    nodes = np.concatenate(nodes)
    tris = np.concatenate(tris)
    tags = np.concatenate(tags)
    # merge coincident nodes along tile seams
    key = np.round(nodes, 9)
    _, first_idx, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    merged_nodes = nodes[first_idx]
    merged_tris = inverse[tris]
    return Mesh(merged_nodes, merged_tris, tags)


class OscillatoryProvider:
    """Phase-wise coefficients at quadrature-point temperatures.

    The laws are isotropic in each phase, so every field but c is a scalar:
    S, rho, lam_star and beta (nt, nq) at the quadrature points, k and lam
    (nt,) integrated over each element.  c is the pair (lame, mu) of the
    element integrals of its Lame parameters, each (nt,).
    """

    def __init__(self, space: fem.FemSpace, law):
        self.space = space
        self.law = law
        self._ab = law.per_element(space.mesh.phase_tag)
        # the affine coefficients of beta, area-averaged to the nodes
        self._beta_nodal_ab = tuple(space.average @ v for v in self._ab["beta"])

    def _scal(self, q, T_qp):
        a, b = self._ab[q]
        return a[:, None] + b[:, None] * T_qp

    def _integral(self, values):
        return np.einsum("tq,tq->t", self.space.wq, values)

    def _field(self, name, T_qp):
        # every law is isotropic in each phase: the tensors are scalars times
        # the identity, and the elasticity is given by its Lame parameters
        if name == "S":
            return self._scal("rho", T_qp) * self._scal("c", T_qp)
        if name == "c":
            lame, mu = lame_parameters(self._scal("E", T_qp), self._scal("nu", T_qp),
                                       self.law.plane)
            return self._integral(lame), self._integral(mu)
        values = self._scal("lam" if name == "lam_star" else name, T_qp)
        return self._integral(values) if name in INTEGRATED else values

    def __call__(self, T_nodal, fields):
        T_qp = self.space.at_quadrature(T_nodal)
        # constant extension outside the validity range of the affine laws
        # (mirrors the clamping of the tabulated effective coefficients)
        T_qp = np.clip(T_qp, *self.law.T_range)
        return {name: self._field(name, T_qp) for name in fields}

    def nodal_beta_star(self, T_nodal):
        """Nodal thermal modulus beta*_ij = beta delta_ij.

        The affine coefficients are area-averaged to the nodes once, then
        evaluated at the nodal temperature, so single-phase laws reproduce
        beta(T_node) exactly.
        """
        na, nb = self._beta_nodal_ab
        nodal = na + nb * np.clip(np.asarray(T_nodal), *self.law.T_range)
        out = np.zeros((2, 2, len(nodal)))
        out[0, 0] = nodal
        out[1, 1] = nodal
        return out


def run_dns(fine_mesh: Mesh, law, data, grid: TimeGrid,
            snapshot_stride: int = 1) -> Trajectory:
    """Integrate the oscillatory-coefficient system on the fine mesh."""
    space = fem.FemSpace(fine_mesh)
    stepper = Stepper(space, OscillatoryProvider(space, law), data, grid,
                      snapshot_stride=snapshot_stride)
    return stepper.run()
