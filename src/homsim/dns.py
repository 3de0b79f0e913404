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

import math
from functools import cached_property

import numpy as np

from . import fem
from .macro import INTEGRATED, Stepper, TimeGrid, Trajectory
from .materials import lame_parameters
from .mesh import Mesh, MeshError


def tiles(epsilon: float) -> int:
    """q = 1/epsilon, the cells along each side of the DNS domain (q^2 in all).

    The one check that epsilon is a reciprocal integer: raises MeshError
    otherwise, also when 1/epsilon overflows.
    """
    if not math.isfinite(1.0 / epsilon) or abs(round(1.0 / epsilon) * epsilon - 1.0) > 1e-12:
        raise MeshError(f"epsilon must be a reciprocal integer, got {epsilon}")
    return round(1.0 / epsilon)


def build_tiled_mesh(cell_mesh: Mesh, epsilon: float) -> Mesh:
    """Tile the scaled unit-cell mesh over [0,1]^2 (epsilon = 1/q).

    Tile (i, j) is the cell mesh shifted by (i, j) and scaled by epsilon;
    the q^2 tiles are numbered i * q + j and built at once by broadcasting.
    Nodes whose coordinates agree to 9 decimals (the tile seams) are merged,
    and the merged nodes are numbered in lexicographic order of their
    rounded (x, y), each taken from its first copy in tile order: the nodes,
    triangles and tags of np.unique(axis=0) over the rounded coordinates,
    for one stable lexsort.
    """
    q = tiles(epsilon)
    nn = cell_mesh.num_nodes
    shift = np.stack(np.divmod(np.arange(q * q), q), axis=1)  # (i, j) of each tile
    nodes = ((cell_mesh.nodes + shift[:, None]) * epsilon).reshape(-1, 2)
    tris = (cell_mesh.triangles + (nn * np.arange(q * q))[:, None, None]).reshape(-1, 3)
    key = np.round(nodes, 9)
    order = np.lexsort((key[:, 1], key[:, 0]))
    key = key[order]
    opens = np.ones(len(key), dtype=bool)  # the first copy of each merged node
    opens[1:] = (key[1:] != key[:-1]).any(axis=1)
    merged = np.empty(len(key), dtype=np.intp)
    merged[order] = np.cumsum(opens) - 1
    return Mesh(nodes[order[opens]], merged[tris], np.tile(cell_mesh.phase_tag, q * q))


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

    @cached_property
    def _beta_nodal_ab(self):
        """The affine coefficients of beta, area-averaged to the nodes; built,
        with FemSpace.average, on the first nodal_beta_star call."""
        return tuple(self.space.average @ v for v in self._ab["beta"])

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

        The affine coefficients are area-averaged to the nodes on the first
        call, then evaluated at the nodal temperature clamped to the law's
        T_range, so a single-phase law gives beta(T_node) to rounding (a
        node's area weights sum to 1 to rounding).
        """
        na, nb = self._beta_nodal_ab
        nodal = na + nb * np.clip(np.asarray(T_nodal), *self.law.T_range)
        out = np.zeros((2, 2, len(nodal)))
        out[0, 0] = nodal
        out[1, 1] = nodal
        return out


def run_dns(fine_mesh: Mesh, law, data, grid: TimeGrid, snapshot_stride: int) -> Trajectory:
    """Integrate the oscillatory-coefficient system on the fine mesh."""
    space = fem.FemSpace(fine_mesh)
    stepper = Stepper(space, OscillatoryProvider(space, law), data, grid,
                      snapshot_stride=snapshot_stride)
    return stepper.run()
