"""Discrete norms and evolutive error tables.

Norms are computed on a mesh from nodal values: L2 by element quadrature of
the P1 interpolant, H1-semi from the (piecewise-constant) element gradients.
Vector fields carry their components in leading axes and are summed over
them.  The evolutive harness compares the order-0/1/2 reconstructions
against a fine-mesh reference trajectory at every step both runs stored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .reconstruct import Reconstructor

FIELDS = ("T", "Phi", "U")
ORDERS = ("order0", "order1", "order2")
NORMS = ("L2", "H1")

#: column order of the error table (after the leading time column)
COLUMNS = [f"{f}_{o}_{n}" for f in FIELDS for o in ORDERS for n in NORMS]


def l2_norm(space, nodal) -> float:
    """L2 norm of the P1 interpolant; leading axes are summed as components."""
    vq = space.at_quadrature(nodal)
    return float(np.sqrt(np.sum(vq**2 * space.wq)))


def h1_seminorm(space, nodal) -> float:
    """H1 seminorm from element gradients; leading axes summed as components."""
    g = fem.element_gradient(space.mesh, nodal)  # (..., nt, 2)
    return float(np.sqrt(np.sum(g**2 * space.mesh.areas[:, None])))


def norm(space, nodal, kind: str) -> float:
    if kind == "L2":
        return l2_norm(space, nodal)
    if kind == "H1":
        return h1_seminorm(space, nodal)
    raise ValueError(f"unknown norm kind {kind!r}")


class ZeroReferenceError(ValueError):
    """The reference field has zero norm, so no relative error is defined."""


def relative_error(space, approx, ref, kind: str, ref_norm: float) -> float:
    """norm(approx - ref) / ref_norm, with ref_norm = norm(space, ref, kind)
    computed by the caller; raises ZeroReferenceError if ref_norm vanishes."""
    if ref_norm <= 0.0:
        raise ZeroReferenceError(f"reference field has zero {kind} norm")
    return norm(space, np.asarray(approx) - np.asarray(ref), kind) / ref_norm


@dataclass
class ErrorSeries:
    """Relative errors per snapshot time, 18 columns (field x order x norm).

    undefined: the fields whose reference had zero norm; their entries are NaN.
    """

    times: list
    rows: list
    undefined: set

    def column(self, field_name, order, kind):
        j = COLUMNS.index(f"{field_name}_{order}_{kind}")
        return np.array([r[j] for r in self.rows])

    def final(self, field_name, order, kind) -> float:
        return float(self.column(field_name, order, kind)[-1])

    def to_csv(self, path):
        data = np.column_stack([self.times, self.rows])
        np.savetxt(path, data, delimiter=",", header=",".join(["t"] + COLUMNS), comments="")


def evolutive_errors(ref_traj, macro_traj, recon: Reconstructor) -> ErrorSeries:
    """Relative errors of the three reconstruction orders vs the reference.

    Both trajectories must have run on one time grid (ValueError otherwise);
    each reference snapshot after the initial one is paired with the macro
    snapshot of the same step m, and a step only one of them stored is
    skipped.  The reference trajectory supplies both the comparison fields
    and the evaluation mesh (its own nodes/elements), so the reconstructor
    must have been built with that mesh as the evaluation mesh.  A reference
    of zero norm (Phi without an electric source) gets NaN errors.
    """
    if ref_traj.grid != macro_traj.grid:
        raise ValueError(f"the reference ran on {ref_traj.grid}, the macro run on "
                         f"{macro_traj.grid}")
    space = fem.FemSpace(ref_traj.mesh)
    macro_at = {s.m: s for s in macro_traj.snapshots}
    dt = macro_traj.grid.dt
    times, rows, undefined = [], [], set()
    for ref in ref_traj.snapshots:
        if ref.m == 0 or ref.m not in macro_at:
            continue  # initial data agrees by construction; errors undefined for zero refs
        h0, h1, h2 = recon.all_orders(macro_at[ref.m], dt)
        refs = {"T": ref.T, "Phi": ref.Phi, "U": ref.U}
        ref_norms = {(f, n): norm(space, refs[f], n) for f in FIELDS for n in NORMS}
        row = []
        for f in FIELDS:
            for o, h in zip(ORDERS, (h0, h1, h2)):
                for n in NORMS:
                    try:
                        row.append(relative_error(space, h[f], refs[f], n, ref_norms[f, n]))
                    except ZeroReferenceError:
                        row.append(np.nan)
                        undefined.add(f)
        times.append(ref.t)
        rows.append(row)
    return ErrorSeries(times, rows, undefined)
