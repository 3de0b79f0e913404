"""Multi-scale field reconstruction on an evaluation mesh.

Given a macroscopic snapshot and the off-line table, build
  order 0: the homogenized fields interpolated at the evaluation nodes;
  order 1: plus epsilon * first-order correctors contracted with recovered
           macroscopic gradients;
  order 2: plus epsilon^2 * the sixteen second-order corrector terms.

Cell functions are evaluated at y = frac(x/epsilon) on the cell mesh and
interpolated linearly in the local macroscopic temperature between table
slots; a snapshot reads only the slots its temperatures reach.  Macroscopic
first derivatives come from area-weighted gradient recovery, second
derivatives from recovery applied twice, and time derivatives from backward
differences of the stored history.

Every operator here only multiplies: the P1 interpolation at the points,
the cell sampling and the recovery are fem.RowSum operators, so a
reconstruction loads no SciPy.
"""

from __future__ import annotations

import numpy as np

from .dns import tiles
from .fem import FemSpace, RowSum
from .homog import hat_weights
from .macro import recover_nodal_gradient


class MacroEvaluator:
    """Macro nodal fields and recovered derivatives at fixed evaluation points.

    Each method takes a stack of fields (..., nn) and maps it to the points in
    one product with p1; derivatives() recovers the stack's gradients in one
    call and its Hessians in one more, from every gradient component at once.
    Recovery and product act on each field on its own, so a stacked call
    gives each field what its own call gives, bit for bit.
    """

    def __init__(self, macro_mesh, points):
        self.space = FemSpace(macro_mesh)
        tri, bary = macro_mesh.locate_points(points)
        # row p: the P1 weights of point p at its triangle's vertices
        self.p1 = RowSum(np.repeat(np.arange(len(tri)), 3), macro_mesh.triangles[tri].ravel(),
                         bary.ravel(), (len(tri), macro_mesh.num_nodes))

    def scalar(self, nodal):
        """(..., nn) -> (..., npts): the P1 interpolant at the points."""
        return self._at(nodal, 0)

    def gradient(self, nodal):
        """(..., nn) -> (..., npts, 2) recovered gradient at the points."""
        return self._at(recover_nodal_gradient(self.space, nodal), 1)

    def hessian(self, nodal):
        """(..., nn) -> (..., npts, 2, 2) by double gradient recovery."""
        return self.derivatives(nodal)[1]

    def derivatives(self, nodal):
        """(gradient, hessian) at the points: the gradient recovered once, and
        the Hessian from one recovery of both its components."""
        g = recover_nodal_gradient(self.space, nodal)  # (..., nn, 2)
        h = recover_nodal_gradient(self.space, np.moveaxis(g, -1, -2))  # (..., i, nn, j)
        return self._at(g, 1), self._at(np.moveaxis(h, -3, -2), 2)

    def _at(self, field, tail):
        """(..., nn, *tail) -> (..., npts, *tail), C-contiguous: one product with p1."""
        field = np.moveaxis(np.asarray(field), -1 - tail, 0)  # (nn, ..., *tail)
        values = self.p1 @ field.reshape(len(field), -1)  # (npts, k)
        values = values.reshape(values.shape[:1] + field.shape[1:])
        return np.ascontiguousarray(np.moveaxis(values, 0, -1 - tail))


class CellSampler:
    """Samples tabulated cell functions at y = frac(x/epsilon), linear in T."""

    def __init__(self, cell_mesh, temps, points, epsilon):
        y = np.asarray(points, float) / epsilon
        y = y - np.floor(y + 1e-12)
        y = np.clip(y, 0.0, 1.0)
        self.tri, self.bary = cell_mesh.locate_points(y, tol=1e-8)
        self.nodes3 = cell_mesh.triangles[self.tri]  # (npts, 3)
        self.temps = np.asarray(temps, float)
        self.num_cell_nodes = cell_mesh.num_nodes

    def operator(self, T_eval):
        """(op, slots): the sampling operator at the point temperatures T_eval
        and the slice of table slots its columns cover.

        slots runs from the lowest slot any point reaches to the highest, and
        column (t - slots.start) * nn + a is cell node a at table temperature
        t.  Row p holds the hat weights in T times the P1 weights in y: 6
        entries, a RowSum.
        """
        i, s = hat_weights(self.temps, T_eval)
        npts, nn = len(s), self.num_cell_nodes
        lo, hi = int(i.min()), int(i.max()) + 1
        t = (i - lo)[:, None, None] + np.arange(2)[None, :, None]
        cols = t * nn + self.nodes3[:, None, :]  # (npts, 2, 3)
        vals = np.stack([1.0 - s, s], axis=1)[:, :, None] * self.bary[:, None, :]
        op = RowSum(np.repeat(np.arange(npts), 6), cols.ravel(), vals.ravel(),
                    (npts, (hi + 1 - lo) * nn))
        return op, slice(lo, hi + 1)

    def sample(self, op, per_temp_arrays):
        """per_temp_arrays: sequence over op's slots of (..., nn) -> (..., npts), one product with op."""
        stack = np.stack(per_temp_arrays)  # (ntemp, ..., nn)
        flat = np.moveaxis(stack, -1, 1).reshape(op.shape[1], -1)
        return (op @ flat).T.reshape(stack.shape[1:-1] + (op.shape[0],))


class Reconstructor:
    """Builds order-0/1/2 multi-scale fields at the evaluation-mesh nodes."""

    def __init__(self, macro_mesh, cell_mesh, table, epsilon, eval_mesh):
        tiles(epsilon)  # raises MeshError unless epsilon is a reciprocal integer
        self.eps = float(epsilon)
        self.table = table
        self.ev = MacroEvaluator(macro_mesh, eval_mesh.nodes)
        self.cs = CellSampler(cell_mesh, table.temps, eval_mesh.nodes, epsilon)
        self.Ttilde = table.Ttilde

    # -- macro state at the evaluation points ---------------------------
    def _macro_state(self, snap, dt):
        """The macro fields and derivatives at the points: one stacked
        interpolation, one stacked recovery of gradients and Hessians, and
        the velocity gradient.

        gU and gV are stored point major and every other array C-contiguous:
        the einsums of the orders 1 and 2 sum in an order their operands'
        strides set, and tests/test_reconstruct.py pins these layouts.
        """
        acc = (snap.U - 2.0 * snap.U_prev + snap.U_prevprev) / dt**2
        values = self.ev.scalar(np.stack([snap.T, (snap.T - snap.T_prev) / dt, snap.Phi,
                                          *snap.U, *acc]))
        g, h = self.ev.derivatives(np.stack([snap.T, snap.Phi, *snap.U]))  # (4, npts, 2[, 2])
        point_major = lambda a: np.ascontiguousarray(a.swapaxes(0, 1)).swapaxes(0, 1)
        return {"T0": values[0], "dTdt": values[1], "Phi": values[2], "U": values[3:5],
                "acc": values[5:7], "gT": g[0], "hT": h[0], "gPhi": g[1], "hPhi": h[1],
                "gU": point_major(g[2:]), "hU": h[2:],
                "gV": point_major(self.ev.gradient((snap.U - snap.U_prev) / dt))}

    def all_orders(self, snap, dt):
        """(order 0, order 1, order 2) fields from one macro-state evaluation.

        The order-2 dict also holds the individual epsilon^2 terms under "terms".
        """
        st = self._macro_state(snap, dt)
        op, slots = self.cs.operator(st["T0"])
        h0 = {"T": st["T0"], "Phi": st["Phi"], "U": st["U"]}
        h1 = self._first_order(st, op, self.table.first[slots])
        return h0, h1, self._second_order(st, h1, op, self.table.second[slots])

    def _first_order(self, st, op, firsts):
        T0 = st["T0"]
        M = self.cs.sample(op, [f.M for f in firsts])        # (2, npts)
        H = self.cs.sample(op, [f.H for f in firsts])
        N = self.cs.sample(op, [f.N for f in firsts])        # (m, sup, k, npts)
        P = self.cs.sample(op, [f.P for f in firsts])        # (k, npts)
        e = self.eps
        T1 = T0 + e * np.einsum("ap,pa->p", M, st["gT"])
        Phi1 = st["Phi"] + e * np.einsum("ap,pa->p", H, st["gPhi"])
        U1 = st["U"] + e * (
            np.einsum("makp,mpa->kp", N, st["gU"]) + P * (T0 - self.Ttilde)
        )
        return {"T": T1, "Phi": Phi1, "U": U1}

    def _second_order(self, st, low, op, sec):
        dT = st["T0"] - self.Ttilde
        samp = lambda name: self.cs.sample(op, [s[name] for s in sec])
        e2 = self.eps**2
        terms = {}

        terms["T:Q"] = samp("Q") * st["dTdt"]
        terms["T:M2"] = np.einsum("abp,pab->p", samp("M2"), st["hT"])
        terms["T:R"] = np.einsum("bap,pb,pa->p", samp("R"), st["gT"], st["gT"])
        terms["T:O"] = np.einsum("abp,pa,pb->p", samp("O"), st["gT"], st["gT"])
        terms["T:G"] = np.einsum("abp,pa,pb->p", samp("G"), st["gPhi"], st["gPhi"])
        terms["T:J"] = np.einsum("abp,apb->p", samp("J"), st["gV"])

        terms["Phi:H2"] = np.einsum("abp,pab->p", samp("H2"), st["hPhi"])
        terms["Phi:Z"] = np.einsum("bap,pb,pa->p", samp("Z"), st["gT"], st["gPhi"])
        terms["Phi:W"] = np.einsum("abp,pa,pb->p", samp("W"), st["gT"], st["gPhi"])

        terms["U:N2"] = np.einsum("abmkp,mpab->kp", samp("N2"), st["hU"])
        terms["U:F"] = np.einsum("akp,ap->kp", samp("F"), st["acc"])
        terms["U:X"] = np.einsum("akp,pa->kp", samp("X"), st["gT"])
        terms["U:A"] = np.einsum("bamkp,pb,mpa->kp", samp("A"), st["gT"], st["gU"])
        terms["U:B"] = np.einsum("bkp,pb->kp", samp("B"), st["gT"]) * dT
        terms["U:C"] = np.einsum("akp,pa->kp", samp("C"), st["gT"]) * dT
        terms["U:D"] = np.einsum("abmkp,pa,mpb->kp", samp("D"), st["gT"], st["gU"])

        T2 = low["T"] + e2 * sum(terms[k] for k in terms if k.startswith("T:"))
        Phi2 = low["Phi"] + e2 * sum(terms[k] for k in terms if k.startswith("Phi:"))
        U2 = low["U"] + e2 * sum(terms[k] for k in terms if k.startswith("U:"))
        return {"T": T2, "Phi": Phi2, "U": U2, "terms": terms}
