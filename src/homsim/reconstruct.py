"""Multi-scale field reconstruction on an evaluation mesh.

Given a macroscopic snapshot and the off-line table, build
  order 0: the homogenized fields interpolated at the evaluation nodes;
  order 1: plus epsilon * first-order correctors contracted with recovered
           macroscopic gradients;
  order 2: plus epsilon^2 * the sixteen second-order corrector terms.

Cell functions are evaluated at y = frac(x/epsilon) on the cell mesh and
interpolated linearly in the local macroscopic temperature between table
slots.  Macroscopic first derivatives come from area-weighted gradient
recovery, second derivatives from recovery applied twice, and time
derivatives from backward differences of the stored history.
"""

from __future__ import annotations

import numpy as np

from .fem import FemSpace
from .homog import hat_weights
from .macro import recover_nodal_gradient


class MacroEvaluator:
    """Macro nodal fields and recovered derivatives at fixed evaluation points."""

    def __init__(self, macro_mesh, points):
        self.mesh = macro_mesh
        self.space = FemSpace(macro_mesh)
        self.tri, self.bary = macro_mesh.locate_points(points)

    def scalar(self, nodal):
        return self.mesh.interpolate(np.asarray(nodal), self.tri, self.bary)

    def gradient(self, nodal):
        """(..., nn) -> (..., npts, 2) recovered gradient at the points."""
        g = recover_nodal_gradient(self.space, nodal)  # (..., nn, 2)
        return np.stack(
            [self.scalar(g[..., 0]), self.scalar(g[..., 1])], axis=-1
        )

    def hessian(self, nodal):
        """(..., nn) -> (..., npts, 2, 2) by double gradient recovery."""
        g = recover_nodal_gradient(self.space, nodal)  # (..., nn, 2)
        rows = [recover_nodal_gradient(self.space, g[..., i]) for i in range(2)]
        h = np.stack(rows, axis=-2)  # (..., nn, i, j)
        out = np.empty(h.shape[:-3] + (len(self.tri), 2, 2))
        for i in range(2):
            for j in range(2):
                out[..., i, j] = self.scalar(h[..., i, j])
        return out


class CellSampler:
    """Samples tabulated cell functions at y = frac(x/epsilon), linear in T."""

    def __init__(self, cell_mesh, temps, points, epsilon):
        y = np.asarray(points, float) / epsilon
        y = y - np.floor(y + 1e-12)
        y = np.clip(y, 0.0, 1.0)
        self.tri, self.bary = cell_mesh.locate_points(y, tol=1e-8)
        self.nodes3 = cell_mesh.triangles[self.tri]  # (npts, 3)
        self.temps = np.asarray(temps, float)

    def weights(self, T_eval):
        """Hat-function weights over table temperatures, (ntemp, npts)."""
        i, s = hat_weights(self.temps, T_eval)
        w = np.zeros((len(self.temps), len(s)))
        rows = np.arange(len(s))
        w[i, rows] = 1.0 - s
        w[i + 1, rows] += s
        return w

    def sample(self, per_temp_arrays, T_eval):
        """per_temp_arrays: sequence over temps of (..., nn) -> (..., npts)."""
        w = self.weights(T_eval)
        out = None
        for t, arr in enumerate(per_temp_arrays):
            nz = np.nonzero(w[t])[0]
            if nz.size == 0:
                continue
            vt = np.asarray(arr)[..., self.nodes3[nz]]  # (..., nnz, 3)
            vals = np.einsum("...pa,pa->...p", vt, self.bary[nz])
            if out is None:
                out = np.zeros(vals.shape[:-1] + (len(T_eval),))
            out[..., nz] += w[t, nz] * vals
        return out


class Reconstructor:
    """Builds order-0/1/2 multi-scale fields at the evaluation-mesh nodes."""

    def __init__(self, macro_mesh, cell_mesh, table, epsilon, eval_mesh):
        q = round(1.0 / epsilon)
        if abs(q * epsilon - 1.0) > 1e-12:
            raise ValueError(f"epsilon must be a reciprocal integer, got {epsilon}")
        self.eps = float(epsilon)
        self.table = table
        self.ev = MacroEvaluator(macro_mesh, eval_mesh.nodes)
        self.cs = CellSampler(cell_mesh, table.temps, eval_mesh.nodes, epsilon)
        self.Ttilde = table.Ttilde

    # -- macro state at the evaluation points ---------------------------
    def _macro_state(self, snap, dt):
        st = {}
        st["T0"] = self.ev.scalar(snap.T)
        st["gT"] = self.ev.gradient(snap.T)          # (npts, 2)
        st["hT"] = self.ev.hessian(snap.T)           # (npts, 2, 2)
        st["dTdt"] = self.ev.scalar((snap.T - snap.T_prev) / dt)
        st["Phi"] = self.ev.scalar(snap.Phi)
        st["gPhi"] = self.ev.gradient(snap.Phi)
        st["hPhi"] = self.ev.hessian(snap.Phi)
        st["U"] = np.stack([self.ev.scalar(snap.U[c]) for c in range(2)])
        st["gU"] = self.ev.gradient(snap.U)          # (2, npts, 2)
        st["hU"] = self.ev.hessian(snap.U)           # (2, npts, 2, 2)
        st["gV"] = self.ev.gradient((snap.U - snap.U_prev) / dt)
        acc = (snap.U - 2.0 * snap.U_prev + snap.U_prevprev) / dt**2
        st["acc"] = np.stack([self.ev.scalar(acc[c]) for c in range(2)])
        return st

    def homogenized(self, snap, dt):
        st = self._macro_state(snap, dt)
        return {"T": st["T0"], "Phi": st["Phi"], "U": st["U"]}, st

    def loms(self, snap, dt, _st=None):
        st = _st or self._macro_state(snap, dt)
        T0 = st["T0"]
        firsts = self.table.first
        M = self.cs.sample([f.M for f in firsts], T0)        # (2, npts)
        H = self.cs.sample([f.H for f in firsts], T0)
        N = self.cs.sample([f.N for f in firsts], T0)        # (m, sup, k, npts)
        P = self.cs.sample([f.P for f in firsts], T0)        # (k, npts)
        e = self.eps
        T1 = T0 + e * np.einsum("ap,pa->p", M, st["gT"])
        Phi1 = st["Phi"] + e * np.einsum("ap,pa->p", H, st["gPhi"])
        U1 = st["U"] + e * (
            np.einsum("makp,mpa->kp", N, st["gU"]) + P * (T0 - self.Ttilde)
        )
        return {"T": T1, "Phi": Phi1, "U": U1}, st

    def homs(self, snap, dt, _st=None):
        """Order-2 fields plus the individual epsilon^2 terms for diagnostics."""
        st = _st or self._macro_state(snap, dt)
        low, st = self.loms(snap, dt, _st=st)
        T0 = st["T0"]
        dT = T0 - self.Ttilde
        sec = self.table.second
        samp = lambda name: self.cs.sample([s.fields[name] for s in sec], T0)
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
        return {"T": T2, "Phi": Phi2, "U": U2, "terms": terms}, st

    def all_orders(self, snap, dt):
        """(homogenized, loms, homs) dicts sharing one macro-state evaluation."""
        h0, st = self.homogenized(snap, dt)
        h1, st = self.loms(snap, dt, _st=st)
        h2, st = self.homs(snap, dt, _st=st)
        return h0, h1, h2
