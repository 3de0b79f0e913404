"""On-line stage: mixed time-difference / finite-element stepping.

One engine integrates the coupled temperature / potential / displacement
system.  The homogenized solver and the fine-mesh reference solver differ
only in how coefficients are produced at quadrature points, expressed through
the CoefficientProvider protocol:

  * TableProvider  -- effective coefficients interpolated from the off-line
    temperature table at each node, then P1-interpolated into quadrature;
  * OscillatoryProvider (in the fine-mesh module) -- phase-wise laws
    evaluated at quadrature-point temperatures.

Scheme per step m (time level t_m -> t_{m+1}):
  potential solve at coefficients frozen at the extrapolated temperature
  (3 T^m - T^{m-1})/2; temperature solve with the trapezoidal average
  (T^m + T^{m+1})/2 in the diffusion term, Joule source from the half-step
  potential, and a backward-difference mechanical coupling; displacement
  solve fully implicit with a centered second difference in time.
Start-up: an elliptic potential solve at t_0 and a backward-Euler half step
provide the m=0 extrapolant; U^{-1} = U^0 - dt * initial velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem


class StepError(RuntimeError):
    def __init__(self, msg, step=None):
        super().__init__(msg)
        self.step = step


@dataclass
class TimeGrid:
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0 or self.n_steps < 1:
            raise ValueError("time grid needs dt > 0 and n_steps >= 1")

    @property
    def t_final(self):
        return self.dt * self.n_steps

    def time(self, m):
        return m * self.dt


@dataclass
class Snapshot:
    """State at one stored time level (with the history the schemes need)."""

    m: int
    t: float
    T: np.ndarray
    T_prev: np.ndarray
    Phi: np.ndarray          # potential at the latest half step
    U: np.ndarray            # (2, nn)
    U_prev: np.ndarray
    U_prevprev: np.ndarray


@dataclass
class Trajectory:
    mesh: object
    grid: TimeGrid
    snapshots: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def at_time(self, t, tol=1e-9):
        for s in self.snapshots:
            if abs(s.t - t) <= tol * max(1.0, abs(t)):
                return s
        raise KeyError(f"no snapshot at t={t}")

    def shared_times(self, other):
        mine = {round(s.t, 12) for s in self.snapshots}
        return sorted(mine & {round(s.t, 12) for s in other.snapshots})


class TableProvider:
    """Effective coefficients from the off-line table, nodal then P1-interpolated."""

    def __init__(self, space, table):
        self.space = space
        self.table = table

    def __call__(self, T_nodal):
        f = self.table.coeff_fields(T_nodal)  # tensor axes leading, node axis last

        def to_qp(arr):
            return np.moveaxis(self.space.at_quadrature(arr), (-2, -1), (0, 1))

        return {
            "S": to_qp(f["S_hat"]),
            "k": to_qp(f["k_hat"]),
            "lam": to_qp(f["lam_hat"]),
            "lam_star": to_qp(f["lam_hat_star"]),
            "beta_star": to_qp(f["beta_hat_star"]),
            "rho": to_qp(f["rho_hat"]),
            "c": to_qp(f["c_hat"]),
            "beta": to_qp(f["beta_hat"]),
        }

    def nodal_beta_star(self, T_nodal):
        return self.table.coeff_fields(T_nodal)["beta_hat_star"]


@dataclass
class ProblemData:
    """Sources, boundary data and initial data as callables of (points, t)."""

    f_T: callable
    f_Phi: callable
    f_U: callable            # -> (npts, 2)
    bc_T: callable
    bc_Phi: callable
    bc_U: callable           # -> (npts, 2)
    T_init: float
    U_init: callable         # -> (npts, 2)
    V_init: callable         # -> (npts, 2)
    coupling_temperature: str = "scheme"  # "scheme" (extrapolated T) or "reference"


def recover_nodal_gradient(space, nodal):
    """Gradient recovery: area-weighted averaging, least-squares at the boundary.

    nodal (..., nn) -> (..., nn, 2).
    """
    mesh = space.mesh
    ge = fem.element_gradient(mesh, nodal)  # (..., nt, 2)
    g = space.recovery @ np.moveaxis(ge, -2, 0).reshape(mesh.num_triangles, -1)
    return np.moveaxis(g.reshape((mesh.num_nodes,) + ge.shape[:-2] + (2,)), 0, -2)


class Stepper:
    """Time integrator for the coupled system on one mesh."""

    def __init__(self, space: fem.FemSpace, provider, data: ProblemData, grid: TimeGrid,
                 snapshot_stride: int = 1, solver_tol: float = 1e-10):
        self.space = space
        self.mesh = space.mesh
        self.provider = provider
        self.data = data
        self.grid = grid
        self.stride = max(1, snapshot_stride)
        self.tol = solver_tol
        self._bn = self.mesh.boundary_nodes
        self._bd = np.concatenate([2 * self._bn, 2 * self._bn + 1])

    # -- helpers ---------------------------------------------------------
    def _solve(self, A, b, dofs, vals):
        A, b = fem.apply_dirichlet(A, b, dofs, vals)
        return fem.SpdSolver(A, tol=self.tol).solve(b)

    def _qp_eval(self, fn, t):
        xq = self.space.xq
        return np.asarray(fn(xq.reshape(-1, 2), t), dtype=float).reshape(xq.shape[:2] + (-1,)).squeeze(-1)

    def _qp_eval_vec(self, fn, t):
        xq = self.space.xq
        return np.asarray(fn(xq.reshape(-1, 2), t), dtype=float).reshape(xq.shape[:2] + (2,))

    # -- schemes ---------------------------------------------------------
    def run(self) -> Trajectory:
        mesh, grid, data = self.mesh, self.grid, self.data
        nn = mesh.num_nodes
        dt = grid.dt

        T0 = np.full(nn, float(data.T_init))
        U0 = np.asarray(data.U_init(mesh.nodes, 0.0), float).reshape(nn, 2).T
        V0 = np.asarray(data.V_init(mesh.nodes, 0.0), float).reshape(nn, 2).T
        U_m1 = U0 - dt * V0

        co = self.provider(T0)
        Phi = self._potential_solve(co, 0.0)

        # backward-Euler half step for the m=0 temperature extrapolant
        That = self._temperature_half_step(T0, Phi, V0, co)
        # the coefficient arrays are the largest per-step data on a fine mesh:
        # hold one set at a time, so that they do not add to the memory peak
        # of the displacement factorization
        del co

        traj = Trajectory(mesh=mesh, grid=grid)
        snap = Snapshot(0, 0.0, T0.copy(), T0.copy(), Phi.copy(), U0.copy(),
                        U_m1.copy(), U_m1.copy())
        traj.snapshots.append(snap)

        T_prev, T_cur = T0.copy(), T0.copy()
        U_prev, U_cur = U_m1, U0
        for m in range(grid.n_steps):
            t_half = grid.time(m) + 0.5 * dt
            t_next = grid.time(m + 1)
            if m > 0:
                That = 1.5 * T_cur - 0.5 * T_prev
            co_half = self.provider(That)
            try:
                Phi = self._potential_solve(co_half, t_half)
                T_next = self._temperature_step(co_half, That, T_cur, Phi,
                                                U_cur, U_prev, t_half, t_next)
                del co_half  # one coefficient set at a time, as above
                U_next = self._displacement_step(self.provider(T_next), T_next, U_cur,
                                                 U_prev, t_next)
            except fem.SolverError as e:
                raise StepError(f"step {m}: {e}", step=m) from e
            T_prev, T_cur = T_cur, T_next
            U_prev2, U_prev, U_cur = U_prev, U_cur, U_next
            if (m + 1) % self.stride == 0 or m + 1 == grid.n_steps:
                traj.snapshots.append(Snapshot(m + 1, t_next, T_cur.copy(), T_prev.copy(),
                                               Phi.copy(), U_cur.copy(), U_prev.copy(),
                                               U_prev2.copy()))
        return traj

    def _potential_solve(self, co, t):
        A = fem.assemble_grad_grad(self.space, co["lam"])
        b = fem.assemble_source(self.space, self._qp_eval(self.data.f_Phi, t))
        vals = np.asarray(self.data.bc_Phi(self.mesh.nodes[self._bn], t), float)
        return self._solve(A, b, self._bn, vals)

    def _coupling_source(self, co, That, U_a, U_b, dt):
        """Nodal values of That * beta*_ij d/dt(dU_i/dx_j) by backward difference."""
        gU = recover_nodal_gradient(self.space, U_a - U_b) / dt  # (2, nn, 2)
        bstar = self.provider.nodal_beta_star(That)  # (2, 2, nn)
        Tfac = That if self.data.coupling_temperature == "scheme" else np.full_like(That, self.data.T_init)
        return Tfac * np.einsum("ijn,inj->n", bstar, gU)

    def _temperature_half_step(self, T0, Phi, V0, co):
        space, mesh, dt = self.space, self.mesh, self.grid.dt
        Ms = fem.assemble_mass(space, co["S"] * (2.0 / dt))
        K = fem.assemble_grad_grad(space, co["k"])
        joule = self._joule_qp(co, Phi)
        b = fem.assemble_source(space, joule + self._qp_eval(self.data.f_T, 0.5 * dt))
        # coupling with the initial velocity field
        gV = recover_nodal_gradient(space, V0)  # (2, nn, 2)
        bstar = self.provider.nodal_beta_star(T0)
        Tfac = T0 if self.data.coupling_temperature == "scheme" else np.full_like(T0, self.data.T_init)
        cpl = Tfac * np.einsum("ijn,inj->n", bstar, gV)
        b -= fem.assemble_source(space, space.at_quadrature(cpl))
        b += Ms @ T0
        vals = np.asarray(self.data.bc_T(mesh.nodes[self._bn], 0.5 * dt), float)
        return self._solve((Ms + K).tocsr(), b, self._bn, vals)

    def _joule_qp(self, co, Phi):
        gPhi = fem.element_gradient(self.mesh, Phi)
        return np.einsum("tqij,ti,tj->tq", co["lam_star"], gPhi, gPhi)

    def _temperature_step(self, co, That, T_cur, Phi, U_cur, U_prev, t_half, t_next):
        space, mesh, dt = self.space, self.mesh, self.grid.dt
        Ms = fem.assemble_mass(space, co["S"] / dt)
        K = fem.assemble_grad_grad(space, co["k"])
        b = fem.assemble_source(space, self._joule_qp(co, Phi) + self._qp_eval(self.data.f_T, t_half))
        cpl = self._coupling_source(co, That, U_cur, U_prev, dt)
        b -= fem.assemble_source(space, space.at_quadrature(cpl))
        b += Ms @ T_cur - 0.5 * (K @ T_cur)
        A = (Ms + 0.5 * K).tocsr()
        vals = np.asarray(self.data.bc_T(mesh.nodes[self._bn], t_next), float)
        return self._solve(A, b, self._bn, vals)

    def _displacement_step(self, co, T_next, U_cur, U_prev, t_next):
        space, mesh, dt = self.space, self.mesh, self.grid.dt
        Mr = fem.assemble_mass(space, co["rho"] / dt**2)
        Mv = _vectorize_mass(Mr)
        Kc = fem.assemble_elasticity(space, co["c"])
        dT_qp = space.at_quadrature(T_next - self.data.T_init)
        G = np.einsum("tqij,tq->tqij", co["beta"], dT_qp)
        b = fem.assemble_tensor_flux(space, G)
        b += fem.assemble_vector_source(space, self._qp_eval_vec(self.data.f_U, t_next))
        b += Mv @ (2.0 * _flat(U_cur) - _flat(U_prev))
        A = (Mv + Kc).tocsr()
        arr = np.asarray(self.data.bc_U(mesh.nodes[self._bn], t_next), float).reshape(-1, 2)
        # self._bd lists all x-dofs then all y-dofs of the boundary nodes
        vals = np.concatenate([arr[:, 0], arr[:, 1]])
        x = self._solve(A, b, self._bd, vals)
        return x.reshape(mesh.num_nodes, 2).T


def _flat(U):
    """(2, nn) component-major -> interleaved (2nn,)."""
    return U.T.ravel()


def _vectorize_mass(M):
    """Scalar mass matrix -> block mass acting on interleaved vector dofs."""
    import scipy.sparse as sp

    return sp.kron(M, sp.eye(2), format="csr")


def save_trajectory(traj: Trajectory, path) -> None:
    """Persist a trajectory (snapshots + grid) to a single npz file."""
    data = {
        "dt": np.float64(traj.grid.dt),
        "n_steps": np.int64(traj.grid.n_steps),
        "m": np.array([s.m for s in traj.snapshots]),
        "t": np.array([s.t for s in traj.snapshots]),
        "T": np.stack([s.T for s in traj.snapshots]),
        "T_prev": np.stack([s.T_prev for s in traj.snapshots]),
        "Phi": np.stack([s.Phi for s in traj.snapshots]),
        "U": np.stack([s.U for s in traj.snapshots]),
        "U_prev": np.stack([s.U_prev for s in traj.snapshots]),
        "U_prevprev": np.stack([s.U_prevprev for s in traj.snapshots]),
    }
    np.savez_compressed(path, **data)


def load_trajectory(path, mesh) -> Trajectory:
    with np.load(path) as z:
        grid = TimeGrid(dt=float(z["dt"]), n_steps=int(z["n_steps"]))
        traj = Trajectory(mesh=mesh, grid=grid)
        for i in range(len(z["m"])):
            traj.snapshots.append(Snapshot(
                m=int(z["m"][i]), t=float(z["t"][i]),
                T=z["T"][i], T_prev=z["T_prev"][i], Phi=z["Phi"][i],
                U=z["U"][i], U_prev=z["U_prev"][i], U_prevprev=z["U_prevprev"][i]))
    return traj
