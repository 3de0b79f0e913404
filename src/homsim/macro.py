"""On-line stage: mixed time-difference / finite-element stepping.

One engine integrates the coupled temperature / potential / displacement
system.  The homogenized solver and the fine-mesh reference solver differ
only in how coefficients are produced, expressed through the
CoefficientProvider protocol -- provider(T_nodal, fields) returns the named
coefficient fields, each in the one form the fem kernel that reads it takes,
and provider.nodal_beta_star(T_nodal) the nodal thermal modulus (2, 2, nn):

  * k and lam, the stiffness coefficients (INTEGRATED), as integrals over
    each element, (nt,) or (nt, 2, 2), for fem.assemble_grad_grad;
  * c (INTEGRATED) as its integral over each element, (nt, 2, 2, 2, 2), or,
    for an isotropic c, the pair (lame, mu) of the element integrals of its
    Lame parameters, each (nt,), for fem.assemble_elasticity;
  * S and rho at the quadrature points, (nt, nq), for fem.assemble_mass;
  * lam_star and beta at the quadrature points, (nt, nq) for an isotropic
    tensor s d_ij (the scalars s) or (nt, nq, 2, 2), for the Joule source
    and fem.assemble_tensor_flux.

Two providers implement it:

  * TableProvider  -- effective coefficients interpolated from the off-line
    temperature table at each node; they are P1 in space, so the integrals
    are exact (area times the mean of the vertex values) and the other
    fields are P1-interpolated into quadrature;
  * OscillatoryProvider (in the fine-mesh module) -- phase-wise isotropic
    laws evaluated at quadrature-point temperatures: scalars, and the Lame
    pair for c.

Scheme per step m (time level t_m -> t_{m+1}):
  potential solve at coefficients frozen at the extrapolated temperature
  That = (3 T^m - T^{m-1})/2; temperature solve by the theta-scheme with
  theta = 1/2 (trapezoidal diffusion), Joule source from the half-step
  potential and the deformation-rate sink That * beta*_ij dV_i/dx_j with the
  backward-difference velocity V = (U^m - U^{m-1})/dt; displacement solve
  fully implicit with a centered second difference in time.  A zero V
  contributes an exactly zero sink, so the sink is not assembled then: no
  gradient is recovered and no nodal beta* evaluated, and a run that starts
  at rest builds no recovery operator (FemSpace.recovery) until V moves.
Start-up: an elliptic potential solve at t_0, then the same temperature
system with theta = 1 (backward Euler) over dt/2, driven by the initial
velocity, provides the m=0 extrapolant; U^{-1} = U^0 - dt * initial velocity.

Each solve asks its provider only for the coefficient fields it reads:
THERMAL for the potential and temperature solves, MECHANICAL for the
displacement solve.

Linear solves: the coefficients drift only slowly with T, so the stepper
keeps one sparse LU factorization per operator kind (potential, temperature,
displacement).  A later solve of that kind runs conjugate gradients (fem.pcg)
on the current Dirichlet-reduced matrix, preconditioned by the kept LU and
started from the last solution of that kind, which the slow drift also keeps
close; the operator is factored again only when CG has not converged within
REUSE_MAX_ITER iterations.  The start-up half step's LU and solution are
kept as the temperature ones: its operator S/(dt/2) + K is 2 (S/dt + K/2),
twice the operator of step 0 at nearly the same coefficients, and a
preconditioner's scale does not change CG's iterates, so step 0 reuses it
instead of factoring again.  Every LU is released after its last use on the
final step.  Every solve meets a relative residual of 1e-10.  The Dirichlet
elimination of each solve is a gather planned once per stepper
(fem.DirichletPlan), one plan for the boundary nodes of the scalar operators
and one for the boundary dofs of the displacement operator.  The stepper's
statistics (traj.meta) count factorizations and CG iterations and record the
worst residual and max_lu_fill, the largest fill of L + U it factored.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import fem, mesh as meshmod

#: CG iterations a kept LU may take on a later operator of its kind before
#: that operator is factored again
REUSE_MAX_ITER = 20

#: coefficient fields read by the potential and temperature solves
THERMAL = ("S", "k", "lam", "lam_star")
#: coefficient fields read by the displacement solve
MECHANICAL = ("rho", "c", "beta")
#: coefficient fields a provider gives as element integrals
INTEGRATED = ("k", "lam", "c")


class StepError(RuntimeError):
    pass


@dataclass
class TimeGrid:
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0) or self.n_steps < 1:
            raise ValueError(f"time grid needs a finite dt > 0 and n_steps >= 1, "
                             f"got dt={self.dt}, n_steps={self.n_steps}")

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
    """The snapshots of one run on grid, in increasing step m, the run's
    solver statistics (empty for a trajectory read back from a file) and its
    stamp: {configuration section: sha256} of the input it ran with, which
    its caller sets (config.SimulationConfig.stamp; Stepper.run leaves it empty)."""

    mesh: object
    grid: TimeGrid
    snapshots: list
    meta: dict
    stamp: dict


class TableProvider:
    """Effective coefficients from the off-line table, interpolated at the nodes.

    The fields are P1 in space: the stiffness coefficients k, lam and c are
    integrated over each element exactly, the others P1-interpolated to the
    quadrature points.
    """

    #: provider field -> table coefficient
    NAMES = {"S": "S_hat", "k": "k_hat", "lam": "lam_hat", "lam_star": "lam_hat_star",
             "rho": "rho_hat", "c": "c_hat", "beta": "beta_hat"}

    def __init__(self, space, table):
        self.space = space
        self.table = table

    def __call__(self, T_nodal, fields):
        # tensor axes leading, node axis last
        f = self.table.coeff_fields(T_nodal, [self.NAMES[n] for n in fields])
        out = {}
        for n in fields:
            v = f[self.NAMES[n]]
            if n in INTEGRATED:
                out[n] = self.space.element_integrals(v)
            else:
                out[n] = np.moveaxis(self.space.at_quadrature(v), (-2, -1), (0, 1))
        return out

    def nodal_beta_star(self, T_nodal):
        return self.table.coeff_fields(T_nodal, ["beta_hat_star"])["beta_hat_star"]


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


def recover_nodal_gradient(space, nodal):
    """Gradient recovery: area-weighted averaging, least-squares at the boundary.

    nodal (..., nn) -> (..., nn, 2).
    """
    mesh = space.mesh
    ge = fem.element_gradient(mesh, nodal)  # (..., nt, 2)
    g = space.recovery @ np.moveaxis(ge, -2, 0).reshape(mesh.num_triangles, -1)
    return np.moveaxis(g.reshape((mesh.num_nodes,) + ge.shape[:-2] + (2,)), 0, -2)


class Stepper:
    """Time integrator for the coupled system on one mesh.

    run() keeps the initial state, every snapshot_stride-th step and the
    last step.
    """

    def __init__(self, space: fem.FemSpace, provider, data: ProblemData, grid: TimeGrid,
                 snapshot_stride: int):
        if snapshot_stride < 1:
            raise ValueError(f"snapshot_stride must be at least 1, got {snapshot_stride}")
        self.space = space
        self.mesh = space.mesh
        self.provider = provider
        self.data = data
        self.grid = grid
        self.stride = snapshot_stride
        self._bn = self.mesh.boundary_nodes
        self._scalar_bc = fem.DirichletPlan(space.scalar_pattern, self._bn)
        # all x-dofs, then all y-dofs of the boundary nodes
        self._vector_bc = fem.DirichletPlan(space.vector_pattern,
                                            np.concatenate([2 * self._bn, 2 * self._bn + 1]))

    # -- helpers ---------------------------------------------------------
    def _solve(self, kind, A, b, keep=True):
        """Solve the Dirichlet-reduced system A x = b of one operator kind.

        Reuses the LU kept for kind as a CG preconditioner, started from the
        last solution of kind, and factors A only when there is none or CG
        does not converge; the LU in use is kept for the next solve of that
        kind if keep.  A SolverError from here names kind.
        """
        stats = self._stats
        solver = self._factors.pop(kind, None)
        x = None
        try:
            if solver is not None:
                x, iterations = solver.solve_near(A, b, REUSE_MAX_ITER, self._last.get(kind))
                stats["cg_iterations"] += iterations
            if x is None:
                solver = None  # release the old LU before SuperLU runs
                solver = fem.SpdSolver(A)
                stats["factorizations"] += 1
                stats["max_lu_fill"] = max(stats["max_lu_fill"], solver.fill)
                x = solver.solve(b)
        except fem.SolverError as e:
            raise fem.SolverError(f"{kind} solve: {e}") from e
        stats["worst_residual"] = max(stats["worst_residual"], solver.residual)
        if keep:
            self._factors[kind] = solver
        self._last[kind] = x
        return x

    def _qp_eval(self, fn, t):
        """fn at the quadrature points: (npts, ...) values -> (nt, nq, ...)."""
        xq = self.space.xq
        v = np.asarray(fn(xq.reshape(-1, 2), t), dtype=float)
        return v.reshape(xq.shape[:2] + v.shape[1:])

    # -- schemes ---------------------------------------------------------
    def run(self) -> Trajectory:
        mesh, grid, data = self.mesh, self.grid, self.data
        nn = mesh.num_nodes
        dt = grid.dt
        self._factors = {}  # operator kind -> the SpdSolver kept for reuse
        self._last = {}  # operator kind -> its last solution, CG's next start
        self._stats = {"factorizations": 0, "cg_iterations": 0, "worst_residual": 0.0,
                       "max_lu_fill": 0}

        T0 = np.full(nn, float(data.T_init))
        U0 = np.asarray(data.U_init(mesh.nodes, 0.0), float).reshape(nn, 2).T
        V0 = np.asarray(data.V_init(mesh.nodes, 0.0), float).reshape(nn, 2).T
        U_m1 = U0 - dt * V0

        co = self.provider(T0, THERMAL)
        Phi = self._solve("potential", *self._potential_system(co, 0.0))

        # backward-Euler half step for the m=0 temperature extrapolant; its
        # LU and solution are kept for step 0's temperature solve (see the
        # module docstring)
        That = self._solve("temperature", *self._temperature_system(
            co, T0, T0, Phi, V0, 0.5 * dt, 0.5 * dt, 0.5 * dt, 1.0))
        # the coefficient arrays are the largest per-step data on a fine mesh:
        # hold one set at a time, so that they do not add to the memory peak
        # of the displacement factorization
        del co

        snapshots = [Snapshot(0, 0.0, T0.copy(), T0.copy(), Phi.copy(), U0.copy(),
                              U_m1.copy(), U_m1.copy())]

        T_prev, T_cur = T0.copy(), T0.copy()
        U_prev, U_cur = U_m1, U0
        for m in range(grid.n_steps):
            t_half = grid.time(m) + 0.5 * dt
            t_next = grid.time(m + 1)
            keep = m + 1 < grid.n_steps  # release every LU after its last use
            if m > 0:
                That = 1.5 * T_cur - 0.5 * T_prev
            co_half = self.provider(That, THERMAL)
            try:
                Phi = self._solve("potential", *self._potential_system(co_half, t_half), keep)
                T_next = self._solve("temperature", *self._temperature_system(
                    co_half, That, T_cur, Phi, (U_cur - U_prev) / dt, t_half, t_next, dt, 0.5),
                    keep)
                del co_half  # one coefficient set at a time, as above
                U_next = self._solve("displacement", *self._displacement_system(
                    T_next, U_cur, U_prev, t_next), keep).reshape(nn, 2).T
            except fem.SolverError as e:
                raise StepError(f"step {m}: {e}") from e
            T_prev, T_cur = T_cur, T_next
            U_prev2, U_prev, U_cur = U_prev, U_cur, U_next
            if (m + 1) % self.stride == 0 or m + 1 == grid.n_steps:
                snapshots.append(Snapshot(m + 1, t_next, T_cur.copy(), T_prev.copy(),
                                          Phi.copy(), U_cur.copy(), U_prev.copy(),
                                          U_prev2.copy()))
        return Trajectory(mesh, grid, snapshots, self._stats, {})

    # Each *_system method returns the Dirichlet-reduced (A, b) of one solve.
    # The unreduced operators and the coefficient arrays die with its frame,
    # so they are freed before the factorization runs.
    def _potential_system(self, co, t):
        A = fem.assemble_grad_grad(self.space, co["lam"])
        b = fem.assemble_source(self.space, self._qp_eval(self.data.f_Phi, t))
        vals = np.asarray(self.data.bc_Phi(self.mesh.nodes[self._bn], t), float)
        return self._scalar_bc.apply(A, b, vals)

    def _joule_qp(self, co, Phi):
        """lam*_ij dPhi/dx_i dPhi/dx_j at the quadrature points."""
        g0, g1 = fem.element_gradient(self.mesh, Phi).T[:, :, None]  # (nt, 1) each
        lam_star = co["lam_star"]
        if lam_star.ndim == 2:  # isotropic: lam* |grad Phi|^2
            return lam_star * (g0 * g0 + g1 * g1)
        return (lam_star[..., 0, 0] * g0 * g0 + lam_star[..., 0, 1] * g0 * g1
                + lam_star[..., 1, 0] * g1 * g0 + lam_star[..., 1, 1] * g1 * g1)

    def _temperature_system(self, co, That, T_start, Phi, V, t_src, t_end, tau, theta):
        """Theta-scheme temperature step of length tau from T_start, boundary values at t_end.

        S (T - T_start)/tau + K (theta T + (1 - theta) T_start) = Joule + f_T(t_src) - sink,
        with the deformation-rate sink That * beta*_ij dV_i/dx_j of the velocity V,
        assembled only for a nonzero V.
        """
        space, mesh = self.space, self.mesh
        Ms = fem.assemble_mass(space, co["S"] / tau)
        K = fem.assemble_grad_grad(space, co["k"])
        b = fem.assemble_source(space, self._joule_qp(co, Phi) + self._qp_eval(self.data.f_T, t_src))
        if np.any(V):  # a zero V gives an exactly zero sink: not assembled
            gV = recover_nodal_gradient(space, V)  # (2, nn, 2)
            bstar = self.provider.nodal_beta_star(That)  # (2, 2, nn)
            sink = That * np.einsum("ijn,inj->n", bstar, gV)
            b -= fem.assemble_source(space, space.at_quadrature(sink))
        b += Ms @ T_start - (1.0 - theta) * (K @ T_start)
        A = space.scalar_pattern.matrix(Ms.data + theta * K.data)
        vals = np.asarray(self.data.bc_T(mesh.nodes[self._bn], t_end), float)
        return self._scalar_bc.apply(A, b, vals)

    def _displacement_system(self, T_next, U_cur, U_prev, t_next):
        space, mesh, dt = self.space, self.mesh, self.grid.dt
        co = self.provider(T_next, MECHANICAL)
        Mr = fem.assemble_mass(space, co["rho"] / dt**2)
        A = fem.assemble_elasticity(space, co["c"])
        dT_qp = space.at_quadrature(T_next - self.data.T_init)
        beta = co["beta"]
        # an isotropic beta (nt, nq) gives the isotropic stress density beta dT
        G = beta * dT_qp if beta.ndim == 2 else np.einsum("tqij,tq->tqij", beta, dT_qp)
        b = fem.assemble_tensor_flux(space, G)
        b += fem.assemble_vector_source(space, self._qp_eval(self.data.f_U, t_next))
        # the interleaved mass kron(Mr, I_2) acts on each component alone,
        # and is added to A on the vector pattern: A = kron(Mr, I_2) + Kc
        b += _flat(np.stack([Mr @ w for w in 2.0 * U_cur - U_prev]))
        A.data[space.vector_mass_slots] += Mr.data[:, None]
        arr = np.asarray(self.data.bc_U(mesh.nodes[self._bn], t_next), float).reshape(-1, 2)
        vals = np.concatenate([arr[:, 0], arr[:, 1]])  # in the order of the plan's dofs
        return self._vector_bc.apply(A, b, vals)


def _flat(U):
    """(2, nn) component-major -> interleaved (2nn,)."""
    return U.T.ravel()


#: the Snapshot fields, one array each in a trajectory file
_SNAPSHOT_FIELDS = [f.name for f in dataclasses.fields(Snapshot)]


def save_trajectory(traj: Trajectory, path) -> None:
    """Persist a trajectory to one npz file: the grid, the mesh's arrays, the
    stamp as (section, sha256) rows and each Snapshot field over the snapshots.

    The members are stored, not compressed: zlib would cost more time than
    the space it saves is worth, and each member keeps its crc32.
    """
    np.savez(path, dt=np.float64(traj.grid.dt), n_steps=np.int64(traj.grid.n_steps),
             **{k: getattr(traj.mesh, k) for k in meshmod.MESH_ARRAYS},
             stamp=np.array(sorted(traj.stamp.items()), dtype=str).reshape(-1, 2),
             **{name: np.array([getattr(s, name) for s in traj.snapshots])
                for name in _SNAPSHOT_FIELDS})


def load_trajectory(path, stage: str) -> Trajectory:
    """The trajectory save_trajectory wrote to path, on its own mesh
    (mesh.load_mesh); each array is read once.  Raises mesh.ArtifactError,
    naming path and `homsim stage`, which writes it, on a file mesh.read_npz
    refuses, an array of another dtype kind or shape than the mesh's node
    count and the snapshot count give, or a grid TimeGrid refuses."""
    mesh = meshmod.load_mesh(path, stage)
    z = meshmod.read_npz(path, stage, ["dt", "n_steps", "stamp", *_SNAPSHOT_FIELDS], read=True)
    ns, nn = z["m"].size, mesh.num_nodes
    meshmod.check_arrays(path, stage, z, {
        "dt": ("f", ()), "n_steps": ("iu", ()), "stamp": ("U", (z["stamp"].size // 2, 2)),
        "m": ("iu", (ns,)), "t": ("f", (ns,)), **dict.fromkeys(("T", "T_prev", "Phi"), ("f", (ns, nn))),
        **dict.fromkeys(("U", "U_prev", "U_prevprev"), ("f", (ns, 2, nn)))})
    try:
        grid = TimeGrid(dt=float(z["dt"]), n_steps=int(z["n_steps"]))
    except ValueError as e:
        raise meshmod.ArtifactError(f"{path}: malformed: {e}; re-run `homsim {stage}`") from None
    # m and t as Python numbers, the others as rows of their arrays
    columns = {name: z[name] for name in _SNAPSHOT_FIELDS}
    columns["m"], columns["t"] = columns["m"].tolist(), columns["t"].tolist()
    return Trajectory(mesh, grid, [Snapshot(**{name: col[i] for name, col in columns.items()})
                                   for i in range(ns)], meta={}, stamp=dict(z["stamp"].tolist()))
