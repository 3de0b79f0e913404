"""Unit-cell corrector problems (off-line stage).

At a fixed macroscopic temperature T0 the coefficients on the cell depend on
position only through the phase tag, so every problem is a linear elliptic
solve with piecewise-constant coefficients.  Four first-order families (M, H,
N, P) feed the homogenized coefficients; sixteen second-order families feed
the high-order reconstruction.

All problems share one of three operators (scalar heat-conduction form,
scalar electric-conduction form, vector elasticity form), so each operator is
assembled and constrained once per temperature (CellOperators) and reused for
every right-hand side of both orders.

Families whose right-hand sides contain macroscopic x-derivatives (R, Z, A, B)
are solved in factored form: the x-derivative acts only through T0(x), so
d/dx_beta = (dT0/dx_beta) d/dT0 and the tabulated functions carry an extra
leading index beta that is contracted with grad T0 at reconstruction time.
The required d/dT0 of cell functions and of homogenized coefficients come
from finite differences over the temperature table.

Weak convention: a strong equation  div_y(a grad F) = S + div_y G  becomes
int a grad F . grad v = -int S v + int G . grad v  for all admissible v.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .mesh import periodic_pairs

SECOND_ORDER_FAMILIES = (
    "Q", "M2", "R", "O", "G", "J", "H2", "Z", "W",
    "N2", "F", "X", "A", "B", "C", "D",
)


class CellError(RuntimeError):
    pass


class SolveCounter:
    """Counts cell-problem linear solves (used to verify stage separation)."""

    def __init__(self):
        self.count = 0

    def tick(self, n: int = 1):
        self.count += n

    def reset(self):
        self.count = 0


SOLVES = SolveCounter()


@dataclass
class FirstOrderCellSet:
    """First-order correctors at one temperature.

    M, H: (2, nn) scalar correctors per macroscopic gradient direction.
    N: (2, 2, 2, nn) indexed [m, sup, k] -- the vector corrector driven by
       the unit macroscopic strain dU_m/dx_sup, displacement component k.
    P: (2, nn) thermo-elastic corrector, component k.
    """

    T0: float
    M: np.ndarray
    H: np.ndarray
    N: np.ndarray
    P: np.ndarray


@dataclass
class SecondOrderCellSet:
    """Second-order correctors at one temperature.

    Scalar families: Q (nn,); M2, R, O, G, J, H2, Z, W each (2, 2, nn).
    Vector families (component k before the node axis): N2, D (2,2,2,2,nn)
    indexed [a1, a2, m, k]; A (2,2,2,2,nn) indexed [beta, a1, m, k]; F, X, C
    (2,2,nn) indexed [a1, k]; B (2,2,nn) indexed [beta, k].  R, Z, A, B are
    the factored d/dT0 versions contracted with grad T0 at reconstruction.
    """

    T0: float
    Ttilde: float
    fields: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.fields[key]


# ---------------------------------------------------------------------------
# per-element coefficient tables
# ---------------------------------------------------------------------------


def phase_scalar(mesh, law, quantity, T0, order: int = 0):
    """Per-element scalar coefficient (nt,) from the element phase tags."""
    out = np.empty(mesh.num_triangles)
    for ph in law.phases:
        out[mesh.phase_tag == ph] = float(law.eval(ph, quantity, T0, order))
    return out


def phase_elasticity(mesh, law, T0, order: int = 0):
    """Per-element elasticity tensor (nt, 2, 2, 2, 2)."""
    out = np.empty((mesh.num_triangles, 2, 2, 2, 2))
    for ph in law.phases:
        out[mesh.phase_tag == ph] = law.elasticity(ph, T0, order)
    return out


class CellOperators:
    """The three constrained cell operators at one (mesh, law, T0).

    Heat conduction ("k"), electric conduction ("lam") and elasticity ("c")
    are assembled and constrained once, here; solve(which, b) then costs one
    constrained solve per right-hand side.  Dirichlet cells factor each
    operator; periodic cells reduce it to periodic fields once and solve by
    Jacobi-CG.  One set serves the first- and the second-order problems at
    T0, so the off-line stage builds one set per temperature.
    """

    def __init__(self, space, law, T0, bc: str = "dirichlet"):
        if not law.in_range(T0):
            raise CellError(f"T0={T0} outside the declared material range {law.T_range}")
        if bc not in ("dirichlet", "periodic"):
            raise CellError(f"unknown cell boundary condition {bc!r}")
        mesh = self.mesh = space.mesh
        self.space = space
        self.law = law
        self.T0 = float(T0)
        self.bc = bc
        self.k_e = phase_scalar(mesh, law, "k", T0)
        self.lam_e = phase_scalar(mesh, law, "lam", T0)
        self.c_e = phase_elasticity(mesh, law, T0)
        ops = {"k": fem.assemble_grad_grad(space, self.k_e),
               "lam": fem.assemble_grad_grad(space, self.lam_e),
               "c": fem.assemble_elasticity(space, self.c_e)}
        if bc == "dirichlet":
            bn = mesh.boundary_nodes
            self._dofs = {"k": bn, "lam": bn, "c": np.concatenate([2 * bn, 2 * bn + 1])}
            self._solvers = {}
            for name, K in ops.items():
                K, _ = fem.apply_dirichlet(K, np.zeros(K.shape[0]), self._dofs[name], 0.0)
                self._solvers[name] = fem.SpdSolver(K)
        else:
            ma, sl = periodic_pairs(mesh)
            self._maps = {name: fem.PeriodicMap(mesh, ma, sl, K) for name, K in ops.items()}

    def solve(self, which, b):
        SOLVES.tick()
        if self.bc == "dirichlet":
            b = b.copy()
            b[self._dofs[which]] = 0.0
            return self._solvers[which].solve(b)
        return self._maps[which].solve(b)


# ---------------------------------------------------------------------------
# first-order problems
# ---------------------------------------------------------------------------


def solve_first_order(ops: CellOperators) -> FirstOrderCellSet:
    """Solve the 4 first-order corrector families at the temperature of ops."""
    mesh, law, T0 = ops.mesh, ops.law, ops.T0
    nn = mesh.num_nodes
    nt = mesh.num_triangles

    M = np.empty((2, nn))
    H = np.empty((2, nn))
    for a in range(2):
        G = np.zeros((nt, 2))
        G[:, a] = -ops.k_e
        M[a] = ops.solve("k", fem.assemble_flux(ops.space, G))
        G = np.zeros((nt, 2))
        G[:, a] = -ops.lam_e
        H[a] = ops.solve("lam", fem.assemble_flux(ops.space, G))

    N = np.empty((2, 2, 2, nn))
    for m in range(2):
        for sup in range(2):
            Gt = -ops.c_e[:, :, :, m, sup]  # G_ij = -c_ij m sup
            x = ops.solve("c", fem.assemble_tensor_flux(ops.space, Gt))
            N[m, sup] = x.reshape(nn, 2).T

    beta_e = phase_scalar(mesh, law, "beta", T0)
    Gt = beta_e[:, None, None] * np.eye(2)[None, :, :]
    P = ops.solve("c", fem.assemble_tensor_flux(ops.space, Gt)).reshape(nn, 2).T

    return FirstOrderCellSet(T0=float(T0), M=M, H=H, N=N, P=P)


# ---------------------------------------------------------------------------
# temperature derivatives of first-order functions
# ---------------------------------------------------------------------------


def dT_of_first_order(entries, T0, tol: float = 1e-9) -> FirstOrderCellSet:
    """Finite-difference d/dT0 of the first-order functions at a table node.

    entries: FirstOrderCellSet list sorted by temperature; T0 must coincide
    with one of them.  Centered differences inside the table, one-sided at
    the ends.
    """
    temps = np.array([e.T0 for e in entries])
    if len(entries) < 2:
        raise CellError("need at least 2 table entries for temperature derivatives")
    i = int(np.argmin(np.abs(temps - T0)))
    if abs(temps[i] - T0) > tol * max(1.0, abs(T0)):
        raise CellError(f"T0={T0} is not a table temperature")
    lo = max(i - 1, 0)
    hi = min(i + 1, len(entries) - 1)
    dT = temps[hi] - temps[lo]
    out = {
        name: (getattr(entries[hi], name) - getattr(entries[lo], name)) / dT
        for name in ("M", "H", "N", "P")
    }
    return FirstOrderCellSet(T0=float(T0), **out)


# ---------------------------------------------------------------------------
# second-order problems
# ---------------------------------------------------------------------------


def _check_compat(mesh, name, S_e, tol):
    """Pure-source solvability check: the source must have zero cell mean."""
    S_e = np.asarray(S_e)
    mean = np.einsum("...t,t->...", S_e, mesh.areas)
    norm = np.sqrt(np.einsum("...t,t->...", S_e**2, mesh.areas))
    if norm.max() <= 1e-12:
        return
    if np.any(np.abs(mean) > tol * np.maximum(norm, 1e-300)):
        raise CellError(
            f"family {name}: source mean {np.abs(mean).max():.3e} exceeds "
            f"{tol:.1e} x norm {norm.max():.3e} (inconsistent homogenized inputs)"
        )


def solve_second_order(
    ops: CellOperators,
    first: FirstOrderCellSet,
    homog,
    Ttilde: float,
    first_dT: FirstOrderCellSet,
    homog_dT,
    compat_tol: float = 1e-8,
) -> SecondOrderCellSet:
    """Solve all 16 second-order corrector families at the temperature of ops.

    `homog` (a HomogenizedCoefficients) carries the effective coefficients
    computed from `first`; `first_dT` / `homog_dT` carry their
    finite-difference d/dT0.
    """
    mesh, law, T0 = ops.mesh, ops.law, ops.T0
    nn = mesh.num_nodes
    nt = mesh.num_triangles
    d2 = np.eye(2)

    k_e, lam_e, c_e = ops.k_e, ops.lam_e, ops.c_e
    beta_e = phase_scalar(mesh, law, "beta", T0)
    rho_e = phase_scalar(mesh, law, "rho", T0)
    cap_e = phase_scalar(mesh, law, "c", T0)
    dk_e = phase_scalar(mesh, law, "k", T0, 1)
    dlam_e = phase_scalar(mesh, law, "lam", T0, 1)
    dbeta_e = phase_scalar(mesh, law, "beta", T0, 1)
    dc_e = phase_elasticity(mesh, law, T0, 1)

    def emean(arr):
        return arr[..., mesh.triangles].mean(axis=-1)

    gM = fem.element_gradient(mesh, first.M)   # (a, nt, 2)
    gH = fem.element_gradient(mesh, first.H)
    gN = fem.element_gradient(mesh, first.N)   # (m, sup, k, nt, 2)
    gP = fem.element_gradient(mesh, first.P)   # (k, nt, 2)
    M_e, H_e = emean(first.M), emean(first.H)  # (a, nt)
    N_e, P_e = emean(first.N), emean(first.P)  # (m,sup,k,nt), (k,nt)

    gMp = fem.element_gradient(mesh, first_dT.M)
    gHp = fem.element_gradient(mesh, first_dT.H)
    gNp = fem.element_gradient(mesh, first_dT.N)
    gPp = fem.element_gradient(mesh, first_dT.P)
    Mp_e, Hp_e = emean(first_dT.M), emean(first_dT.H)
    Np_e, Pp_e = emean(first_dT.N), emean(first_dT.P)

    def gN_kl(g, m, sup):
        """dN^sup_{k m}/dy_l as (nt, k, l)."""
        return np.transpose(g[m, sup], (1, 0, 2))

    def gP_kl(g):
        """dP_k/dy_l as (nt, k, l)."""
        return np.transpose(g, (1, 0, 2))

    def scalar_solve(which, S_e=None, G_e=None):
        b = np.zeros(nn)
        if S_e is not None:
            b -= fem.assemble_source(ops.space, S_e)
        if G_e is not None:
            b += fem.assemble_flux(ops.space, G_e)
        return ops.solve(which, b)

    def vector_solve(S_e=None, G_e=None):
        b = np.zeros(2 * nn)
        if S_e is not None:
            b -= fem.assemble_vector_source(ops.space, S_e)
        if G_e is not None:
            b += fem.assemble_tensor_flux(ops.space, G_e)
        return ops.solve("c", b).reshape(nn, 2).T

    F = {}

    # Q: transient corrector, heat operator, pure source
    S = rho_e * cap_e - homog.S_hat + T0 * beta_e * np.einsum("ktk->t", gP)
    _check_compat(mesh, "Q", S, compat_tol)
    F["Q"] = scalar_solve("k", S_e=S)

    M2 = np.empty((2, 2, nn)); R = np.empty((2, 2, nn))
    O = np.empty((2, 2, nn)); Gf = np.empty((2, 2, nn))
    J = np.empty((2, 2, nn)); H2 = np.empty((2, 2, nn))
    Z = np.empty((2, 2, nn)); W = np.empty((2, 2, nn))
    for a1 in range(2):
        for a2 in range(2):
            # second thermal corrector
            S = homog.k_hat[a1, a2] - k_e * d2[a1, a2] - k_e * gM[a2][:, a1]
            Ge = np.zeros((nt, 2))
            Ge[:, a1] = -k_e * M_e[a2]
            M2[a1, a2] = scalar_solve("k", S_e=S, G_e=Ge)

            # factored x-derivative thermal corrector (beta=a1, dir=a2)
            S = (homog_dT.k_hat[a1, a2] - dk_e * d2[a1, a2]
                 - dk_e * gM[a2][:, a1] - k_e * gMp[a2][:, a1])
            Ge = np.zeros((nt, 2))
            Ge[:, a1] = -k_e * Mp_e[a2]
            R[a1, a2] = scalar_solve("k", S_e=S, G_e=Ge)

            # quadratic temperature-gradient corrector
            Ge = -(M_e[a1] * dk_e)[:, None] * (d2[a2][None, :] + gM[a2])
            O[a1, a2] = scalar_solve("k", G_e=Ge)

            # Joule corrector (heat operator, electric data)
            S = (homog.lam_hat_star[a1, a2] - lam_e * d2[a1, a2]
                 - lam_e * gH[a1][:, a2] - lam_e * gH[a2][:, a1]
                 - lam_e * np.einsum("ti,ti->t", gH[a1], gH[a2]))
            _check_compat(mesh, "G", S, compat_tol)
            Gf[a1, a2] = scalar_solve("k", S_e=S)

            # thermo-mechanical transient corrector
            S = T0 * (beta_e * d2[a1, a2] - homog.beta_hat_star[a1, a2]
                      + beta_e * np.einsum("iti->t", gN[a1, a2]))
            _check_compat(mesh, "J", S, compat_tol)
            J[a1, a2] = scalar_solve("k", S_e=S)

            # electric analogues on the electric operator
            S = homog.lam_hat[a1, a2] - lam_e * d2[a1, a2] - lam_e * gH[a2][:, a1]
            Ge = np.zeros((nt, 2))
            Ge[:, a1] = -lam_e * H_e[a2]
            H2[a1, a2] = scalar_solve("lam", S_e=S, G_e=Ge)

            S = (homog_dT.lam_hat[a1, a2] - dlam_e * d2[a1, a2]
                 - dlam_e * gH[a2][:, a1] - lam_e * gHp[a2][:, a1])
            Ge = np.zeros((nt, 2))
            Ge[:, a1] = -lam_e * Hp_e[a2]
            Z[a1, a2] = scalar_solve("lam", S_e=S, G_e=Ge)

            Ge = -(M_e[a1] * dlam_e)[:, None] * (d2[a2][None, :] + gH[a2])
            W[a1, a2] = scalar_solve("lam", G_e=Ge)

    N2 = np.empty((2, 2, 2, 2, nn))
    A = np.empty((2, 2, 2, 2, nn))
    D = np.empty((2, 2, 2, 2, nn))
    for m in range(2):
        for a1 in range(2):
            for a2 in range(2):
                # second elastic corrector
                S = (homog.c_hat[:, a1, m, a2][None, :]
                     - c_e[:, :, a1, m, a2]
                     - np.einsum("tikl,tkl->ti", c_e[:, :, a1], gN_kl(gN, m, a2)))
                Ge = -np.einsum("tijk,kt->tij", c_e[..., a1], N_e[m, a2])
                N2[a1, a2, m] = vector_solve(S_e=S, G_e=Ge)

                # factored x-derivative elastic corrector (beta=a1, sup=a2)
                S = (homog_dT.c_hat[:, a1, m, a2][None, :]
                     - dc_e[:, :, a1, m, a2]
                     - np.einsum("tikl,tkl->ti", dc_e[:, :, a1], gN_kl(gN, m, a2))
                     - np.einsum("tikl,tkl->ti", c_e[:, :, a1], gN_kl(gNp, m, a2)))
                Ge = -np.einsum("tijk,kt->tij", c_e[..., a1], Np_e[m, a2])
                A[a1, a2, m] = vector_solve(S_e=S, G_e=Ge)

                # gradient-coupled elastic corrector
                Ge = -M_e[a1][:, None, None] * (
                    dc_e[:, :, :, m, a2]
                    + np.einsum("tijkl,tkl->tij", dc_e, gN_kl(gN, m, a2)))
                D[a1, a2, m] = vector_solve(G_e=Ge)

    Ff = np.empty((2, 2, nn))
    X = np.empty((2, 2, nn))
    B = np.empty((2, 2, nn))
    C = np.empty((2, 2, nn))
    for a1 in range(2):
        # inertia corrector, pure source
        S = np.zeros((nt, 2))
        S[:, a1] = rho_e - homog.rho_hat
        _check_compat(mesh, "F", S.T, compat_tol)
        Ff[a1] = vector_solve(S_e=S)

        # thermal-stress gradient corrector
        S = (beta_e[:, None] * d2[None, :, a1]
             - homog.beta_hat[:, a1][None, :]
             - np.einsum("tikl,tkl->ti", c_e[:, :, a1], gP_kl(gP)))
        Ge = (-np.einsum("tijk,kt->tij", c_e[..., a1], P_e)
              + (beta_e * M_e[a1])[:, None, None] * d2[None, :, :])
        X[a1] = vector_solve(S_e=S, G_e=Ge)

        # factored x-derivative thermal-stress corrector (beta=a1)
        S = (dbeta_e[:, None] * d2[None, :, a1]
             - homog_dT.beta_hat[:, a1][None, :]
             - np.einsum("tikl,tkl->ti", dc_e[:, :, a1], gP_kl(gP))
             - np.einsum("tikl,tkl->ti", c_e[:, :, a1], gP_kl(gPp)))
        Ge = -np.einsum("tijk,kt->tij", c_e[..., a1], Pp_e)
        B[a1] = vector_solve(S_e=S, G_e=Ge)

        # temperature-offset gradient corrector
        Ge = M_e[a1][:, None, None] * (
            dbeta_e[:, None, None] * d2[None, :, :]
            - np.einsum("tijkl,tkl->tij", dc_e, gP_kl(gP)))
        C[a1] = vector_solve(G_e=Ge)

    F.update(M2=M2, R=R, O=O, G=Gf, J=J, H2=H2, Z=Z, W=W,
             N2=N2, F=Ff, X=X, A=A, B=B, C=C, D=D)
    return SecondOrderCellSet(T0=float(T0), Ttilde=float(Ttilde), fields=F)
