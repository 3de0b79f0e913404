"""Unit-cell corrector problems (off-line stage).

At a fixed macroscopic temperature T0 the coefficients on the cell depend on
position only through the phase tag, so every problem is a linear elliptic
solve with piecewise-constant coefficients.  Four first-order families (M, H,
N, P) feed the homogenized coefficients; sixteen second-order families feed
the high-order reconstruction.

All problems share one of three operators (scalar heat-conduction form,
scalar electric-conduction form, vector elasticity form), so each operator is
assembled, constrained and factored once per temperature (CellOperators) and
reused for every right-hand side.  The one exception is the first order on
periodic cells: those correctors feed the homogenized coefficients, whose
benchmark digest pins the rounding of pure-noise columns, so they keep the
Jacobi-CG solve (fem.PeriodicMap.solve) that produced the digest.

Each second-order family is solved as one block: its element-constant data
for every index combination are stacked, mapped to an (ndof, k) load block
by the FemSpace load operators, and solved by one multi-column LU call.

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
from functools import cached_property

import numpy as np

from . import fem
from .mesh import periodic_pairs

SECOND_ORDER_FAMILIES = (
    "Q", "M2", "R", "O", "G", "J", "H2", "Z", "W",
    "N2", "F", "X", "A", "B", "C", "D",
)


#: relative distance within which a temperature is taken as a table temperature
TABLE_T_TOL = 1e-9
#: largest cell mean of a pure source, relative to its norm (solvability check)
COMPAT_TOL = 1e-8


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


class _Dirichlet:
    """A cell operator with zero values on the cell boundary (unit-row elimination).

    A is fem.apply_dirichlet's mask of K: the entries of K off the boundary
    rows and columns, and a unit diagonal on the boundary dofs.
    """

    def __init__(self, K, dofs):
        self.dofs = dofs
        self.A, _ = fem.apply_dirichlet(K, np.zeros(K.shape[0]), dofs, 0.0)

    def reduce(self, b):
        b = b.copy()
        b[self.dofs] = 0.0
        return b

    @staticmethod
    def expand(x):
        return x


class CellOperators:
    """The three constrained cell operators at one (mesh, law, T0).

    Heat conduction ("k"), electric conduction ("lam") and elasticity ("c")
    are assembled and constrained once, here: Dirichlet cells eliminate the
    boundary, periodic cells reduce to periodic fields (fem.PeriodicMap).
    Each constrained operator is factored once (fem.SpdSolver), on the first
    solve, in SuperLU's symmetric mode on periodic cells and with SciPy's
    default ordering on Dirichlet cells (see solve_first).  solve(which, b)
    then costs one reduction, one pair of triangular solves and one
    expansion, for a right-hand side (ndof,) or a block (ndof, k) alike;
    SOLVES counts the columns.  One set serves the first- and the
    second-order problems at T0, so the off-line stage builds one set per
    temperature; a set that only ran periodic first-order solves holds no
    LU.
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
        ops = {"k": fem.assemble_cell_grad_grad(space, self.k_e),
               "lam": fem.assemble_cell_grad_grad(space, self.lam_e),
               "c": fem.assemble_cell_elasticity(space, self.c_e)}
        if bc == "dirichlet":
            bn = mesh.boundary_nodes
            dofs = {"k": bn, "lam": bn, "c": np.concatenate([2 * bn, 2 * bn + 1])}
            self._maps = {name: _Dirichlet(K, dofs[name]) for name, K in ops.items()}
        else:
            ma, sl = periodic_pairs(mesh)
            self._maps = {name: fem.PeriodicMap(mesh, ma, sl, K) for name, K in ops.items()}

    @cached_property
    def _solvers(self):
        # Dirichlet cells keep SciPy's default ordering (see solve_first)
        default = self.bc == "dirichlet"
        return {name: fem.SpdSolver(m.A, default_ordering=default)
                for name, m in self._maps.items()}

    def solve(self, which, b):
        SOLVES.tick(1 if np.ndim(b) == 1 else np.shape(b)[1])
        m = self._maps[which]
        return m.expand(self._solvers[which].solve(m.reduce(b)))

    def solve_first(self, which, b):
        """solve() for the first-order correctors, which feed the coefficients.

        The benchmark's coefficients.csv digest pins the rounding of noise
        columns such as k_hat_12, so these solves keep the path that produced
        it.  Periodic cells solve them by Jacobi-CG (fem.PeriodicMap.solve),
        not by the LU, which rounds them otherwise; Dirichlet cells solve
        them by an LU with SciPy's default ordering (fem.SpdSolver's
        default_ordering), not in SuperLU's symmetric mode.  Delete this
        method, that argument and fem.solve_spd once that digest scales its
        tolerance by the whole tensor (ROADMAP item 1).
        """
        if self.bc == "dirichlet":
            return self.solve(which, b)
        SOLVES.tick()
        return self._maps[which].solve(b)


# ---------------------------------------------------------------------------
# first-order problems
# ---------------------------------------------------------------------------


def solve_first_order(ops: CellOperators) -> FirstOrderCellSet:
    """Solve the 4 first-order corrector families at the temperature of ops."""
    # One right-hand side at a time, by fem's cell-stage kernels: these solves
    # feed the coefficients.csv digest (see CellOperators.solve_first).  They
    # move onto the FemSpace load operators and blocks with ROADMAP item 2.
    mesh, law, T0 = ops.mesh, ops.law, ops.T0
    nn = mesh.num_nodes
    nt = mesh.num_triangles

    M = np.empty((2, nn))
    H = np.empty((2, nn))
    for a in range(2):
        G = np.zeros((nt, 2))
        G[:, a] = -ops.k_e
        M[a] = ops.solve_first("k", fem.assemble_flux(ops.space, G))
        G = np.zeros((nt, 2))
        G[:, a] = -ops.lam_e
        H[a] = ops.solve_first("lam", fem.assemble_flux(ops.space, G))

    N = np.empty((2, 2, 2, nn))
    for m in range(2):
        for sup in range(2):
            Gt = -ops.c_e[:, :, :, m, sup]  # G_ij = -c_ij m sup
            x = ops.solve_first("c", fem.assemble_cell_tensor_flux(ops.space, Gt))
            N[m, sup] = x.reshape(nn, 2).T

    beta_e = phase_scalar(mesh, law, "beta", T0)
    Gt = beta_e[:, None, None] * np.eye(2)[None, :, :]
    P = ops.solve_first("c", fem.assemble_cell_tensor_flux(ops.space, Gt)).reshape(nn, 2).T

    return FirstOrderCellSet(T0=float(T0), M=M, H=H, N=N, P=P)


# ---------------------------------------------------------------------------
# temperature derivatives of first-order functions
# ---------------------------------------------------------------------------


def dT_of_first_order(entries, T0) -> FirstOrderCellSet:
    """Finite-difference d/dT0 of the first-order functions at a table node.

    entries: FirstOrderCellSet list sorted by temperature; T0 must coincide
    with one of them.  Centered differences inside the table, one-sided at
    the ends.
    """
    temps = np.array([e.T0 for e in entries])
    if len(entries) < 2:
        raise CellError("need at least 2 table entries for temperature derivatives")
    i = int(np.argmin(np.abs(temps - T0)))
    if abs(temps[i] - T0) > TABLE_T_TOL * max(1.0, abs(T0)):
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


def _check_compat(mesh, name, S_e):
    """Pure-source solvability check: the source must have zero cell mean."""
    S_e = np.asarray(S_e)
    mean = np.einsum("...t,t->...", S_e, mesh.areas)
    norm = np.sqrt(np.einsum("...t,t->...", S_e**2, mesh.areas))
    # each source on its own: a source of norm below 1e-12 is not checked
    if np.any((norm > 1e-12) & (np.abs(mean) > COMPAT_TOL * norm)):
        raise CellError(
            f"family {name}: source mean {np.abs(mean).max():.3e} exceeds "
            f"{COMPAT_TOL:.1e} x norm {norm.max():.3e} (inconsistent homogenized inputs)"
        )


def _solve_family(ops, which, S=None, G=None):
    """One second-order family as one block: -int S v + int G . grad v per index.

    Scalar families ("k", "lam"): S (..., nt), G (..., nt, 2), result
    (..., nn).  Elasticity ("c"): S (..., nt, 2), G (..., nt, 2, 2), result
    (..., 2, nn); component i of its load is the scalar load of S[..., i]
    and G[..., i, :].  The leading axes index the family: one product per
    load operator and component, and one CellOperators.solve, serve all of
    them.
    """
    space, nc = ops.space, 2 if which == "c" else 1
    nn = ops.mesh.num_nodes
    fam = S.shape[:S.ndim - nc] if S is not None else G.shape[:G.ndim - nc - 1]
    k = int(np.prod(fam))
    B = np.zeros((nn, nc, k))
    for i in range(nc):
        if S is not None:
            B[:, i] -= space.source_load @ S.reshape(k, -1, nc)[:, :, i].T
        if G is not None:
            B[:, i] += space.flux_load @ G.reshape(k, -1, nc, 2)[:, :, i].reshape(k, -1).T
    X = ops.solve(which, B.reshape(nc * nn, k)).T.reshape(fam + (nn, nc))
    X = np.moveaxis(X, -1, -2)  # (..., component, node)
    return np.ascontiguousarray(X if nc == 2 else X[..., 0, :])


def solve_second_order(
    ops: CellOperators,
    first: FirstOrderCellSet,
    homog,
    Ttilde: float,
    first_dT: FirstOrderCellSet,
    homog_dT,
) -> SecondOrderCellSet:
    """Solve all 16 second-order corrector families at the temperature of ops.

    `homog` (a HomogenizedCoefficients) carries the effective coefficients
    computed from `first`; `first_dT` / `homog_dT` carry their
    finite-difference d/dT0.
    """
    mesh, law, T0 = ops.mesh, ops.law, ops.T0
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

    def solve(which, **data):
        return _solve_family(ops, which, **data)

    def along(v):
        """(a1, a2, t, j) = v[a2, t] delta(a1, j): v placed in component a1."""
        return v[None, :, :, None] * d2[:, None, None, :]

    def cross(g):
        """(a1, a2, t) = g[a2, t, a1] for an (a2, nt, 2) element gradient."""
        return np.einsum("bti->ibt", g)

    dd = d2[:, :, None]
    F = {}

    # Q: transient corrector, heat operator, pure source
    S = rho_e * cap_e - homog.S_hat + T0 * beta_e * np.einsum("ktk->t", gP)
    _check_compat(mesh, "Q", S)
    F["Q"] = solve("k", S=S)

    # scalar families indexed [a1, a2]
    # second thermal corrector
    F["M2"] = solve("k", S=homog.k_hat[:, :, None] - k_e * dd - k_e * cross(gM),
                    G=along(-k_e * M_e))
    # factored x-derivative thermal corrector (beta=a1, dir=a2)
    F["R"] = solve("k", S=(homog_dT.k_hat[:, :, None] - dk_e * dd
                           - dk_e * cross(gM) - k_e * cross(gMp)),
                   G=along(-k_e * Mp_e))
    # quadratic temperature-gradient corrector
    F["O"] = solve("k", G=-(M_e * dk_e)[:, None, :, None] * (d2[:, None, :] + gM)[None])

    # Joule corrector (heat operator, electric data)
    S = (homog.lam_hat_star[:, :, None] - lam_e * dd
         - lam_e * np.einsum("ati->ait", gH) - lam_e * cross(gH)
         - lam_e * np.einsum("ati,bti->abt", gH, gH))
    _check_compat(mesh, "G", S)
    F["G"] = solve("k", S=S)

    # thermo-mechanical transient corrector
    S = T0 * (beta_e * dd - homog.beta_hat_star[:, :, None]
              + beta_e * np.einsum("abiti->abt", gN))
    _check_compat(mesh, "J", S)
    F["J"] = solve("k", S=S)

    # electric analogues on the electric operator
    F["H2"] = solve("lam", S=homog.lam_hat[:, :, None] - lam_e * dd - lam_e * cross(gH),
                    G=along(-lam_e * H_e))
    F["Z"] = solve("lam", S=(homog_dT.lam_hat[:, :, None] - dlam_e * dd
                             - dlam_e * cross(gH) - lam_e * cross(gHp)),
                   G=along(-lam_e * Hp_e))
    F["W"] = solve("lam", G=-(M_e * dlam_e)[:, None, :, None] * (d2[:, None, :] + gH)[None])

    # elastic families indexed [a1, a2, m], data as (a1, a2, m, t, i[, j])
    def c_at(c_hat, c):
        """c_hat[i, a1, m, a2] - c[t, i, a1, m, a2]."""
        return (np.transpose(c_hat, (1, 3, 2, 0))[:, :, :, None, :]
                - np.transpose(c, (2, 4, 3, 0, 1)))

    def c_gN(c, g):
        """sum_kl c[t, i, a1, k, l] g[m, a2, k, t, l]."""
        return np.einsum("tiakl,mbktl->abmti", c, g)

    def c_N(Ne):
        """-sum_k c_e[t, i, j, k, a1] Ne[m, a2, k, t]."""
        return np.einsum("tijka,mbkt->abmtij", c_e, -Ne)

    # second elastic corrector
    F["N2"] = solve("c", S=c_at(homog.c_hat, c_e) - c_gN(c_e, gN), G=c_N(N_e))
    # factored x-derivative elastic corrector (beta=a1, sup=a2)
    F["A"] = solve("c", S=c_at(homog_dT.c_hat, dc_e) - c_gN(dc_e, gN) - c_gN(c_e, gNp),
                   G=c_N(Np_e))
    # gradient-coupled elastic corrector
    F["D"] = solve("c", G=-M_e[:, None, None, :, None, None] * (
        np.transpose(dc_e, (4, 3, 0, 1, 2)) + np.einsum("tijkl,mbktl->bmtij", dc_e, gN))[None])

    # elastic families indexed [a1], data as (a1, t, i[, j])
    def c_gP(c, g):
        """sum_kl c[t, i, a1, k, l] g[k, t, l]."""
        return np.einsum("tiakl,ktl->ati", c, g)

    def c_P(Pe):
        """-sum_k c_e[t, i, j, k, a1] Pe[k, t]."""
        return np.einsum("tijka,kt->atij", c_e, -Pe)

    # inertia corrector, pure source
    S = (rho_e - homog.rho_hat)[None, :, None] * d2[:, None, :]
    _check_compat(mesh, "F", np.swapaxes(S, -1, -2))
    F["F"] = solve("c", S=S)
    # thermal-stress gradient corrector
    F["X"] = solve("c", S=(beta_e[None, :, None] * d2[:, None, :]
                           - homog.beta_hat.T[:, None, :] - c_gP(c_e, gP)),
                   G=c_P(P_e) + (beta_e * M_e)[:, :, None, None] * d2)
    # factored x-derivative thermal-stress corrector (beta=a1)
    F["B"] = solve("c", S=(dbeta_e[None, :, None] * d2[:, None, :]
                           - homog_dT.beta_hat.T[:, None, :]
                           - c_gP(dc_e, gP) - c_gP(c_e, gPp)),
                   G=c_P(Pp_e))
    # temperature-offset gradient corrector
    F["C"] = solve("c", G=M_e[:, :, None, None] * (
        dbeta_e[:, None, None] * d2 - np.einsum("tijkl,ktl->tij", dc_e, gP))[None])

    return SecondOrderCellSet(T0=float(T0), Ttilde=float(Ttilde),
                              fields={name: F[name] for name in SECOND_ORDER_FAMILIES})
