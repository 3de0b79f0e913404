"""Unit-cell corrector problems (off-line stage).

At a fixed macroscopic temperature T0 the coefficients on the cell depend on
position only through the phase tag, so every problem is a linear elliptic
solve with piecewise-constant coefficients.  Four first-order families (M, H,
N, P) feed the homogenized coefficients; sixteen second-order families feed
the high-order reconstruction.

CellOperators owns everything that depends on T0: the per-element
coefficients at T0 (from MaterialLaw.per_element; their T-slopes on demand)
and the three operators (scalar heat-conduction form, scalar
electric-conduction form, vector elasticity form).  Each operator is
assembled, constrained and factored once per temperature and reused for
every right-hand side; the first-order solver, the effective coefficients
(homog.compute_coefficients) and the second-order solver all read their
coefficients from it.  The one exception is the first order on
periodic cells: those correctors feed the homogenized coefficients, whose
benchmark digest pins the rounding of pure-noise columns, so they keep the
Jacobi-CG solve (fem.PeriodicMap.solve) that produced the digest.

Each second-order family is solved as one block: the element loads of every
index combination come from one batched product per element, one product
with the operator's CsrPattern.load sums them into an (ndof, k) load block,
as it sums every load vector of fem, and one multi-column LU call solves it.

Families whose right-hand sides contain macroscopic x-derivatives (R, Z, A, B)
are solved in factored form: the x-derivative acts only through T0(x), so
d/dx_beta = (dT0/dx_beta) d/dT0 and the tabulated functions carry an extra
leading index beta that is contracted with grad T0 at reconstruction time.
The required d/dT0 of cell functions and of homogenized coefficients come
from one finite-difference rule over the temperature table (centred_slope).

Weak convention: a strong equation  div_y(a grad F) = S + div_y G  becomes
int a grad F . grad v = -int S v + int G . grad v  for all admissible v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fem
from .materials import MaterialError, elasticity_tensor
from .mesh import periodic_pairs

SECOND_ORDER_FAMILIES = (
    "Q", "M2", "R", "O", "G", "J", "H2", "Z", "W",
    "N2", "F", "X", "A", "B", "C", "D",
)


#: largest cell mean of a pure source, relative to its norm (solvability check)
COMPAT_TOL = 1e-8


class CellError(RuntimeError):
    pass


class SolveCounter:
    """Counts cell-problem linear solves (used to verify stage separation)."""

    def __init__(self):
        self.count = 0

    def tick(self, n: int):
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

    def gradients(self, mesh):
        """Element gradients of M, H, N, P: (a, nt, 2), (a, nt, 2),
        (m, sup, k, nt, 2), (k, nt, 2)."""
        return tuple(fem.element_gradient(mesh, f) for f in (self.M, self.H, self.N, self.P))

    def element_means(self, mesh):
        """Element means of M, H, N, P: (a, nt), (a, nt), (m, sup, k, nt), (k, nt)."""
        return tuple(f[..., mesh.triangles].mean(axis=-1)
                     for f in (self.M, self.H, self.N, self.P))


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
    """The per-element coefficients and the three constrained cell operators
    at one (mesh, law, T0).

    k_e, lam_e, beta_e, rho_e, cap_e (nt,) and c_e (nt, 2, 2, 2, 2) are the
    phase coefficients of each element at T0, evaluated once from
    MaterialLaw.per_element; slope() and elasticity_slope() give their
    T-derivatives on demand.

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

    def __init__(self, space, law, T0, bc: str):
        if not law.in_range(T0):
            raise CellError(f"T0={T0} outside the declared material range {law.T_range}")
        if bc not in ("dirichlet", "periodic"):
            raise CellError(f"unknown cell boundary condition {bc!r}")
        mesh = self.mesh = space.mesh
        self.space = space
        self.law = law
        self.T0 = float(T0)
        self.bc = bc
        self._laws = law.per_element(mesh.phase_tag)
        self.k_e, self.lam_e, self.beta_e, self.rho_e, self.cap_e = (
            self._at_T0(q) for q in ("k", "lam", "beta", "rho", "c"))
        self.c_e = elasticity_tensor(self._at_T0("E"), self._at_T0("nu"), law.plane)
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

    def _at_T0(self, quantity):
        a, b = self._laws[quantity]
        return a + b * self.T0

    def slope(self, quantity):
        """d/dT of a scalar property per element (nt,): the slope of its affine law."""
        return self._laws[quantity][1]

    def elasticity_slope(self):
        """dc/dT per element (nt, 2, 2, 2, 2), for a Poisson ratio constant in T:
        c is linear in E at fixed nu, so dc/dT = c(E=1, nu) dE/dT."""
        if np.any(self.slope("nu") != 0.0):
            raise MaterialError("temperature-dependent Poisson ratio is not supported")
        unit = elasticity_tensor(1.0, self._at_T0("nu"), self.law.plane)
        return unit * self.slope("E")[:, None, None, None, None]

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
        tolerance by the whole tensor (ROADMAP item 6).
        """
        if self.bc == "dirichlet":
            return self.solve(which, b)
        SOLVES.tick(1)
        return self._maps[which].solve(b)


# ---------------------------------------------------------------------------
# first-order problems
# ---------------------------------------------------------------------------


def solve_first_order(ops: CellOperators) -> FirstOrderCellSet:
    """Solve the 4 first-order corrector families at the temperature of ops."""
    # One right-hand side at a time, by fem's cell-stage kernels: these solves
    # feed the coefficients.csv digest (see CellOperators.solve_first).  They
    # move onto the second order's load blocks (_solve_family) with ROADMAP
    # item 6.
    nn = ops.mesh.num_nodes
    nt = ops.mesh.num_triangles

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

    Gt = ops.beta_e[:, None, None] * np.eye(2)[None, :, :]
    P = ops.solve_first("c", fem.assemble_cell_tensor_flux(ops.space, Gt)).reshape(nn, 2).T

    return FirstOrderCellSet(T0=ops.T0, M=M, H=H, N=N, P=P)


# ---------------------------------------------------------------------------
# temperature derivatives over the table
# ---------------------------------------------------------------------------


def centred_slope(entries, temps, i, names) -> dict:
    """Finite-difference d/dT of the named attributes of entries at temps[i].

    entries[j] holds the values at temps[j] (increasing).  Centred
    differences inside the table, one-sided at its ends.
    """
    lo, hi = max(i - 1, 0), min(i + 1, len(entries) - 1)
    dT = temps[hi] - temps[lo]
    return {name: (getattr(entries[hi], name) - getattr(entries[lo], name)) / dT
            for name in names}


def dT_of_first_order(entries, i) -> FirstOrderCellSet:
    """centred_slope of the first-order functions at table node i.

    entries: FirstOrderCellSet list sorted by temperature.
    """
    if len(entries) < 2:
        raise CellError("need at least 2 table entries for temperature derivatives")
    temps = np.array([e.T0 for e in entries])
    return FirstOrderCellSet(T0=float(temps[i]),
                             **centred_slope(entries, temps, i, ("M", "H", "N", "P")))


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
    (..., 2, nn).  The leading axes index the family.

    Element t gives vertex a, in component i, the load
    -|t|/3 S_i + |t| sum_j G_ij g_aj (|t| its area, g_a the gradient of the
    hat function of vertex a): one (3, r) @ (r, nc k) product per element,
    over the r data rows G_i1, G_i2 and S_i the family has, copied once from
    views of S and G.  One product with the operator's CsrPattern.load sums
    these element loads (t, a, i) into the (ndof, k) block, interleaved for
    elasticity, and one CellOperators.solve solves it; the element loads are
    freed before the solve.
    """
    mesh, nc = ops.mesh, 2 if which == "c" else 1
    nt, nn = mesh.num_triangles, mesh.num_nodes
    fam = S.shape[:S.ndim - nc] if S is not None else G.shape[:G.ndim - nc - 1]
    weights, rows = [], []  # (nt, 3, 2 or 1) and fam + (nt, nc) each
    if G is not None:
        weights.append(mesh.areas[:, None, None] * mesh.grads)
        rows += [G.reshape(fam + (nt, nc, 2))[..., j] for j in range(2)]
    if S is not None:
        weights.append(np.broadcast_to(mesh.areas[:, None, None] / -3.0, (nt, 3, 1)))
        rows.append(S.reshape(fam + (nt, nc)))
    data = np.empty((nt, len(rows), nc) + fam)
    for r, row in enumerate(rows):
        data[:, r] = np.moveaxis(row, range(len(fam)), range(-len(fam), 0))
    elem = np.concatenate(weights, axis=2) @ data.reshape(nt, len(rows), -1)  # (t, a, i, fam)
    del data
    pattern = ops.space.vector_pattern if nc == 2 else ops.space.scalar_pattern
    B = pattern.load @ elem.reshape(3 * nt * nc, -1)
    del elem
    X = ops.solve(which, B).T.reshape(fam + (nn, nc))
    X = np.moveaxis(X, -1, -2)  # (..., component, node)
    return np.ascontiguousarray(X if nc == 2 else X[..., 0, :])


def solve_second_order(
    ops: CellOperators,
    first: FirstOrderCellSet,
    homog,
    first_dT: FirstOrderCellSet,
    homog_dT,
) -> dict:
    """Solve all 16 second-order corrector families at the temperature of ops.

    Returns {family: corrector} in SECOND_ORDER_FAMILIES order.  Scalar
    families: Q (nn,); M2, R, O, G, J, H2, Z, W each (2, 2, nn).  Vector
    families (component k before the node axis): N2, D (2,2,2,2,nn) indexed
    [a1, a2, m, k]; A (2,2,2,2,nn) indexed [beta, a1, m, k]; F, X, C (2,2,nn)
    indexed [a1, k]; B (2,2,nn) indexed [beta, k].  R, Z, A, B are the
    factored d/dT0 versions contracted with grad T0 at reconstruction.

    `homog` (a HomogenizedCoefficients) carries the effective coefficients
    computed from `first`; `first_dT` / `homog_dT` carry their
    finite-difference d/dT0.
    """
    mesh, T0 = ops.mesh, ops.T0
    d2 = np.eye(2)

    k_e, lam_e, c_e = ops.k_e, ops.lam_e, ops.c_e
    beta_e, rho_e, cap_e = ops.beta_e, ops.rho_e, ops.cap_e
    dk_e, dlam_e, dbeta_e = ops.slope("k"), ops.slope("lam"), ops.slope("beta")
    dc_e = ops.elasticity_slope()

    gM, gH, gN, gP = first.gradients(mesh)
    M_e, H_e, N_e, P_e = first.element_means(mesh)
    gMp, gHp, gNp, gPp = first_dT.gradients(mesh)
    Mp_e, Hp_e, Np_e, Pp_e = first_dT.element_means(mesh)

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

    # second elastic corrector
    F["N2"] = solve("c", S=(c_at(homog.c_hat, c_e)
                            - np.einsum("tiakl,mbktl->abmti", c_e, gN, optimize=True)),
                    G=np.einsum("tijka,mbkt->abmtij", c_e, -N_e, optimize=True))
    # factored x-derivative elastic corrector (beta=a1, sup=a2)
    F["A"] = solve("c", S=(c_at(homog_dT.c_hat, dc_e)
                           - np.einsum("tiakl,mbktl->abmti", dc_e, gN, optimize=True)
                           - np.einsum("tiakl,mbktl->abmti", c_e, gNp, optimize=True)),
                   G=np.einsum("tijka,mbkt->abmtij", c_e, -Np_e, optimize=True))
    # gradient-coupled elastic corrector
    F["D"] = solve("c", G=-M_e[:, None, None, :, None, None] * (
        np.transpose(dc_e, (4, 3, 0, 1, 2))
        + np.einsum("tijkl,mbktl->bmtij", dc_e, gN, optimize=True))[None])

    # elastic families indexed [a1], data as (a1, t, i[, j])
    # inertia corrector, pure source
    S = (rho_e - homog.rho_hat)[None, :, None] * d2[:, None, :]
    _check_compat(mesh, "F", np.swapaxes(S, -1, -2))
    F["F"] = solve("c", S=S)
    # thermal-stress gradient corrector
    F["X"] = solve("c", S=(beta_e[None, :, None] * d2[:, None, :]
                           - homog.beta_hat.T[:, None, :]
                           - np.einsum("tiakl,ktl->ati", c_e, gP, optimize=True)),
                   G=(np.einsum("tijka,kt->atij", c_e, -P_e, optimize=True)
                      + (beta_e * M_e)[:, :, None, None] * d2))
    # factored x-derivative thermal-stress corrector (beta=a1)
    F["B"] = solve("c", S=(dbeta_e[None, :, None] * d2[:, None, :]
                           - homog_dT.beta_hat.T[:, None, :]
                           - np.einsum("tiakl,ktl->ati", dc_e, gP, optimize=True)
                           - np.einsum("tiakl,ktl->ati", c_e, gPp, optimize=True)),
                   G=np.einsum("tijka,kt->atij", c_e, -Pp_e, optimize=True))
    # temperature-offset gradient corrector
    F["C"] = solve("c", G=M_e[:, :, None, None] * (
        dbeta_e[:, None, None] * d2
        - np.einsum("tijkl,ktl->tij", dc_e, gP, optimize=True))[None])

    return {name: F[name] for name in SECOND_ORDER_FAMILIES}
