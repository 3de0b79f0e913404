"""Effective (homogenized) coefficients and the representative-temperature table.

Coefficients are cell averages of the phase coefficients corrected by
first-order corrector gradients.  The table stores, per representative
temperature, the first- and second-order corrector sets and the coefficient
block, and answers interpolation queries from the on-line stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cell, fem
from .materials import voigt


class HomogError(RuntimeError):
    pass


@dataclass
class HomogenizedCoefficients:
    """Effective coefficients at one temperature (unit cell volume = 1)."""

    T0: float
    S_hat: float
    k_hat: np.ndarray          # (2,2)
    lam_hat: np.ndarray        # (2,2)
    lam_hat_star: np.ndarray   # (2,2)
    rho_hat: float
    c_hat: np.ndarray          # (2,2,2,2)
    beta_hat: np.ndarray       # (2,2)
    beta_hat_star: np.ndarray  # (2,2)

    def as_row(self):
        """T0 and then the CSV_COLUMNS, each flattened in C order."""
        return np.concatenate([[self.T0]] + [np.ravel(getattr(self, name))
                                             for name, _ in CSV_COLUMNS])


#: the coefficient block, in the order of the fields of HomogenizedCoefficients
COEFF_NAMES = ("S_hat", "k_hat", "lam_hat", "lam_hat_star", "rho_hat",
               "c_hat", "beta_hat", "beta_hat_star")

#: the columns of coefficients.csv after T0: (coefficient, tensor rank)
CSV_COLUMNS = (("S_hat", 0), ("rho_hat", 0), ("k_hat", 2), ("lam_hat", 2),
               ("lam_hat_star", 2), ("beta_hat", 2), ("beta_hat_star", 2), ("c_hat", 4))

CSV_HEADER = ["T0"] + [
    (f"{name}_" + "".join(str(i + 1) for i in idx)).rstrip("_")
    for name, rank in CSV_COLUMNS for idx in np.ndindex(*(2,) * rank)
]


def compute_coefficients(ops: cell.CellOperators,
                         first: cell.FirstOrderCellSet) -> HomogenizedCoefficients:
    """Cell-average the corrected coefficients (unit-cell measure is 1)."""
    mesh, T0 = ops.mesh, ops.T0
    if abs(first.T0 - T0) > 1e-9 * max(1.0, abs(T0)):
        raise HomogError(f"corrector set solved at {first.T0}, not {T0}")
    w = mesh.areas
    d2 = np.eye(2)

    k_e, lam_e, beta_e, c_e = ops.k_e, ops.lam_e, ops.beta_e, ops.c_e
    rho_e, cap_e = ops.rho_e, ops.cap_e
    # (j, nt, i), (j, nt, i), (m, sup, comp, nt, deriv), (k, nt, l)
    gM, gH, gN, gP = first.gradients(mesh)

    S_hat = float(np.sum(w * (rho_e * cap_e + T0 * beta_e * np.einsum("ktk->t", gP))))
    rho_hat = float(np.sum(w * rho_e))

    # conduction-type tensors: k_ij = k delta_ij + k dM_j/dy_i
    k_hat = np.einsum("t,ij->ij", w * k_e, d2) + np.einsum("t,jti->ij", w * k_e, gM)
    lam_hat = np.einsum("t,ij->ij", w * lam_e, d2) + np.einsum("t,jti->ij", w * lam_e, gH)
    lam_hat_star = (
        np.einsum("t,ij->ij", w * lam_e, d2)
        + np.einsum("t,jti->ij", w * lam_e, gH)
        + np.einsum("t,itj->ij", w * lam_e, gH)
        + np.einsum("t,ita,jta->ij", w * lam_e, gH, gH)
    )

    # c_hat_ijkl = <c_ijkl + c_ij a1 a2 dN^l_{a1 k}/dy_a2>; the corrector with
    # lower indices (a1, k) and superscript l is stored as gN[k, l, a1, t, a2]
    c_hat = np.einsum("t,tijkl->ijkl", w, c_e) + np.einsum(
        "tijab,klatb->ijkl", w[:, None, None, None, None] * c_e, gN
    )

    beta_hat = np.einsum("t,ij->ij", w * beta_e, d2) - np.einsum(
        "tijkl,ktl->ij", w[:, None, None, None, None] * c_e, gP
    )
    # beta*_ij = <beta delta_ij + beta_a1a2 dN^j_{a1 i}/dy_a2> with isotropic beta
    beta_hat_star = np.einsum("t,ij->ij", w * beta_e, d2) + np.einsum(
        "t,ijata->ij", w * beta_e, gN
    )

    return HomogenizedCoefficients(
        T0=float(T0),
        S_hat=S_hat,
        k_hat=k_hat,
        lam_hat=lam_hat,
        lam_hat_star=lam_hat_star,
        rho_hat=rho_hat,
        c_hat=c_hat,
        beta_hat=beta_hat,
        beta_hat_star=beta_hat_star,
    )


#: largest relative deviation verify_identities accepts
IDENTITY_TOL = 1e-8


def verify_identities(h: HomogenizedCoefficients, law) -> dict:
    """Structural checks: dual-form identities, symmetry, eigenvalue bounds.

    The eigenvalues of k_hat, lam_hat and beta_hat must lie between the
    phase values of law at h.T0.
    """
    rep = {"T0": h.T0, "checks": {}}

    def rel(a, b):
        na = np.linalg.norm(a)
        return float(np.linalg.norm(a - b) / max(na, 1e-300))

    rep["checks"]["lam_eq_lam_star"] = {
        "deviation": rel(h.lam_hat, h.lam_hat_star),
        "pass": rel(h.lam_hat, h.lam_hat_star) <= IDENTITY_TOL,
    }
    rep["checks"]["beta_eq_beta_star"] = {
        "deviation": rel(h.beta_hat, h.beta_hat_star),
        "pass": rel(h.beta_hat, h.beta_hat_star) <= IDENTITY_TOL,
    }
    for name, t in (("k_hat", h.k_hat), ("lam_hat", h.lam_hat), ("beta_hat", h.beta_hat)):
        sym = rel(t, t.T)
        ev = np.linalg.eigvalsh(0.5 * (t + t.T))
        q = {"k_hat": "k", "lam_hat": "lam", "beta_hat": "beta"}[name]
        vals = [float(law.eval(ph, q, h.T0)) for ph in law.phases]
        lo, hi = min(vals), max(vals)
        slack = 1e-6 * max(abs(lo), abs(hi))
        rep["checks"][name] = {
            "symmetry_deviation": sym, "eigenvalues": ev.tolist(), "phase_bounds": [lo, hi],
            "pass": (sym <= IDENTITY_TOL and ev.min() > 0
                     and ev.min() >= lo - slack and ev.max() <= hi + slack)}

    cm = voigt(h.c_hat)
    ev = np.linalg.eigvalsh(0.5 * (cm + cm.T))
    full_sym = max(
        float(np.abs(h.c_hat - np.transpose(h.c_hat, (1, 0, 2, 3))).max()),
        float(np.abs(h.c_hat - np.transpose(h.c_hat, (2, 3, 0, 1))).max()),
    ) / max(float(np.abs(h.c_hat).max()), 1e-300)
    rep["checks"]["c_hat"] = {
        "symmetry_deviation": full_sym,
        "eigenvalues": ev.tolist(),
        "pass": full_sym <= IDENTITY_TOL and ev.min() > 0,
    }
    rep["checks"]["S_hat"] = {"value": h.S_hat, "pass": h.S_hat > 0}
    rep["pass"] = all(c["pass"] for c in rep["checks"].values())
    return rep


# ---------------------------------------------------------------------------
# temperature table
# ---------------------------------------------------------------------------


def hat_weights(temps, T):
    """Piecewise-linear interpolation in temperature, clamped to the grid ends.

    Returns (i, s), each shaped like T: the value at T is (1 - s) times the
    value at temps[i] plus s times the value at temps[i + 1].
    """
    t = np.asarray(temps, float)
    T = np.clip(np.asarray(T, float), t[0], t[-1])
    i = np.clip(np.searchsorted(t, T) - 1, 0, len(t) - 2)
    return i, (T - t[i]) / (t[i + 1] - t[i])


@dataclass
class TemperatureTable:
    """Equidistant representative temperatures with correctors + coefficients."""

    temps: np.ndarray
    first: list
    second: list
    coeffs: list
    Ttilde: float
    bc: str

    def __post_init__(self):
        t = np.asarray(self.temps, float)
        if len(t) < 2 or np.any(np.diff(t) <= 0):
            raise HomogError("table needs >= 2 strictly increasing temperatures")
        sp = np.diff(t)
        if np.max(np.abs(sp - sp[0])) > 1e-9 * sp[0]:
            raise HomogError("table temperatures must be equidistant")

    def coeff_fields(self, T_nodes, names) -> dict:
        """Vectorized interpolation of the named coefficients at per-node temperatures.

        Returns arrays with the tensor axes leading and the node axis last,
        e.g. k_hat -> (2, 2, n).  Out-of-range temperatures are clamped.
        """
        i, s = hat_weights(self.temps, T_nodes)
        tables = self._coeff_tables
        return {name: (1 - s) * tables[name][..., i] + s * tables[name][..., i + 1]
                for name in names}

    @cached_property
    def _coeff_tables(self):
        """Each coefficient over the table temperatures, temperature axis last."""
        return {name: np.stack([getattr(c, name) for c in self.coeffs], axis=-1)
                for name in COEFF_NAMES}

    def coeff_dT(self, index: int) -> HomogenizedCoefficients:
        """cell.centred_slope of the coefficient block at a table node."""
        return HomogenizedCoefficients(
            T0=float(self.temps[index]),
            **cell.centred_slope(self.coeffs, self.temps, index, COEFF_NAMES))


def build_table(
    mesh,
    law,
    Tmin: float,
    Tmax: float,
    count: int,
    Ttilde: float,
    bc: str,
    with_second_order: bool = True,
    progress=None,
) -> TemperatureTable:
    """Off-line stage: correctors and coefficients at equidistant temperatures.

    One pass over the temperatures builds one cell.CellOperators per
    temperature and uses it for both orders.  The second order at temps[i]
    needs the first order at temps[i + 1] (its temperature derivatives), so
    the operators of temps[i] and temps[i + 1] are alive together, and never
    more than those two.

    progress, if given, is called as progress(T0, seconds) with the wall time
    attributable to each representative temperature.
    """
    import time as _time

    if count < 2:
        raise HomogError("table count must be >= 2")
    temps = np.linspace(Tmin, Tmax, count)
    space = fem.FemSpace(mesh)
    elapsed = np.zeros(count)
    table = TemperatureTable(temps=temps, first=[], second=[], coeffs=[],
                             Ttilde=Ttilde, bc=bc)

    def first_order(i):
        t0 = _time.perf_counter()
        ops = cell.CellOperators(space, law, temps[i], bc)
        table.first.append(cell.solve_first_order(ops))
        elapsed[i] += _time.perf_counter() - t0
        table.coeffs.append(compute_coefficients(ops, table.first[i]))
        return ops

    ops = first_order(0)
    for i, T in enumerate(temps):
        ops_next = first_order(i + 1) if i + 1 < count else None
        if with_second_order:
            # table.first and table.coeffs hold temps[: i + 2], all that the
            # centred differences at temps[i] read
            t0 = _time.perf_counter()
            table.second.append(cell.solve_second_order(
                ops, table.first[i], table.coeffs[i], Ttilde,
                first_dT=cell.dT_of_first_order(table.first, T),
                homog_dT=table.coeff_dT(i),
            ))
            elapsed[i] += _time.perf_counter() - t0
        ops = ops_next
    if progress is not None:
        for T, dt in zip(temps, elapsed):
            progress(float(T), float(dt))
    return table


def export_csv(table: TemperatureTable, path) -> None:
    rows = np.array([c.as_row() for c in table.coeffs])
    np.savetxt(path, rows, delimiter=",", header=",".join(CSV_HEADER), comments="")
