"""Temperature-dependent, phase-wise material laws and derived tensors.

Each scalar property follows an affine law a + b*T per phase, which makes the
first temperature derivative constant and the second identically zero.  The
engineering pair (E, nu) is converted to the 2D elasticity tensor c_ijkl in
plane strain or plane stress, as the law says.  The package ships no law:
the CLI builds each one from a configuration (config.SimulationConfig.law).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUANTITIES = ("rho", "c", "k", "lam", "beta", "E", "nu")


class MaterialError(ValueError):
    pass


#: smallest admissible coefficient or elasticity eigenvalue (audit_ellipticity)
KAPPA0 = 1e-8
#: temperatures audit_ellipticity samples over the declared range
AUDIT_SWEEP = 100


@dataclass(frozen=True)
class MaterialLaw:
    """Affine-in-temperature property laws for the two phases.

    coeffs[phase][quantity] = (a, b) meaning a + b*T.  Properties are
    isotropic: the conductivity/coupling tensors are value * identity.
    """

    coeffs: dict
    T_range: tuple[float, float] = (250.0, 900.0)
    plane: str = "strain"

    def __post_init__(self):
        if self.plane not in ("strain", "stress"):
            raise MaterialError(f"plane mode must be 'strain' or 'stress', got {self.plane!r}")
        for phase, table in self.coeffs.items():
            missing = set(QUANTITIES) - set(table)
            if missing:
                raise MaterialError(f"phase {phase}: missing quantities {sorted(missing)}")

    @property
    def phases(self):
        return sorted(self.coeffs)

    def eval(self, phase, quantity, T):
        """Value a + b*T of a property; T may be a scalar or an array."""
        try:
            a, b = self.coeffs[phase][quantity]
        except KeyError:
            raise MaterialError(f"unknown phase/quantity ({phase!r}, {quantity!r})") from None
        return a + b * np.asarray(T, dtype=float)

    def per_element(self, phase_tag):
        """The affine law of each element's phase: {quantity: (a, b)}, each (nt,).

        The value at T is a + b*T and the T-derivative is b.  Raises
        MaterialError if a tag of phase_tag has no law.
        """
        tags = np.asarray(phase_tag)
        phases = self.phases
        missing = sorted(set(np.unique(tags).tolist()) - set(phases))
        if missing:
            raise MaterialError(f"mesh phases {missing} have no material law")
        idx = np.searchsorted(phases, tags)
        return {q: tuple(np.array([self.coeffs[ph][q][j] for ph in phases], float)[idx]
                         for j in (0, 1))
                for q in QUANTITIES}

    def in_range(self, T) -> bool:
        T = np.asarray(T)
        return bool(np.all((T >= self.T_range[0]) & (T <= self.T_range[1])))

    def elasticity(self, phase, T):
        """c_ijkl(T) for a phase."""
        return elasticity_tensor(self.eval(phase, "E", T), self.eval(phase, "nu", T), self.plane)

    def audit_ellipticity(self):
        """Check positivity/ellipticity of every property over the T range.

        Returns the minimum margin found; raises if any coefficient or the
        smallest elasticity eigenvalue drops below KAPPA0.
        """
        Ts = np.linspace(*self.T_range, AUDIT_SWEEP)
        worst = np.inf
        for phase in self.phases:
            for q in ("rho", "c", "k", "lam", "beta", "E"):
                vals = self.eval(phase, q, Ts)
                worst = min(worst, float(vals.min()))
                if vals.min() < KAPPA0:
                    raise MaterialError(
                        f"{q} for phase {phase} drops to {vals.min():.3g} on the operating range"
                    )
            nus = self.eval(phase, "nu", Ts)
            if nus.min() <= 0.0 or nus.max() >= 0.5:
                raise MaterialError(f"nu for phase {phase} leaves (0, 0.5)")
            for T in (Ts[0], Ts[-1]):
                c = self.elasticity(phase, T)
                ev = np.linalg.eigvalsh(voigt(c)).min()
                worst = min(worst, float(ev))
                if ev < KAPPA0:
                    raise MaterialError(f"elasticity tensor for phase {phase} loses definiteness")
        return worst


def lame_parameters(E, nu, plane: str, _validate: bool = True):
    """The 2D Lame parameters (lame, mu) of an isotropic material.

    E and nu may be arrays; both results carry their broadcast shape.
    Plane strain: lame = E nu /((1+nu)(1-2nu)), mu = E/(2(1+nu)).
    Plane stress: lame = E nu/(1-nu^2), the same mu.  Raises MaterialError
    unless E > 0 and 0 <= nu < 0.5 (_validate=False skips that, for
    temperature derivatives of E).
    """
    E, nu = np.asarray(E, float), np.asarray(nu, float)
    if _validate:
        if not np.all(E > 0):
            raise MaterialError(f"E must be positive, got {E}")
        if not np.all((0 <= nu) & (nu < 0.5)):
            raise MaterialError(f"nu must lie in [0, 0.5), got {nu}")
    mu = E / (2.0 * (1.0 + nu))
    if plane == "strain":
        lame = E * nu / ((1.0 + nu) * (1.0 - 2.0 * nu))
    elif plane == "stress":
        lame = E * nu / (1.0 - nu**2)
    else:
        raise MaterialError(f"unknown plane mode {plane!r}")
    return lame, mu


def elasticity_tensor(E, nu, plane: str, _validate: bool = True):
    """Isotropic 2D elasticity tensor c_ijkl from engineering constants.

    E and nu may be arrays; the result carries their broadcast axes in front
    of the four tensor axes.  c_ijkl = lame d_ij d_kl + mu (d_ik d_jl + d_il d_jk)
    with (lame, mu) from lame_parameters.
    """
    lame, mu = lame_parameters(E, nu, plane, _validate)
    lame, mu = lame[..., None, None, None, None], mu[..., None, None, None, None]
    d = np.eye(2)
    c = (
        lame * np.einsum("ij,kl->ijkl", d, d)
        + mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))
    )
    return c


def voigt(c):
    """2D Voigt matrix (11, 22, 12) with engineering shear factor for eigencheck."""
    return np.array(
        [
            [c[0, 0, 0, 0], c[0, 0, 1, 1], c[0, 0, 0, 1] * np.sqrt(2)],
            [c[1, 1, 0, 0], c[1, 1, 1, 1], c[1, 1, 0, 1] * np.sqrt(2)],
            [c[0, 1, 0, 0] * np.sqrt(2), c[0, 1, 1, 1] * np.sqrt(2), 2 * c[0, 1, 0, 1]],
        ]
    )
