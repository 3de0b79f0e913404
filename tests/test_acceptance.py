"""End-to-end validation of the toolkit's headline guarantees.

Each test prints one PASS/FAIL line with the measured quantity and its
tolerance, then asserts.  The expensive two-scale runs are shared through
module-scoped fixtures.
"""

import numpy as np
import pytest

from homsim import cell, dns, fem, homog, macro, metrics, reconstruct
from homsim.mesh import PhaseGeometry, build_macro_mesh, build_unit_cell_mesh

from conftest import EXAMPLE_LAWS, shipped_law, single_material_law


def _line(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def _h1_seminorm_families(mesh, arr):
    """H1 seminorm of one corrector family (leading axes flattened)."""
    g = fem.element_gradient(mesh, arr.reshape(-1, arr.shape[-1]))
    return float(np.sqrt(np.einsum("ati,ati,t->", g, g, mesh.areas)))


def _h1_norm_families(mesh, arr):
    flat = arr.reshape(-1, arr.shape[-1])
    g = fem.element_gradient(mesh, flat)
    vq = flat[:, mesh.triangles].mean(-1)
    return float(np.sqrt(np.einsum("ati,ati,t->", g, g, mesh.areas)
                         + np.einsum("at,at,t->", vq, vq, mesh.areas)))


@pytest.fixture(scope="module")
def law():
    return shipped_law()


@pytest.fixture(scope="module")
def disk_cell():
    return build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.2)


@pytest.fixture(scope="module")
def coeff_table(disk_cell, law):
    """Coefficient table spanning the full validity range."""
    lo, hi = law.T_range
    return homog.build_table(disk_cell, law, np.linspace(lo, hi, 5), Ttilde=300.0,
                             bc="dirichlet")


# ---------------------------------------------------------------------------
# 1. dual-form identities of the effective coupling tensors
# ---------------------------------------------------------------------------

def test_effective_coefficient_identities(coeff_table):
    tol = 1e-8
    worst = 0.0
    for co in coeff_table.coeffs:
        d_lam = np.linalg.norm(co.lam_hat - co.lam_hat_star) / np.linalg.norm(co.lam_hat)
        d_beta = np.linalg.norm(co.beta_hat - co.beta_hat_star) / np.linalg.norm(co.beta_hat)
        worst = max(worst, d_lam, d_beta)
    ok = worst <= tol
    _line("effective-coefficient identities",
          ok, f"max relative deviation {worst:.3e} (tol {tol:.0e}, "
              f"{len(coeff_table.temps)} temperatures)")
    assert ok


# ---------------------------------------------------------------------------
# 2. ellipticity bounds of the effective tensors
# ---------------------------------------------------------------------------

def test_ellipticity_bounds(coeff_table, law):
    reports = [homog.verify_identities(co, law=law) for co in coeff_table.coeffs]
    ok = all(r["pass"] for r in reports)
    failed = [r["T0"] for r in reports if not r["pass"]]
    _line("ellipticity bounds",
          ok, "conductivity/coupling eigenvalues within phase bounds and "
              f"elasticity positive definite at all {len(reports)} "
              f"temperatures" + (f"; failed at T0={failed}" if failed else ""))
    assert ok


# ---------------------------------------------------------------------------
# 3. laminate oracle + mesh-refinement shrink
# ---------------------------------------------------------------------------

def test_laminate_oracle(law):
    stripe = build_unit_cell_mesh(PhaseGeometry("stripe", radius=0.25, fraction=0.5), 0.1)
    ops = cell.CellOperators(fem.FemSpace(stripe), law, 300.0, bc="periodic")
    first = cell.solve_first_order(ops)
    co = homog.compute_coefficients(ops, first)
    km, ki = law.eval(0, "k", 300.0), law.eval(1, "k", 300.0)
    harmonic = 2.0 / (1.0 / km + 1.0 / ki)
    arithmetic = 0.5 * (km + ki)
    d11 = abs(co.k_hat[0, 0] - harmonic) / harmonic
    d22 = abs(co.k_hat[1, 1] - arithmetic) / arithmetic

    # curved-interface cell: effective conductivity converges at O(h^2),
    # so successive refinement differences shrink ~4x
    vals = []
    for h in (0.1, 0.05, 0.025):
        m = build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), h)
        ops = cell.CellOperators(fem.FemSpace(m), law, 300.0, bc="periodic")
        vals.append(homog.compute_coefficients(ops, cell.solve_first_order(ops)).k_hat[0, 0])
    ratio = abs(vals[0] - vals[1]) / abs(vals[1] - vals[2])

    ok = d11 <= 1e-3 and d22 <= 1e-3 and 2.5 <= ratio <= 6.0
    _line("laminate oracle",
          ok, f"across-layer dev {d11:.2e}, along-layer dev {d22:.2e} "
              f"(tol 1e-3); refinement shrink ratio {ratio:.2f} "
              f"(accept [2.5, 6.0] for ~4x)")
    assert ok


# ---------------------------------------------------------------------------
# 4. degenerate (single-phase) material: correctors vanish, solvers coincide
# ---------------------------------------------------------------------------

def test_degenerate_material_collapse(disk_cell):
    ulaw = single_material_law(EXAMPLE_LAWS[0])
    table = homog.build_table(disk_cell, ulaw, np.linspace(280.0, 400.0, 3), Ttilde=300.0,
                              bc="dirichlet")

    # all 20 corrector families vanish in H1
    norms = {}
    f0, s0 = table.first[0], table.second[0]
    for name in ("M", "H", "N", "P"):
        norms[name] = _h1_norm_families(disk_cell, getattr(f0, name))
    for name, arr in s0.items():
        norms[name] = _h1_norm_families(disk_cell, arr)
    worst_family = max(norms.values())
    ok_fam = len(norms) == 20 and worst_family <= 1e-10

    # identical discretization, different coefficient path
    fine = dns.build_tiled_mesh(disk_cell, 0.25)
    zvec = lambda pts, t: np.zeros((len(pts), 2))
    data = macro.ProblemData(
        f_T=lambda pts, t: np.full(len(pts), 2000.0),
        f_Phi=lambda pts, t: np.full(len(pts), 20.0),
        f_U=lambda pts, t: np.full((len(pts), 2), 500.0),
        bc_T=lambda pts, t: np.full(len(pts), 300.0),
        bc_Phi=lambda pts, t: np.zeros(len(pts)),
        bc_U=zvec, T_init=300.0, U_init=zvec, V_init=zvec)
    grid = macro.TimeGrid(dt=1e-3, n_steps=10)
    ref = dns.run_dns(fine, ulaw, data, grid, snapshot_stride=10)
    space = fem.FemSpace(fine)
    hom = macro.Stepper(space, macro.TableProvider(space, table), data, grid,
                        snapshot_stride=10).run()
    a, b = ref.snapshots[-1], hom.snapshots[-1]
    dev = max(
        np.abs(a.T - b.T).max() / max(1.0, np.abs(b.T).max()),
        np.abs(a.Phi - b.Phi).max() / max(1e-12, np.abs(b.Phi).max()),
        np.abs(a.U - b.U).max() / max(1e-12, np.abs(b.U).max()),
    )
    ok_traj = dev <= 1e-8

    # every reconstruction order reproduces the reference
    recon = reconstruct.Reconstructor(fine, disk_cell, table, 0.25, fine)
    series = metrics.evolutive_errors(ref, hom, recon)
    worst_err = max(series.final(*c.split("_")) for c in metrics.COLUMNS)
    ok_err = worst_err <= 1e-8

    ok = ok_fam and ok_traj and ok_err
    _line("degenerate-material collapse",
          ok, f"{len(norms)} corrector families, max H1 {worst_family:.2e} "
              f"(tol 1e-10); trajectory deviation {dev:.2e} (tol 1e-8); "
              f"max relative error over all orders/norms {worst_err:.2e} "
              f"(tol 1e-8)")
    assert ok


# ---------------------------------------------------------------------------
# 5. convergence rates of the macroscopic schemes
# ---------------------------------------------------------------------------

def _uniform_table_for_mms():
    ulaw = single_material_law(EXAMPLE_LAWS[0])
    cm = build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.2)
    return homog.build_table(cm, ulaw, np.linspace(280.0, 400.0, 3), Ttilde=300.0,
                             bc="dirichlet")


def _heat_mms_error(table, h, dt, n):
    mesh = build_macro_mesh(h)
    co = table.coeff_fields(np.array([300.0]), ["k_hat", "S_hat"])
    k, S = float(co["k_hat"][0, 0, 0]), float(co["S_hat"][0])
    sol = lambda pts, t: 300.0 + t * np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])

    def f_T(pts, t):
        s = np.sin(np.pi * pts[:, 0]) * np.sin(np.pi * pts[:, 1])
        return S * s + 2.0 * np.pi**2 * k * t * s

    zvec = lambda pts, t: np.zeros((len(pts), 2))
    data = macro.ProblemData(
        f_T=f_T, f_Phi=lambda p, t: np.zeros(len(p)), f_U=zvec,
        bc_T=sol, bc_Phi=lambda p, t: np.zeros(len(p)), bc_U=zvec,
        T_init=300.0, U_init=zvec, V_init=zvec)
    space = fem.FemSpace(mesh)
    traj = macro.Stepper(space, macro.TableProvider(space, table), data,
                         macro.TimeGrid(dt=dt, n_steps=n),
                         snapshot_stride=n).run()
    s = traj.snapshots[-1]
    return metrics.l2_norm(space, s.T - sol(mesh.nodes, s.t))


def _disp_mms_error(table, dt, n, h=0.1):
    mesh = build_macro_mesh(h)
    rho = float(table.coeff_fields(np.array([300.0]), ["rho_hat"])["rho_hat"][0])
    # modest amplitude: the displacement feeds back into the heat equation
    # through the thermo-elastic coupling, so large deflections destabilize
    # the manufactured problem
    amp = 1.0
    g = lambda t: np.sin(2.0 * t)
    gp = lambda t: 2.0 * np.cos(2.0 * t)
    gpp = lambda t: -4.0 * np.sin(2.0 * t)
    w = lambda pts: amp * np.stack(
        [pts[:, 0] + 0.5 * pts[:, 1], 0.3 * pts[:, 0] - pts[:, 1]], axis=1)
    sol = lambda pts, t: g(t) * w(pts)
    data = macro.ProblemData(
        f_T=lambda p, t: np.zeros(len(p)),
        f_Phi=lambda p, t: np.zeros(len(p)),
        f_U=lambda pts, t: rho * gpp(t) * w(pts),
        bc_T=lambda p, t: np.full(len(p), 300.0),
        bc_Phi=lambda p, t: np.zeros(len(p)),
        bc_U=sol, T_init=300.0,
        U_init=lambda pts, t=0.0: g(0.0) * w(pts),
        V_init=lambda pts, t=0.0: gp(0.0) * w(pts))
    space = fem.FemSpace(mesh)
    traj = macro.Stepper(space, macro.TableProvider(space, table), data,
                         macro.TimeGrid(dt=dt, n_steps=n),
                         snapshot_stride=n).run()
    s = traj.snapshots[-1]
    return metrics.l2_norm(space, s.U - sol(mesh.nodes, s.t).T)


def test_scheme_convergence_rates():
    table = _uniform_table_for_mms()
    es = [_heat_mms_error(table, h, 5e-4, 40) for h in (0.05, 0.025)]
    spatial = float(np.log2(es[0] / es[1]))
    et = [_disp_mms_error(table, dt, n) for dt, n in ((0.02, 25), (0.01, 50))]
    temporal = float(np.log2(et[0] / et[1]))
    ok = 1.8 <= spatial <= 2.2 and 0.8 <= temporal <= 1.2
    _line("scheme convergence rates",
          ok, f"spatial rate {spatial:.2f} (accept [1.8, 2.2]); temporal "
              f"rate {temporal:.2f} on the displacement path (accept [0.8, 1.2])")
    assert ok


# ---------------------------------------------------------------------------
# 6 + 7. two-scale convergence in epsilon and error ordering
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def epsilon_runs(law):
    """Composite runs at epsilon = 1/4 and 1/8 with a fine-mesh reference."""
    cellm = build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.12)
    table = homog.build_table(cellm, law, np.linspace(275.0, 400.0, 6), Ttilde=300.0,
                              bc="periodic")
    mm = build_macro_mesh(0.02)
    zvec = lambda pts, t: np.zeros((len(pts), 2))
    data = macro.ProblemData(
        f_T=lambda pts, t: np.full(len(pts), 2000.0),
        f_Phi=lambda pts, t: np.full(len(pts), 20.0),
        f_U=lambda pts, t: np.full((len(pts), 2), 100.0),
        bc_T=lambda pts, t: np.full(len(pts), 300.0),
        bc_Phi=lambda pts, t: np.zeros(len(pts)),
        bc_U=zvec, T_init=300.0, U_init=zvec, V_init=zvec)
    grid = macro.TimeGrid(dt=1e-3, n_steps=100)
    space = fem.FemSpace(mm)
    traj = macro.Stepper(space, macro.TableProvider(space, table), data, grid,
                         snapshot_stride=100).run()
    results = {}
    for eps in (0.25, 0.125):
        fine = dns.build_tiled_mesh(cellm, eps)
        ref = dns.run_dns(fine, law, data, grid, snapshot_stride=100)
        recon = reconstruct.Reconstructor(mm, cellm, table, eps, fine)
        series = metrics.evolutive_errors(ref, traj, recon)
        results[eps] = {c: series.final(*c.split("_")) for c in metrics.COLUMNS}
    return results


def test_epsilon_convergence(epsilon_runs):
    r4, r8 = epsilon_runs[0.25], epsilon_runs[0.125]
    ratio = r4["T_order2_H1"] / r8["T_order2_H1"]
    ok = 1.4 <= ratio <= 3.0
    _line("epsilon convergence",
          ok, f"second-order temperature H1 error {r4['T_order2_H1']:.3e} "
              f"(eps=1/4) -> {r8['T_order2_H1']:.3e} (eps=1/8), ratio "
              f"{ratio:.2f} (accept [1.4, 3.0])")
    assert ok


def test_error_ordering(epsilon_runs):
    checks = []
    for eps, r in sorted(epsilon_runs.items(), reverse=True):
        for f in ("T", "U"):
            checks.append((f"{f} H1 eps={eps}",
                           r[f"{f}_order2_H1"] < r[f"{f}_order1_H1"]
                           < r[f"{f}_order0_H1"]))
        for f in ("T", "Phi", "U"):
            checks.append((f"{f} L2 eps={eps}",
                           r[f"{f}_order2_L2"] <= r[f"{f}_order1_L2"]))
    failed = [n for n, c in checks if not c]
    ok = not failed
    _line("error ordering",
          ok, "second-order < first-order < homogenized in H1 (T, U) and "
              "second-order <= first-order in L2 (T, Phi, U) at both eps"
              + (f"; violated: {failed}" if failed else ""))
    assert ok


# ---------------------------------------------------------------------------
# 8. long-horizon stability at full source amplitude
# ---------------------------------------------------------------------------

def test_long_horizon_stability(law):
    cellm = build_unit_cell_mesh(PhaseGeometry("disk", radius=0.25, fraction=0.5), 0.4)
    lo, hi = law.T_range
    table = homog.build_table(cellm, law, np.linspace(lo, hi, 6), Ttilde=300.0,
                              bc="periodic")
    mm = build_macro_mesh(0.05)
    eps = 0.1
    zvec = lambda pts, t: np.zeros((len(pts), 2))
    data = macro.ProblemData(
        f_T=lambda pts, t: np.full(len(pts), 20000.0),
        f_Phi=lambda pts, t: np.full(len(pts), 200.0),
        f_U=lambda pts, t: np.full((len(pts), 2), 5000.0),
        bc_T=lambda pts, t: np.full(len(pts), 300.0),
        bc_Phi=lambda pts, t: np.zeros(len(pts)),
        bc_U=zvec, T_init=300.0, U_init=zvec, V_init=zvec)
    grid = macro.TimeGrid(dt=5e-3, n_steps=200)
    space = fem.FemSpace(mm)
    traj = macro.Stepper(space, macro.TableProvider(space, table), data, grid,
                         snapshot_stride=200).run()
    fine = dns.build_tiled_mesh(cellm, eps)
    ref = dns.run_dns(fine, law, data, grid, snapshot_stride=200)

    s = ref.snapshots[-1]
    fine_space = fem.FemSpace(fine)
    norms = [metrics.norm(fine_space, v, "L2") for v in (s.T, s.Phi, s.U)]
    finite = all(np.isfinite(n) for n in norms)

    recon = reconstruct.Reconstructor(mm, cellm, table, eps, fine)
    series = metrics.evolutive_errors(ref, traj, recon)
    errs = {c: series.final(*c.split("_")) for c in metrics.COLUMNS}
    bounded = all(np.isfinite(v) and v < 1.0 for v in errs.values())

    ok = finite and bounded
    _line("long-horizon stability",
          ok, f"t=1 reached; reference L2 norms T/Phi/U = "
              f"{norms[0]:.3e}/{norms[1]:.3e}/{norms[2]:.3e} (finite); "
              f"max relative error {max(errs.values()):.3f} (bound 1.0)")
    assert ok


# ---------------------------------------------------------------------------
# 9. continuity of the cell correctors in the macroscopic temperature
# ---------------------------------------------------------------------------

def test_corrector_continuity_in_temperature(disk_cell, law):
    space = fem.FemSpace(disk_cell)
    base = cell.solve_first_order(cell.CellOperators(space, law, 300.0, "dirichlet"))

    def diff_norm(other):
        tot = 0.0
        for n in ("M", "H", "N", "P"):
            tot += _h1_norm_families(disk_cell,
                                     getattr(other, n) - getattr(base, n)) ** 2
        return np.sqrt(tot)

    norms = [diff_norm(cell.solve_first_order(
                 cell.CellOperators(space, law, 300.0 + d, "dirichlet"))) for d in (10.0, 5.0, 2.5)]
    ok = norms[0] > norms[1] > norms[2]
    _line("corrector continuity in temperature",
          ok, "first-order corrector-set H1 differences at delta=10/5/2.5 K: "
              f"{norms[0]:.3e} > {norms[1]:.3e} > {norms[2]:.3e} "
              f"(monotone decrease)")
    assert ok
