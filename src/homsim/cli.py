"""Command-line orchestration of the two-stage pipeline.

Subcommands:
    offline  build cell meshes, solve the corrector table, write the archive
    online   macro solve on the archived coefficient table
    dns      fine-mesh reference solve
    verify   coefficient identities, bounds and degeneracy checks
    errors   evolutive error table (CSV) from saved online + dns runs

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
import zipfile

import numpy as np

from . import archive, cell, dns, fem, homog, macro, metrics, reconstruct, vtkio
from .config import ConfigError, SimulationConfig
from .materials import MaterialError
from .mesh import MeshError, build_macro_mesh, build_unit_cell_mesh, load_mesh, save_mesh


def _out_dir(cfg) -> pathlib.Path:
    d = pathlib.Path(cfg.output_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_archive(cfg, out):
    """The off-line archive in out, refused unless built for cfg's law and table."""
    expect = {"temperatures": cfg.temperatures.tolist(), "cell_bc": cfg.cell_bc,
              "T_ref": cfg.T_ref}
    return archive.load(out / "archive", cfg.law, expect)


def _solver_work(traj) -> str:
    m = traj.meta
    return (f"{m['factorizations']} factorizations (max L+U fill {m['max_lu_fill']}), "
            f"{m['cg_iterations']} CG iterations, worst residual {m['worst_residual']:.2e}")


def _write_run(cfg, out, name, mesh, traj) -> int:
    """Save a run as {name}_trajectory.npz and {name}_mesh.txt, print its
    summary and, if asked for, write the final snapshot to {name}_final.vtk."""
    macro.save_trajectory(traj, out / f"{name}_trajectory.npz")
    save_mesh(mesh, out / f"{name}_mesh.txt")
    print(f"{name} solve: {len(traj.snapshots)} snapshots, "
          f"final |T| max {np.abs(traj.snapshots[-1].T).max():.4g}, {_solver_work(traj)}")
    if cfg.write_vtk:
        s = traj.snapshots[-1]
        vtkio.write_vtk(out / f"{name}_final.vtk", mesh,
                        {"T": s.T, "Phi": s.Phi, "U": s.U})
    return 0


def cmd_offline(cfg: SimulationConfig) -> int:
    """build cell meshes, solve the corrector table, write the archive"""
    out = _out_dir(cfg)
    cfg.law.audit_ellipticity()
    cell_mesh = build_unit_cell_mesh(cfg.geometry, cfg.cell_h)
    print(f"cell mesh: {cell_mesh.num_triangles} elements (h={cell_mesh.h:.4f})")
    t_all = time.perf_counter()
    table = homog.build_table(
        cell_mesh, cfg.law, cfg.temperatures, Ttilde=cfg.T_ref, bc=cfg.cell_bc,
        progress=lambda T, s: print(f"  T0={T:8.2f}: corrector solves in {s:.3f} s"),
    )
    print(f"off-line stage total: {time.perf_counter() - t_all:.2f} s")
    archive.save(out / "archive", cell_mesh, cfg.law, table)
    homog.export_csv(table, out / "coefficients.csv")
    print(f"archive written to {out / 'archive'}")
    return 0


def cmd_online(cfg: SimulationConfig) -> int:
    """macro solve on the archived coefficient table"""
    out = _out_dir(cfg)
    cell_mesh, table = _load_archive(cfg, out)
    mesh = build_macro_mesh(cfg.macro_h)
    cell.SOLVES.reset()
    space = fem.FemSpace(mesh)
    stepper = macro.Stepper(space, macro.TableProvider(space, table), cfg.problem_data(),
                            cfg.grid, snapshot_stride=cfg.snapshot_stride)
    traj = stepper.run()
    if cell.SOLVES.count != 0:
        raise RuntimeError("on-line stage solved a cell problem; stage separation broken")
    return _write_run(cfg, out, "macro", mesh, traj)


def cmd_dns(cfg: SimulationConfig) -> int:
    """fine-mesh reference solve"""
    out = _out_dir(cfg)
    cell_mesh = build_unit_cell_mesh(cfg.geometry, cfg.cell_h)
    fine = dns.build_tiled_mesh(cell_mesh, cfg.epsilon)
    print(f"fine mesh: {fine.num_triangles} elements")
    traj = dns.run_dns(fine, cfg.law, cfg.problem_data(), cfg.grid,
                       snapshot_stride=cfg.snapshot_stride)
    return _write_run(cfg, out, "dns", fine, traj)


def cmd_verify(cfg: SimulationConfig) -> int:
    """coefficient identities, bounds and degeneracy checks"""
    out = _out_dir(cfg)
    cell_mesh, table = _load_archive(cfg, out)
    ok = True
    for i, T in enumerate(table.temps):
        rep = homog.verify_identities(table.coeffs[i], law=cfg.law)
        status = "pass" if rep["pass"] else "FAIL"
        worst = max(c.get("deviation", c.get("symmetry_deviation", 0.0))
                    for c in rep["checks"].values())
        print(f"T0={T:8.2f}: {status} (worst deviation {worst:.3e})")
        ok = ok and rep["pass"]
    if not ok:
        raise RuntimeError("coefficient verification failed")
    return 0


#: the outputs `errors` reads, and the stage that writes each
_ERRORS_INPUTS = {"macro_mesh.txt": "online", "macro_trajectory.npz": "online",
                  "dns_mesh.txt": "dns", "dns_trajectory.npz": "dns"}


def _load_run(cfg, out, name, mesh):
    """The trajectory in out / name, refused unless it is readable and ran on cfg's time grid."""
    path, stage = out / name, _ERRORS_INPUTS[name]
    if not zipfile.is_zipfile(path):  # np.load would try it as a pickle
        raise ConfigError(f"{path}: unreadable trajectory (not a zip file); re-run `homsim {stage}`")
    try:
        traj = macro.load_trajectory(path, mesh)
    except archive.NPZ_ERRORS as e:
        raise ConfigError(f"{path}: unreadable trajectory ({e}); re-run `homsim {stage}`") from None
    if traj.grid != cfg.grid:
        raise ConfigError(f"{path} ran on {traj.grid}, not this configuration's "
                          f"{cfg.grid}; re-run `homsim {stage}`")
    return traj


def cmd_errors(cfg: SimulationConfig) -> int:
    """evolutive error table (CSV) from saved online + dns runs"""
    out = _out_dir(cfg)
    for name, stage in _ERRORS_INPUTS.items():
        if not (out / name).is_file():
            raise ConfigError(f"{out / name} not found; `homsim {stage}` writes it")
    macro_mesh = load_mesh(out / "macro_mesh.txt")
    fine_mesh = load_mesh(out / "dns_mesh.txt")
    traj = _load_run(cfg, out, "macro_trajectory.npz", macro_mesh)
    ref = _load_run(cfg, out, "dns_trajectory.npz", fine_mesh)
    cell_mesh, table = _load_archive(cfg, out)
    q = dns.tiles(cfg.epsilon)
    if fine_mesh.num_triangles != q * q * cell_mesh.num_triangles:
        raise ConfigError(
            f"{out / 'dns_mesh.txt'} has {fine_mesh.num_triangles} triangles, not {q}^2 x "
            f"the archived cell mesh's {cell_mesh.num_triangles}: the DNS ran with another "
            f"epsilon or mesh.cell_h than this configuration (epsilon {cfg.epsilon})")
    rec = reconstruct.Reconstructor(macro_mesh, cell_mesh, table, cfg.epsilon, fine_mesh)
    series = metrics.evolutive_errors(ref, traj, rec)
    series.to_csv(out / "errors.csv")
    print(f"error table with {len(series.times)} rows -> {out / 'errors.csv'}")
    for f in metrics.FIELDS:
        vals = [f"{o}:{series.final(f, o, 'H1'):.3e}" for o in metrics.ORDERS]
        print(f"  final H1 {f}: " + " ".join(vals))
    for f in sorted(series.undefined):
        print(f"  {f}: the reference has zero norm, its relative errors are undefined (NaN)")
    if cfg.write_vtk:
        snap = traj.snapshots[-1]
        _, _, h2 = rec.all_orders(snap, traj.grid.dt)
        vtkio.write_vtk(out / "homs_final.vtk", fine_mesh,
                        {"T": h2["T"], "Phi": h2["Phi"], "U": h2["U"]})
    return 0


_COMMANDS = {
    "offline": cmd_offline,
    "online": cmd_online,
    "dns": cmd_dns,
    "verify": cmd_verify,
    "errors": cmd_errors,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="homsim",
        description="two-stage multi-scale solver for thermo-electro-mechanical composites",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("config", help="path to the JSON configuration file")
    args = parser.parse_args(argv)
    try:
        cfg = SimulationConfig.from_file(args.config)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except (ConfigError, archive.ArchiveError, MaterialError, MeshError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except fem.KernelError as e:
        print(f"unsupported SciPy: {e}", file=sys.stderr)
        return 2
    except (fem.SolverError, macro.StepError, cell.CellError, RuntimeError,
            np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
