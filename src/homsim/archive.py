"""Directory archive for the off-line stage.

Layout:
    manifest.json   version, temperature grid, reference temperature, cell
                    boundary-condition flag, sha256 hashes of the cell mesh
                    and the material-law coefficients
    cell_mesh.txt   the unit-cell mesh
    T_<index>.npz   corrector sets + coefficient block at one temperature

`online`, `verify` and `errors` refuse an archive whose material-law hash,
temperature grid, cell boundary condition or reference temperature differs
from the current configuration.  The cell-mesh hash is checked only when the
caller passes the cell mesh, which none of them builds, so an archive built
with another geometry or cell_h is not detected.

load() checks that every array is present but decompresses only the first
order and the coefficients; load_second_order() adds the second-order
correctors, which only the error harness reconstructs with.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from . import cell, mesh as meshmod
from .homog import COEFF_NAMES, HomogenizedCoefficients, TemperatureTable

ARCHIVE_VERSION = 1


class ArchiveError(RuntimeError):
    pass


def mesh_hash(m) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(np.round(m.nodes, 12)).tobytes())
    h.update(np.ascontiguousarray(m.triangles).tobytes())
    h.update(np.ascontiguousarray(m.phase_tag).tobytes())
    return h.hexdigest()


def law_hash(law) -> str:
    payload = json.dumps(
        {
            "coeffs": {str(p): {q: list(v) for q, v in sorted(law.coeffs[p].items())}
                       for p in sorted(law.coeffs)},
            "T_range": list(law.T_range),
            "plane": law.plane,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def save(path, cell_mesh, law, table: TemperatureTable) -> None:
    path = pathlib.Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meshmod.save_mesh(cell_mesh, path / "cell_mesh.txt")
    manifest = {
        "version": ARCHIVE_VERSION,
        "temperatures": [float(t) for t in table.temps],
        "T_ref": table.Ttilde,
        "cell_bc": table.bc,
        "mesh_sha256": mesh_hash(cell_mesh),
        "law_sha256": law_hash(law),
        "has_second_order": bool(table.second),
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    for i, T in enumerate(table.temps):
        first = table.first[i]
        co = table.coeffs[i]
        data = {"T0": np.float64(T),
                "M": first.M, "H": first.H, "N": first.N, "P": first.P}
        for name in COEFF_NAMES:
            data["coeff_" + name] = np.asarray(getattr(co, name))
        if table.second:
            for fam, arr in table.second[i].fields.items():
                data["second_" + fam] = arr
        np.savez_compressed(path / f"T_{i:03d}.npz", **data)


def load(path, cell_mesh=None, law=None, expect=None) -> tuple:
    """Load (cell_mesh, table); verify hashes when mesh/law are supplied.

    expect maps manifest fields ("temperatures", "cell_bc", "T_ref") to the
    values the configuration asks for; a field that differs is refused.
    table.second stays empty; see load_second_order.
    """
    path = pathlib.Path(path)
    try:
        manifest = json.loads((path / "manifest.json").read_text())
    except FileNotFoundError:
        raise ArchiveError(f"{path}: not an archive (no manifest.json)") from None
    if manifest.get("version") != ARCHIVE_VERSION:
        raise ArchiveError(f"{path}: archive version {manifest.get('version')} "
                           f"!= supported {ARCHIVE_VERSION}")
    stored_mesh = meshmod.load_mesh(path / "cell_mesh.txt")
    if cell_mesh is not None and mesh_hash(cell_mesh) != manifest["mesh_sha256"]:
        raise ArchiveError(f"{path}: cell-mesh hash mismatch; re-run the off-line stage")
    if law is not None and law_hash(law) != manifest["law_sha256"]:
        raise ArchiveError(f"{path}: material-law hash mismatch; re-run the off-line stage")
    for field, want in (expect or {}).items():
        if manifest[field] != want:
            raise ArchiveError(f"{path}: archived {field} {manifest[field]} differs from the "
                               f"configuration's {want}; re-run the off-line stage")

    temps = np.asarray(manifest["temperatures"], float)
    required = ["T0", "M", "H", "N", "P"] + ["coeff_" + n for n in COEFF_NAMES]
    if manifest["has_second_order"]:
        required += ["second_" + f for f in cell.SECOND_ORDER_FAMILIES]
    first, coeffs = [], []
    for i, T in enumerate(temps):
        npz = path / f"T_{i:03d}.npz"
        if not npz.is_file():
            raise ArchiveError(f"{npz}: missing; re-run the off-line stage")
        with np.load(npz) as z:
            missing = [k for k in required if k not in z.files]
            if missing:
                raise ArchiveError(f"{npz}: missing array(s) {', '.join(missing)}; "
                                   f"re-run the off-line stage")
            first.append(cell.FirstOrderCellSet(
                T0=float(z["T0"]), M=z["M"], H=z["H"], N=z["N"], P=z["P"]))
            kw = {name: z["coeff_" + name] for name in COEFF_NAMES}
            kw = {k: (float(v) if v.ndim == 0 else v) for k, v in kw.items()}
            coeffs.append(HomogenizedCoefficients(T0=float(z["T0"]), **kw))
    table = TemperatureTable(temps=temps, first=first, second=[],
                             coeffs=coeffs, Ttilde=manifest["T_ref"],
                             bc=manifest["cell_bc"])
    return stored_mesh, table


def load_second_order(path, table) -> None:
    """Fill table.second from the archive at path that load() read table from."""
    path = pathlib.Path(path)
    table.second = []
    for i, T in enumerate(table.temps):
        npz = path / f"T_{i:03d}.npz"
        with np.load(npz) as z:
            try:
                fields = {f: z["second_" + f] for f in cell.SECOND_ORDER_FAMILIES}
            except KeyError as e:
                raise ArchiveError(f"{npz}: missing array {e}; re-run the off-line stage") from None
        table.second.append(cell.SecondOrderCellSet(T0=float(T), Ttilde=table.Ttilde,
                                                    fields=fields))
