"""Directory archive for the off-line stage.

Layout:
    manifest.json   version, temperature grid, reference temperature, cell
                    boundary-condition flag, sha256 hashes of the cell mesh
                    and the material-law coefficients
    cell_mesh.txt   the unit-cell mesh
    T_<index>.npz   corrector sets + coefficient block at one temperature,
                    stored uncompressed (np.savez), a crc32 per member

load() refuses an archive whose material-law hash, temperature grid, cell
boundary condition or reference temperature differs from the configuration
its caller passes, and a cell_mesh.txt whose hash is not the manifest's, so
an edited or damaged cell mesh is detected; an archive built with another
geometry or cell_h, stored intact, is not.

load() returns a complete table and checks that every array is present, but
reads none: the coefficients, which the macro stepper and the identity
checks read, and the first- and second-order correctors, which only the
error harness reads, are sequences over the temperatures (PerTemperature).
Slot i is read from T_<i>.npz on first access and kept, so `online` and
`verify` read only the coefficients, and a reconstruction whose macro
temperatures stay inside a few table intervals reads only those slots'
correctors, and no coefficient.  A T_<i>.npz that is not a readable zip is
refused by load(), a damaged array (a bad CRC) when its slot is read; both
raise ArchiveError.  np.load reads compressed members too, so an archive
whose slots were written with np.savez_compressed still loads.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import zipfile
import zlib
from collections.abc import Sequence

import numpy as np

from . import cell, mesh as meshmod
from .homog import COEFF_NAMES, HomogenizedCoefficients, TemperatureTable

ARCHIVE_VERSION = 1

#: what reading a damaged .npz that zipfile.is_zipfile accepts raises: a bad
#: CRC or deflate stream, a broken or short .npy member, a missing array
NPZ_ERRORS = (zipfile.BadZipFile, zlib.error, ValueError, KeyError)


class ArchiveError(RuntimeError):
    pass


def mesh_hash(m) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(np.round(m.nodes, 12)).tobytes())
    h.update(np.ascontiguousarray(m.triangles).tobytes())
    h.update(np.ascontiguousarray(m.phase_tag).tobytes())
    return h.hexdigest()


def law_hash(law) -> str:
    """sha256 of the law, its numbers as floats: laws that compare equal hash equal."""
    payload = json.dumps(
        {
            "coeffs": {str(p): {q: [float(x) for x in v] for q, v in sorted(law.coeffs[p].items())}
                       for p in sorted(law.coeffs)},
            "T_range": [float(x) for x in law.T_range],
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
    }
    (path / "manifest.json").write_text(json.dumps(manifest, indent=2))
    for i, T in enumerate(table.temps):
        first = table.first[i]
        co = table.coeffs[i]
        data = {"T0": np.float64(T),
                "M": first.M, "H": first.H, "N": first.N, "P": first.P}
        for name in COEFF_NAMES:
            data["coeff_" + name] = np.asarray(getattr(co, name))
        for fam, arr in table.second[i].items():
            data["second_" + fam] = arr
        np.savez(path / f"T_{i:03d}.npz", **data)


def load(path, law, expect) -> tuple:
    """Load (cell_mesh, table); the stored cell mesh and law must hash to the
    manifest's values.

    expect maps manifest fields ("temperatures", "cell_bc", "T_ref") to the
    values the configuration asks for; a field that differs is refused.
    table.coeffs, table.first and table.second read each slot on first
    access.
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
    if mesh_hash(stored_mesh) != manifest["mesh_sha256"]:
        raise ArchiveError(f"{path}: cell_mesh.txt does not match the manifest's cell-mesh hash; "
                           f"re-run the off-line stage")
    if law_hash(law) != manifest["law_sha256"]:
        raise ArchiveError(f"{path}: material-law hash mismatch; re-run the off-line stage")
    for field, want in expect.items():
        if manifest[field] != want:
            raise ArchiveError(f"{path}: archived {field} {manifest[field]} differs from the "
                               f"configuration's {want}; re-run the off-line stage")

    temps = np.asarray(manifest["temperatures"], float)
    required = (["T0", "M", "H", "N", "P"] + ["coeff_" + n for n in COEFF_NAMES]
                + ["second_" + f for f in cell.SECOND_ORDER_FAMILIES])
    for i in range(len(temps)):
        npz = path / f"T_{i:03d}.npz"
        if not npz.is_file():
            raise ArchiveError(f"{npz}: missing; re-run the off-line stage")
        if not zipfile.is_zipfile(npz):  # np.load would try it as a pickle
            raise ArchiveError(f"{npz}: unreadable (not a zip file); re-run the off-line stage")
        try:
            with np.load(npz) as z:
                missing = [k for k in required if k not in z.files]
        except NPZ_ERRORS as e:
            raise ArchiveError(f"{npz}: unreadable ({e}); re-run the off-line stage") from None
        if missing:
            raise ArchiveError(f"{npz}: missing array(s) {', '.join(missing)}; "
                               f"re-run the off-line stage")
    coeffs = PerTemperature(path, temps, lambda z, T: HomogenizedCoefficients(
        T0=T, **{name: z["coeff_" + name][()] for name in COEFF_NAMES}))
    first = PerTemperature(path, temps, lambda z, T: cell.FirstOrderCellSet(
        T0=T, **{k: z[k] for k in ("M", "H", "N", "P")}))
    second = PerTemperature(path, temps, lambda z, T: {
        f: z["second_" + f] for f in cell.SECOND_ORDER_FAMILIES})
    table = TemperatureTable(temps=temps, first=first, second=second, coeffs=coeffs,
                             Ttilde=manifest["T_ref"], bc=manifest["cell_bc"])
    return stored_mesh, table


class PerTemperature(Sequence):
    """Per-temperature data of an archive, one item per table temperature.

    Item i is build(npz, T) on the opened T_<i>.npz at temperature temps[i],
    read on first access and kept; a slice reads only its own slots.  A
    missing array or a damaged file (a bad CRC, say) raises ArchiveError when
    its slot is read.
    """

    def __init__(self, path, temps, build):
        self._path = path
        self._temps = [float(T) for T in temps]
        self._build = build
        self._kept = {}

    def __len__(self):
        return len(self._temps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        if i not in self._kept:
            npz = self._path / f"T_{i:03d}.npz"
            try:
                with np.load(npz) as z:
                    self._kept[i] = self._build(z, self._temps[i])
            except KeyError as e:
                raise ArchiveError(f"{npz}: missing array {e}; re-run the off-line stage") from None
            except NPZ_ERRORS as e:
                raise ArchiveError(f"{npz}: unreadable ({e}); re-run the off-line stage") from None
        return self._kept[i]
