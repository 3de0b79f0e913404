"""Directory archive for the off-line stage.

Layout:
    manifest.json   version, temperature grid, reference temperature, cell
                    boundary-condition flag, sha256 hashes of the cell mesh
                    and the material-law coefficients
    cell_mesh.npz   the unit-cell mesh (mesh.save_mesh)
    T_<index>.npz   corrector sets + coefficient block at one temperature,
                    stored uncompressed (np.savez), a crc32 per member

load() refuses a manifest.json that is not a JSON object, lacks a field or
has another version, an archive whose material-law hash, temperature grid,
cell boundary condition or reference temperature differs from the
configuration its caller passes, and an edited cell mesh (its hash is not
the manifest's); an archive built with another geometry or cell_h is not.

load() checks that every array is present, but reads none: the
coefficients, which the macro stepper and the identity checks read, and the
first- and second-order correctors, which only the error harness reads, are
sequences over the temperatures (PerTemperature).  Slot i is read from
T_<i>.npz on first access and kept, so `online` and `verify` read only the
coefficients, and a reconstruction reads only the slots its macro
temperatures reach.  Every file is read by mesh.read_npz, which refuses a
missing or damaged one (ArtifactError); np.load reads compressed members
too, so slots written with np.savez_compressed still load.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from collections.abc import Sequence

import numpy as np

from . import cell, mesh as meshmod
from .homog import COEFF_NAMES, HomogenizedCoefficients, TemperatureTable

ARCHIVE_VERSION = 2
#: the fields save() writes to manifest.json besides the version
MANIFEST_FIELDS = ("temperatures", "T_ref", "cell_bc", "mesh_sha256", "law_sha256")
#: the end of every refusal
REDO = "re-run `homsim offline`"


class ArchiveError(RuntimeError):
    pass


def mesh_hash(m) -> str:
    return hashlib.sha256(b"".join(getattr(m, k).tobytes() for k in meshmod.MESH_ARRAYS)).hexdigest()


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
    meshmod.save_mesh(cell_mesh, path / "cell_mesh.npz")
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
        first, co = table.first[i], table.coeffs[i]
        np.savez(path / f"T_{i:03d}.npz", T0=np.float64(T), M=first.M, H=first.H, N=first.N,
                 P=first.P, **{"coeff_" + n: np.asarray(getattr(co, n)) for n in COEFF_NAMES},
                 **{"second_" + f: a for f, a in table.second[i].items()})


def load(path, law, expect) -> tuple:
    """Load (cell_mesh, table); the stored cell mesh and law must hash to the
    manifest's values.

    expect maps manifest fields ("temperatures", "cell_bc", "T_ref") to the
    values the configuration asks for; a field that differs is refused.
    table.coeffs, table.first and table.second read each slot on first
    access.
    """
    path = pathlib.Path(path)
    manifest_file = path / "manifest.json"
    try:
        manifest = json.loads(manifest_file.read_text())
    except FileNotFoundError:
        raise ArchiveError(f"{path}: not an archive (no manifest.json)") from None
    except ValueError as e:  # not JSON, or not UTF-8
        raise ArchiveError(f"{manifest_file}: unreadable ({e}); {REDO}") from None
    if not isinstance(manifest, dict):
        raise ArchiveError(f"{manifest_file}: not a JSON object; {REDO}")
    if manifest.get("version") != ARCHIVE_VERSION:
        raise ArchiveError(f"{path}: archive version {manifest.get('version')} "
                           f"!= supported {ARCHIVE_VERSION}; {REDO}")
    missing = [k for k in MANIFEST_FIELDS if k not in manifest]
    if missing:
        raise ArchiveError(f"{manifest_file}: missing field(s) {', '.join(missing)}; {REDO}")
    stored_mesh = meshmod.load_mesh(path / "cell_mesh.npz", "offline")
    if mesh_hash(stored_mesh) != manifest["mesh_sha256"]:
        raise ArchiveError(f"{path}: cell_mesh.npz does not match the manifest's cell-mesh "
                           f"hash; {REDO}")
    if law_hash(law) != manifest["law_sha256"]:
        raise ArchiveError(f"{path}: material-law hash mismatch; {REDO}")
    for field, want in expect.items():
        if manifest[field] != want:
            raise ArchiveError(f"{path}: archived {field} {manifest[field]} differs from the "
                               f"configuration's {want}; {REDO}")

    temps = np.asarray(manifest["temperatures"], float)
    coeffs = PerTemperature(path, temps, {"coeff_" + n: n for n in COEFF_NAMES},
                            lambda T, **a: HomogenizedCoefficients(
                                T0=T, **{n: v[()] for n, v in a.items()}))
    first = PerTemperature(path, temps, {k: k for k in ("M", "H", "N", "P")},
                           lambda T, **a: cell.FirstOrderCellSet(T0=T, **a))
    second = PerTemperature(path, temps, {"second_" + f: f for f in cell.SECOND_ORDER_FAMILIES},
                            lambda T, **a: a)
    required = [*coeffs.members, *first.members, *second.members]
    for i in range(len(temps)):
        meshmod.read_npz(path / f"T_{i:03d}.npz", "offline", required, read=False)
    table = TemperatureTable(temps=temps, first=first, second=second, coeffs=coeffs,
                             Ttilde=manifest["T_ref"], bc=manifest["cell_bc"])
    return stored_mesh, table


class PerTemperature(Sequence):
    """Per-temperature data of an archive, one item per table temperature.

    members maps the arrays of a T_<i>.npz this sequence reads to keywords:
    item i is build(temps[i], **{keyword: array}) over them, read from
    T_<i>.npz on first access and kept; a slice reads only its own slots.  A
    missing array or a damaged file (a bad CRC, say) raises ArtifactError
    when its slot is read.
    """

    def __init__(self, path, temps, members, build):
        self._path = path
        self._temps = [float(T) for T in temps]
        self.members = members
        self._build = build
        self._kept = {}

    def __len__(self):
        return len(self._temps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        if i not in self._kept:
            a = meshmod.read_npz(self._path / f"T_{i:03d}.npz", "offline", self.members, read=True)
            self._kept[i] = self._build(self._temps[i], **{k: a[m] for m, k in self.members.items()})
        return self._kept[i]
