"""Minimal VTK legacy ASCII writer for triangle meshes with nodal fields."""

from __future__ import annotations

import numpy as np


def write_vtk(path, mesh, point_data: dict) -> None:
    """Write the mesh and nodal fields as an unstructured grid.

    point_data maps names to (nn,) scalars or (2, nn) / (nn, 2) vectors;
    vectors are padded with a zero third component.
    """
    nn, nt = mesh.num_nodes, mesh.num_triangles
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("homsim fields\n")
        f.write("ASCII\nDATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {nn} double\n")
        for x, y in mesh.nodes:
            f.write(f"{x:.17g} {y:.17g} 0\n")
        f.write(f"CELLS {nt} {4 * nt}\n")
        for a, b, c in mesh.triangles:
            f.write(f"3 {a} {b} {c}\n")
        f.write(f"CELL_TYPES {nt}\n")
        f.write("5\n" * nt)
        f.write(f"CELL_DATA {nt}\nSCALARS phase int 1\nLOOKUP_TABLE default\n")
        for t in mesh.phase_tag:
            f.write(f"{t}\n")
        f.write(f"POINT_DATA {nn}\n")
        for name, arr in point_data.items():
            arr = np.asarray(arr, float)
            if arr.shape == (nn,):
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                for v in arr:
                    f.write(f"{v:.17g}\n")
            else:
                if arr.shape == (2, nn):
                    arr = arr.T
                if arr.shape != (nn, 2):
                    raise ValueError(f"field {name!r}: unsupported shape {arr.shape}")
                f.write(f"VECTORS {name} double\n")
                for vx, vy in arr:
                    f.write(f"{vx:.17g} {vy:.17g} 0\n")
