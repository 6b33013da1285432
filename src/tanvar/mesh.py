"""Quad-mesh sampling of two-parameter maps and OBJ export.

Sampling is the single place where exact rational data becomes decimal.
Vertex coordinates are printed with nine significant digits, so a written
file parses back to exactly the printed values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .jets import Jet2

#: largest grid side; a 500 x 500 mesh is an OBJ file of about 17 MB
MAX_GRID = 500


@dataclass(frozen=True)
class Mesh:
    vertices: Tuple[Tuple[float, float, float], ...]
    faces: Tuple[Tuple[int, int, int, int], ...]  # 1-based quads
    provenance: str


def sample_map(
    components: Sequence[Jet2],
    coords: Tuple[int, int, int] = (1, 2, 3),
    s_range: Tuple[float, float] = (-1.0, 1.0),
    t_range: Tuple[float, float] = (-1.0, 1.0),
    grid: int = 50,
    provenance: str = "",
) -> Mesh:
    """Sample three chosen components of a two-parameter jet map on a grid.

    ``coords`` are 1-based component indices; the grid is ``grid x grid``
    vertices over the closed parameter box, with 2 <= grid <= MAX_GRID.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    if grid > MAX_GRID:
        raise ValueError(f"grid must be at most {MAX_GRID}")
    for c in coords:
        if not 1 <= c <= len(components):
            raise ValueError(f"coordinate index {c} out of range")
    chosen = [components[c - 1] for c in coords]
    polys = [
        [(i, j, float(coeff)) for i, j, coeff in comp.terms()] for comp in chosen
    ]
    s0, s1 = s_range
    t0, t1 = t_range
    verts: List[Tuple[float, float, float]] = []
    for a in range(grid):
        s = s0 + (s1 - s0) * a / (grid - 1)
        for b in range(grid):
            t = t0 + (t1 - t0) * b / (grid - 1)
            point = []
            for poly in polys:
                acc = 0.0
                for i, j, c in poly:
                    acc += c * (s ** i) * (t ** j)
                point.append(acc)
            verts.append((point[0], point[1], point[2]))
    faces: List[Tuple[int, int, int, int]] = []
    for a in range(grid - 1):
        for b in range(grid - 1):
            v = a * grid + b + 1  # 1-based
            faces.append((v, v + grid, v + grid + 1, v + 1))
    tag = provenance or f"coords {coords[0]},{coords[1]},{coords[2]}"
    return Mesh(tuple(verts), tuple(faces), tag)


def format_obj(mesh: Mesh) -> str:
    lines = [f"# provenance: {mesh.provenance}"]
    for x, y, z in mesh.vertices:
        lines.append(f"v {x:.9g} {y:.9g} {z:.9g}")
    for f in mesh.faces:
        lines.append("f " + " ".join(str(i) for i in f))
    return "\n".join(lines) + "\n"


def write_obj(mesh: Mesh, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(format_obj(mesh))


def parse_obj(text: str):
    """Read back vertices and faces from OBJ text (comments ignored)."""
    vertices: List[Tuple[float, float, float]] = []
    faces: List[Tuple[int, ...]] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("v "):
            _, *nums = line.split()
            vertices.append(tuple(float(x) for x in nums))  # type: ignore[arg-type]
        elif line.startswith("f "):
            _, *nums = line.split()
            faces.append(tuple(int(x) for x in nums))
    return vertices, faces
