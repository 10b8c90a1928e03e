"""Minimal SVG rendering of a boxed plane partition as a rhombus tiling.

Presentation only: each unit cube of the solid Young diagram under the
height function contributes top/left/right faces drawn as the three rhombus
types in an isometric projection.
"""

from __future__ import annotations

from .combinatorics import PlanePartitionBox

_SQ3 = 0.8660254037844386
# pixels of width per column of the box, on top of a fixed 160
_SCALE = 24


def _iso(x: float, y: float, z: float) -> tuple:
    # isometric axes: x to the lower right, y to the lower left, z up
    return ((x - y) * _SQ3, (x + y) / 2 - z)


def _face(corners, fill) -> str:
    """The polygon over the (x, y, z) corners, projected by ``_iso``."""
    coords = " ".join(f"{px:.3f},{py:.3f}" for px, py in (_iso(*c) for c in corners))
    return f'<polygon points="{coords}" fill="{fill}" stroke="black" stroke-width="0.03"/>'


def pp_to_svg(pp: PlanePartitionBox) -> str:
    n, m, a = pp.n, pp.m, pp.array

    def h(i, j):
        return a[i][j] if i < n and j < n else 0

    faces = []
    for i in range(n):
        for j in range(n):
            z = a[i][j]
            # top face at height z over cell (i, j)
            faces.append(_face([(j, i, z), (j + 1, i, z), (j + 1, i + 1, z), (j, i + 1, z)], "#d8e6f2"))
            # right faces, then front faces, where this stack exceeds the neighbor
            for dz in range(h(i, j + 1), z):
                faces.append(_face([(j + 1, i, dz), (j + 1, i + 1, dz), (j + 1, i + 1, dz + 1),
                                    (j + 1, i, dz + 1)], "#8aa8c4"))
            for dz in range(h(i + 1, j), z):
                faces.append(_face([(j, i + 1, dz), (j + 1, i + 1, dz), (j + 1, i + 1, dz + 1),
                                    (j, i + 1, dz + 1)], "#b9cbde"))
    # base floor for reference
    floor = _face([(0, 0, 0), (n, 0, 0), (n, n, 0), (0, n, 0)], "#f4f4f4")
    span = (n + m + 2) * 2
    body = "\n".join([floor] + faces)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{-span} {-m-2} {2*span} {span}" '
        f'width="{_SCALE * n + 160}">\n'
        f'<g transform="scale(1,1)">\n{body}\n</g>\n</svg>\n'
    )
