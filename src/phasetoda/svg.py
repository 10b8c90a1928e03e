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


def _face(points, fill) -> str:
    coords = " ".join(f"{px:.3f},{py:.3f}" for px, py in points)
    return f'<polygon points="{coords}" fill="{fill}" stroke="black" stroke-width="0.03"/>'


def pp_to_svg(pp: PlanePartitionBox) -> str:
    n, m = pp.n, pp.m
    faces = []
    heights = [[pp.array[i][j] for j in range(n)] for i in range(n)]

    def h(i, j):
        if 0 <= i < n and 0 <= j < n:
            return heights[i][j]
        return 0

    for i in range(n):
        for j in range(n):
            z = heights[i][j]
            # top face at height z over cell (i, j)
            faces.append(
                _face(
                    [
                        _iso(j, i, z),
                        _iso(j + 1, i, z),
                        _iso(j + 1, i + 1, z),
                        _iso(j, i + 1, z),
                    ],
                    "#d8e6f2",
                )
            )
            # right faces where this stack exceeds the neighbor
            for dz in range(h(i, j + 1), z):
                faces.append(
                    _face(
                        [
                            _iso(j + 1, i, dz),
                            _iso(j + 1, i + 1, dz),
                            _iso(j + 1, i + 1, dz + 1),
                            _iso(j + 1, i, dz + 1),
                        ],
                        "#8aa8c4",
                    )
                )
            for dz in range(h(i + 1, j), z):
                faces.append(
                    _face(
                        [
                            _iso(j, i + 1, dz),
                            _iso(j + 1, i + 1, dz),
                            _iso(j + 1, i + 1, dz + 1),
                            _iso(j, i + 1, dz + 1),
                        ],
                        "#b9cbde",
                    )
                )
    # base floor for reference
    floor = _face(
        [_iso(0, 0, 0), _iso(n, 0, 0), _iso(n, n, 0), _iso(0, n, 0)], "#f4f4f4"
    )
    span = (n + m + 2) * 2
    body = "\n".join([floor] + faces)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{-span} {-m-2} {2*span} {span}" '
        f'width="{_SCALE * n + 160}">\n'
        f'<g transform="scale(1,1)">\n{body}\n</g>\n</svg>\n'
    )
