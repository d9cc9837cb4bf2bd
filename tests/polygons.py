"""Meshes shared by the tests: random one-cell skylines and a conforming
tiling of the unit square by U-shaped cells (non-star polygons), and a
quad mesh with a hole and an overlap that still fills the square's area."""

import numpy as np
from hypothesis import strategies as st

from vemhr.generators import generate_mesh
from vemhr.mesh import build_topology


@st.composite
def skyline_polygons(draw, max_columns=6):
    """A base segment under k >= 2 flat-topped columns of random widths and
    heights, CCW, shifted by a random offset.  It is simple by construction;
    neighbouring heights differ by at least 0.1, and most skylines are not
    star-shaped about their centroid."""
    k = draw(st.integers(2, max_columns))
    widths = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    heights = 0.1 * np.array(draw(st.lists(st.integers(1, 30), min_size=k,
                                           max_size=k, unique=True)))
    offset = draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)))
    x = np.concatenate([[0.0], np.cumsum(widths)])
    tops = [(x[i + j], heights[i]) for i in reversed(range(k)) for j in (1, 0)]
    return np.array([(0.0, 0.0), (x[-1], 0.0)] + tops) + offset


def skyline_mesh(coords):
    return build_topology(coords, [list(range(len(coords)))])


# A 3 x 3 block: a U-shaped 10-gon, whose centroid lies in its notch, and the
# quad that fills the notch.  The U's bottom side has vertices at its thirds,
# where the block below ends its U and quad tops, so the tiling conforms.
U_CELL = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1),
          (1, 3), (0, 3)]
NOTCH_CELL = [(1, 1), (2, 1), (2, 3), (1, 3)]


def u_tiling(n):
    """The n x n blocks of the unit square, each split into U_CELL and
    NOTCH_CELL: 2 n^2 cells, half of them not star-shaped."""
    ids = {}  # lattice point -> vertex id, in order of first use
    cells = [[ids.setdefault((3 * i + a, 3 * j + b), len(ids))
              for a, b in loop]
             for i in range(n) for j in range(n)
             for loop in (U_CELL, NOTCH_CELL)]
    return build_topology(np.array(list(ids)) / (3.0 * n), cells)


def holed_quad_mesh():
    """The 4 x 4 quad mesh of the unit square without cell 5 and with a
    copy of cell 0 on new vertices at the same coordinates: every vertex
    lies in the square and the areas add up to 1, but six boundary edges
    (the hole's four and two of the copy's) are inside the square."""
    mesh = generate_mesh("quad_structured", 4)
    loops = np.split(mesh.cell_vertex_ids, mesh.cell_offsets[1:-1])
    copy = mesh.n_vertices + np.arange(len(loops[0]))
    return build_topology(np.vstack([mesh.vertices, mesh.vertices[loops[0]]]),
                          loops[:5] + loops[6:] + [copy])
