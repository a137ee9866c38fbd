"""Sample columns for tests, holding what a data file holds.

A `Sample` holds each characteristic as a `Column` of stripped texts, None
for a missing cell, as `scorecraft.data_io.load_sample` reads them.
"""

import numpy as np

from scorecraft.model import Column


def text_column(cells):
    """A Column of the given texts and Nones, its values in order of first occurrence."""
    cells = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
    assert all(cell is None or isinstance(cell, str) for cell in cells), cells
    index = {}
    inverse = [index.setdefault(cell, len(index)) for cell in cells]
    return Column(list(index), np.array(inverse, dtype=np.int32))
