"""A dense design for tests, on plain numpy arrays.

`DenseDesign(x)` offers the operations the package reads from a design
(n, q, scores, rmatvec and gram) as textbook matrix products
over an n x q float matrix; its `merged` merges no row and returns its inputs.  It shares no code with `scorecraft.model.DesignMatrix`, so a
parity check against it compares two independent routes.  `attribute_columns`
reads each characteristic's attributes back from a design's dense view.
"""

import numpy as np


class DenseDesign:
    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)
        if self.x.ndim != 2:
            raise ValueError("a dense design must be 2-d")

    @property
    def n(self):
        return self.x.shape[0]

    @property
    def q(self):
        return self.x.shape[1]

    def scores(self, beta):
        return self.x @ beta

    def rmatvec(self, r):
        return self.x.T @ r

    def gram(self, c):
        return self.x.T @ (self.x * c[:, None])

    def merged(self, y, w):
        return self, y, w


def attribute_columns(design):
    """Per characteristic, the attribute each row holds: the block argmax of design.x."""
    return [start + design.x[:, start:stop].argmax(axis=1) for _, start, stop in design.blocks]
