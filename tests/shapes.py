"""An arbitrary node-set shape for the tests.

``build_grid`` takes any object with a vectorized ``contains(points)``
that maps the (N, d) array of lattice point centers to an (N,) bool
array.
"""

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Region:
    """Shape whose ``inside`` maps (N, d) point centers to an (N,) bool array."""

    inside: Callable[[np.ndarray], np.ndarray]

    def contains(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.inside(points), dtype=bool)

    @classmethod
    def cells(cls, h: float, cells: Iterable[tuple[int, ...]],
              origin: tuple[float, ...] = (0.0, 0.0)) -> "Region":
        """The lattice points at the given integer coordinates (point = origin
        + h * coordinates)."""
        members = np.array(sorted(cells), dtype=np.int64).reshape(-1, len(origin))

        def inside(points):
            index = np.rint((points - origin) / h).astype(np.int64)
            return np.any(np.all(index[:, None, :] == members[None], axis=2), axis=1)
        return cls(inside)
