"""Periodic complex fields on a uniform grid."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass
class ComplexField:
    """Samples at time t of a complex function on the grid x_j = j*length/n."""

    length: float
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.length <= 0:
            raise ParameterError("field length must be positive")
        if self.values.ndim != 1 or self.values.size < 2 or self.values.size % 2:
            raise ParameterError("field needs an even number of samples")

    @property
    def n(self) -> int:
        return self.values.size


def solution_norm(field) -> float:
    """N = sqrt((2/L) * integral |U|^2 dx), rectangle rule (exact for periodic data).

    field is a ComplexField or an array of samples over the grid's last axis;
    leading axes (harmonic profiles) add up, which gives the time average."""
    v = field.values if isinstance(field, ComplexField) else field
    return float(np.sqrt(2.0 * np.sum(np.abs(v) ** 2) / v.shape[-1]))
