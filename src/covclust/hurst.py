"""Functional Hurst indexes H(.) valued in the open interval (0, 1)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CONSTANT = "constant"
MONOTONIC = "monotonic"
PERIODIC = "periodic"
TABULATED = "tabulated"


class HurstDomainError(ValueError):
    """Raised when a Hurst function is queried outside its domain or leaves (0, 1)."""


def _check_open_unit(value: float, context: str) -> float:
    if not (0.0 < value < 1.0):
        raise HurstDomainError(f"{context}: value {value} is outside (0, 1)")
    return float(value)


@dataclass(frozen=True)
class HurstFunction:
    """Time-varying self-similarity index.

    Four variants: a constant level, a linear ramp 0.5 + h*t/q, a half-sine
    arch 0.5 + h*sin(pi*t/q) (both defined on t in [0, q]), and a tabulated
    variant carrying one value per sampling instant.
    """

    kind: str
    h: float = 0.5
    q: float = 1.0
    values: tuple[float, ...] = field(default=())

    @classmethod
    def constant(cls, h: float) -> "HurstFunction":
        _check_open_unit(h, "constant Hurst level")
        return cls(kind=CONSTANT, h=float(h))

    @classmethod
    def monotonic(cls, h: float, q: float) -> "HurstFunction":
        if q <= 0:
            raise HurstDomainError(f"horizon q must be positive, got {q}")
        return cls(kind=MONOTONIC, h=float(h), q=float(q))

    @classmethod
    def periodic(cls, h: float, q: float) -> "HurstFunction":
        if q <= 0:
            raise HurstDomainError(f"horizon q must be positive, got {q}")
        return cls(kind=PERIODIC, h=float(h), q=float(q))

    @classmethod
    def tabulated(cls, values) -> "HurstFunction":
        vals = tuple(float(v) for v in values)
        for v in vals:
            _check_open_unit(v, "tabulated Hurst value")
        return cls(kind=TABULATED, values=vals)

    def __call__(self, t: float) -> float:
        """Evaluate H(t) for the functional variants.

        Tabulated functions are indexed by sampling instant, not by time; use
        :meth:`values_on` for those.
        """
        if self.kind == CONSTANT:
            return self.h
        if self.kind == TABULATED:
            raise TypeError("tabulated Hurst functions are evaluated by index, not time")
        if not (0.0 <= t <= self.q):
            raise HurstDomainError(f"time {t} outside domain [0, {self.q}]")
        if self.kind == MONOTONIC:
            value = 0.5 + self.h * t / self.q
        elif self.kind == PERIODIC:
            value = 0.5 + self.h * np.sin(np.pi * t / self.q)
        else:
            raise ValueError(f"unknown Hurst variant {self.kind!r}")
        return _check_open_unit(value, f"H({t})")

    def values_on(self, times) -> np.ndarray:
        """H evaluated along a sampling grid, one value per instant."""
        times = np.asarray(times, dtype=float)
        if self.kind == TABULATED:
            if len(self.values) != times.size:
                raise IndexError(
                    f"tabulated Hurst has {len(self.values)} values "
                    f"but the grid has {times.size} instants"
                )
            return np.array(self.values, dtype=float)
        return np.array([self(t) for t in times], dtype=float)
