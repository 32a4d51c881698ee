"""Functional Hurst indexes H(.) valued in the open interval (0, 1).

Three variants, all evaluated by one vectorised method,
:meth:`HurstFunction.values_on`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSTANT = "constant"
MONOTONIC = "monotonic"
PERIODIC = "periodic"


class HurstDomainError(ValueError):
    """Raised when a Hurst function is queried outside its domain or leaves (0, 1)."""


@dataclass(frozen=True)
class HurstFunction:
    """Time-varying self-similarity index.

    Three variants: a constant level, a linear ramp 0.5 + h*t/q and a
    half-sine arch 0.5 + h*sin(pi*t/q), the last two defined on t in [0, q].
    :meth:`values_on` is the one definition of each; calling the function
    evaluates it at a single instant.

    Construction checks the fields, in this order, whichever constructor is
    used: a kind other than the three raises ValueError; a constant level
    outside (0, 1), and a horizon q that is not positive (nan included),
    raise HurstDomainError.
    """

    kind: str
    h: float = 0.5
    q: float = 1.0

    def __post_init__(self):
        if self.kind not in (CONSTANT, MONOTONIC, PERIODIC):
            raise ValueError(f"unknown Hurst variant {self.kind!r}")
        if self.kind == CONSTANT and not 0.0 < self.h < 1.0:
            raise HurstDomainError(f"constant Hurst level: value {self.h} is outside (0, 1)")
        if not self.q > 0:
            raise HurstDomainError(f"horizon q must be positive, got {self.q}")

    @classmethod
    def constant(cls, h: float) -> "HurstFunction":
        return cls(kind=CONSTANT, h=float(h))

    @classmethod
    def monotonic(cls, h: float, q: float) -> "HurstFunction":
        return cls(kind=MONOTONIC, h=float(h), q=float(q))

    @classmethod
    def periodic(cls, h: float, q: float) -> "HurstFunction":
        return cls(kind=PERIODIC, h=float(h), q=float(q))

    def __call__(self, t: float) -> float:
        """H(t) at one instant."""
        return float(self.values_on(t))

    def values_on(self, times) -> np.ndarray:
        """H evaluated along a sampling grid, one value per instant.

        A constant level is defined at every time. Otherwise the first
        offending instant in grid order raises HurstDomainError: a time
        outside [0, q] before a value outside (0, 1).
        """
        times = np.asarray(times, dtype=float)
        if self.kind == CONSTANT:
            return np.full(times.shape, self.h)
        # Values at out-of-domain times are never returned, and a value made
        # non-finite inside the domain fails the range check.
        with np.errstate(all="ignore"):
            if self.kind == MONOTONIC:
                values = 0.5 + self.h * times / self.q
            else:
                values = 0.5 + self.h * np.sin(np.pi * times / self.q)
            outside = ~((0.0 <= times) & (times <= self.q))
            bad = outside | ~((0.0 < values) & (values < 1.0))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            t, value = float(times.flat[i]), float(values.flat[i])
            if outside.flat[i]:
                raise HurstDomainError(f"time {t} outside domain [0, {self.q}]")
            raise HurstDomainError(f"H({t}): value {value} is outside (0, 1)")
        return values
