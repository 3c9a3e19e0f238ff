"""Numerical tolerances used throughout the library.

The geometry is exact mathematics; every gap between the exact statements and
the floating-point computation is absorbed by the thresholds below.  The
overridable ones are relative: ``pd`` is measured against the largest matrix
entry involved, ``zero`` against the largest eigenvalue of the squared
endomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

# All dense algorithms here are O(n^3) on full matrices; desk-scale only.
MAX_DIM = 16

# A pair whose eigenvalue of -A^2 is within this of 1 spans calibrated planes.
CALIBRATED_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    pd: float = 1e-10       # positive definiteness at construction
    zero: float = 1e-8      # kernel detection (rank of the two-form)


DEFAULT_TOLERANCES = Tolerances()
