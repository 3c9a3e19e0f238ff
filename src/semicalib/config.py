"""Numerical tolerances used throughout the library.

The geometry is exact mathematics; every gap between the exact statements and
the floating-point computation is absorbed by the thresholds below.  All of
them are relative: ``pd`` and ``rank`` are measured against the largest
matrix entry involved, ``zero`` against the largest eigenvalue of the
squared endomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

# All dense algorithms here are O(n^3) on full matrices; desk-scale only.
MAX_DIM = 16


@dataclass(frozen=True)
class Tolerances:
    pd: float = 1e-10       # positive definiteness at construction
    rank: float = 1e-10     # linear independence / Gram-Schmidt breakdown
    zero: float = 1e-8      # kernel detection (rank of the two-form)


DEFAULT_TOLERANCES = Tolerances()
