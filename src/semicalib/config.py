"""Numerical thresholds used throughout the library.

The geometry is exact mathematics; every gap between the exact statements and
the floating-point computation is absorbed by the fixed thresholds below.
``PD_TOL`` and ``ZERO_TOL`` are relative: the first is measured against the
largest matrix entry involved, the second against the largest eigenvalue of
the squared endomorphism, so neither depends on the units of (g, omega).
"""

from __future__ import annotations

# All dense algorithms here are O(n^3) on full matrices; desk-scale only.
MAX_DIM = 16

# A pair whose eigenvalue of -A^2 is within this of 1 spans calibrated planes.
CALIBRATED_TOL = 1e-8

# A constructed metric is positive definite when its smallest eigenvalue is above this times its largest entry.
PD_TOL = 1e-10

# A pair of -A^2 whose eigenvalue is at or below this times the largest one spans the kernel.
ZERO_TOL = 1e-8
