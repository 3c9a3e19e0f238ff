"""Exception types shared across the library."""

from __future__ import annotations


class RankDeficiencyError(ValueError):
    """A vector family fell below the rank tolerance during orthonormalization."""


class NotPositiveDefiniteError(ValueError):
    """A matrix expected to be a metric failed the positive-definiteness check."""


class PairingError(RuntimeError):
    """An eigenvalue cluster could not be organized into multiplicity-2 pairs.

    Carries the eigenvalue boundaries of the offending cluster so the caller
    can inspect where the numerical multiplicity broke.
    """

    def __init__(self, message: str, cluster_bounds: tuple[float, float]):
        self.cluster_bounds = (float(cluster_bounds[0]), float(cluster_bounds[1]))
        super().__init__(
            f"{message} (cluster eigenvalue range "
            f"[{self.cluster_bounds[0]:.6g}, {self.cluster_bounds[1]:.6g}])"
        )


class GapViolation(RuntimeError):
    """Some eigenvalue fell inside the forbidden band (epsilon/4, epsilon/2).

    The point lies outside the neighbourhood on which the two spectral bands
    stay separated; the caller must shrink the region or pick another epsilon.
    ``eigenvalues`` is the point's full eigenvalue list, for diagnostics.
    """

    def __init__(self, epsilon: float, offenders, eigenvalues):
        self.epsilon = float(epsilon)
        self.offenders = tuple(float(x) for x in offenders)
        self.eigenvalues = tuple(float(x) for x in eigenvalues)
        super().__init__(
            f"eigenvalues {list(self.offenders)} lie inside the forbidden band "
            f"({self.epsilon / 4:.6g}, {self.epsilon / 2:.6g}) for epsilon={self.epsilon:.6g}"
        )


class ConstructionError(RuntimeError):
    """The pointwise construction broke down (internal inconsistency or non-PD output)."""


class EpsilonInferenceError(RuntimeError):
    """The automatic epsilon policy found no positive eigenvalue at the base point."""


class ParseError(ValueError):
    """Malformed CALFIELD input; carries a line number when one is known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
