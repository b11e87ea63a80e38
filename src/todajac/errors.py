"""Exception and warning types shared across the package."""


class TodaError(Exception):
    """Base class for every error raised by this package."""


class NonRealSpectrum(TodaError):
    """Eigenvalue computation produced roots with nonnegligible imaginary part."""


class NonSimpleSpectrum(TodaError):
    """Two eigenvalues are closer than the separation tolerance."""


class SpectrumOverflow(TodaError):
    """The Newton polish of a sign-mixed spectrum left double range."""


class BadIndex(TodaError):
    """Minor index lists must be strictly increasing, equal length and in bounds."""


class DegenerateComponent(TodaError):
    """A cofactor-vector component is identically zero."""


class TooLarge(TodaError):
    """Exhaustive minor enumeration is gated to matrices of size at most 8."""


class NotTridiagonal(TodaError):
    """Dense input has entries outside the three central bands."""


class NotTnn(TodaError):
    """Operation requires a totally nonnegative input."""


class NonPositiveZ(TodaError):
    """Theta evaluation requires a strictly positive tuple."""


class ZeroCofactorValue(TodaError):
    """The (1,1)-cofactor vanishes at an eigenvalue (non-general position)."""


class NonGeneralDivisor(TodaError):
    """A tau value vanishes, so the reconstruction formulas are singular.

    Attributes:
        index: index k in 0..n of the vanishing tau.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"tau[{index}] vanishes (non-general point)")


class SingularLeadingMinor(TodaError):
    """A leading principal minor vanished during unpivoted LU factorization.

    Attributes:
        order: size k >= 1 of the singular leading block.
    """

    def __init__(self, order: int, message: str | None = None):
        self.order = order
        super().__init__(message or f"leading principal minor of order {order} vanishes")


class Blowup(TodaError):
    """The flow hit a non-general point at a finite time.

    Attributes:
        time: solver time at which the failure occurred.
        tau_index: index of the vanishing tau when known.
    """

    def __init__(self, time: float, tau_index: int | None = None, message: str | None = None):
        self.time = time
        self.tau_index = tau_index
        if message is None:
            suffix = f" (tau[{tau_index}] vanishes)" if tau_index is not None else ""
            message = f"blowup at t={time!r}{suffix}"
        super().__init__(message)


class Overflow(TodaError):
    """A subdiagonal entry exceeded the overflow threshold mid-integration.

    Attributes:
        time: integration time at which the threshold was crossed.
    """

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"numerical blowup: |b| exceeded threshold at t={time!r}")


class RangeExceeded(TodaError):
    """An evolved coordinate or a reconstructed entry left double range.

    The state still exists mathematically; it just cannot be represented as
    a float (a subdiagonal entry below the smallest normal double, say).

    Attributes:
        time: flow time at which the value left range.
    """

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"value leaves double range at t={time!r}")


class GridMiss(UserWarning):
    """A tau function approaches zero on the scan grid without a sign change."""
