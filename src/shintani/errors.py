"""Exception types shared across the package."""


class ShintaniError(Exception):
    """Base class for all package-specific errors."""


class NonUnimodular(ShintaniError):
    """Matrix argument is not in GL2(Z) where it must be."""


class BadSemigroupElement(ShintaniError):
    """Matrix violates the congruence / determinant constraints of the acting semigroup."""


class SquareDiscriminant(ShintaniError):
    """Operation requires a nonsquare discriminant (no fundamental automorph exists)."""


class DegreeMismatch(ShintaniError):
    """Polynomial or moment data does not match the expected degree bound."""


class InsufficientMoments(ShintaniError):
    """Requested operation needs more moments than the distribution carries."""


class PrecisionMismatch(ShintaniError):
    """Two p-adic quantities live at different (p, M) settings."""


class KernelOverflow(ShintaniError):
    """p^M or the moment degree is too large for the exact int64 kernels."""


class OperandMismatch(ShintaniError):
    """Operands of a sum or difference live in different spaces."""


class NotInFM(ShintaniError):
    """Quadratic form is not in the congruence family F_M of the level."""


class PrimalityUnproven(ShintaniError):
    """Integer beyond the range where the primality test is proven."""


class BadCharacteristic(ShintaniError):
    """Coefficient ring where 6 is not invertible."""


class BadLevel(ShintaniError):
    """Level is not a tame level times a prime coprime to it, a character's
    modulus does not divide the level, or a weight lives at another prime."""


class BadIndex(ShintaniError):
    """Hecke index, q-slot, discriminant, modulus, cusp or side out of range."""


class CriticalSlope(ShintaniError):
    """Slope equals the critical value k+1, where unique lifting fails, or is
    any positive slope: the finite-precision lift needs alpha a unit mod p."""


class NoConvergence(ShintaniError):
    """A walk ran out of steps, an elimination found no certificate, or a
    lifted eigensymbol failed its exact eigen or specialization check."""


class NotEigen(ShintaniError):
    """Symbol is not an eigenvector for the requested operator at working precision."""
