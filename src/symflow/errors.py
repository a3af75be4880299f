"""Exception types shared across the package."""


class SymflowError(Exception):
    """Base class for all symflow errors."""


class InvalidGamma(SymflowError):
    """The candidate complex structure is not skew-adjoint with square -I."""


class UnbalancedEigenspaces(SymflowError):
    """The +i and -i eigenspaces of gamma have different dimensions."""


class NotLagrangian(SymflowError):
    """A frame does not span a Lagrangian subspace."""


class NotUnitary(SymflowError):
    """A matrix expected to be unitary is not, beyond tolerance."""


class ToleranceAmbiguity(SymflowError):
    """A spectral classification falls inside the undecidable band around the threshold."""


class DimensionMismatch(SymflowError):
    """Subspaces of incompatible dimensions were combined."""


class NotCoisotropic(SymflowError):
    """Symplectic reduction requested with Ann(U) not contained in U."""


class RefinementExhausted(SymflowError):
    """A path could not be refined to meet its step invariant."""


class MethodDisagreement(SymflowError):
    """Two supposedly equivalent computations of the same invariant differ."""


class NonIntegerResult(SymflowError):
    """A claimed-integer quantity has residue above tolerance."""


class IdentityViolation(SymflowError):
    """An asserted identity between computed invariants failed."""


class BracketingFailure(SymflowError):
    """Root bracketing could not resolve a sign structure in a subinterval."""


class IncompatibleBoundary(SymflowError):
    """A boundary Lagrangian does not decompose along the operator's mode blocks."""


class AnticommutationFailure(SymflowError):
    """gamma*A + A*gamma != 0 beyond tolerance."""


class AsymmetricSpectrum(SymflowError):
    """The tangential operator's spectrum is not symmetric about zero."""


class ResonanceViolation(SymflowError):
    """The non-resonance condition L ∩ F⁻ = 0 fails at the requested level."""


class GluingViolation(SymflowError):
    """The gluing identity fails beyond the reported truncation bound."""


class WindowEscape(SymflowError):
    """An eigenvalue relevant to the spectral flow left the tracking window."""


class SchemaError(SymflowError):
    """A scenario/report JSON document violates the input schema."""
