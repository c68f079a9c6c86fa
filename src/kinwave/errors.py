"""Exception types shared across the package.

Every numerical guard raises a subclass of ``KinwaveError`` so callers (and
the CLI) can map failures onto exit codes without string matching.
"""


class KinwaveError(Exception):
    """Base class for all package-specific errors."""


class NonphysicalState(KinwaveError):
    """A fluid state with nonpositive density, volume, temperature or
    internal energy was produced or requested."""


class GridTooNarrow(KinwaveError):
    """The velocity grid cannot resolve the requested Maxwellian: the
    discrete Gram matrix of the orthogonal basis is too far from identity."""


class OverflowSignal(KinwaveError):
    """A weighted velocity-space integrand left the representable range
    (grid extent too wide for the reference Maxwellian)."""


class SingularPair(KinwaveError):
    """Kernel evaluation requested at coincident velocities."""


class NotMicroscopic(KinwaveError):
    """An operation that requires a microscopic (moment-free) input was
    called with a function carrying macroscopic content."""


class IllConditioned(KinwaveError):
    """A constrained solve did not reach the requested residual."""


class InvalidStrength(KinwaveError):
    """Wave-strength argument outside the admissible range."""


class NoPhysicalShock(KinwaveError):
    """The Rankine-Hugoniot solve produced a nonpositive temperature or the
    Lax condition failed."""


class OutOfPatternRange(KinwaveError):
    """The Riemann data is not (locally) a rarefaction-contact-shock
    pattern: no shock strength closes the contact, the rarefaction
    strength is negative, or a strength exceeds the bound."""


class InversionFailure(KinwaveError):
    """Inverting the characteristic speed along the isentrope failed."""


class BVPNoConvergence(KinwaveError):
    """The nonlinear diffusion boundary-value solve did not converge."""


class ProfileBlowup(KinwaveError):
    """Shock-profile integration left the physical region."""


class NoRealRoot(KinwaveError):
    """The slope quadratic has no real root (fatal diagnostic)."""


class CFLViolation(KinwaveError):
    """Requested time step exceeds the stability limit."""


class PositivityLoss(KinwaveError):
    """Solver state lost positivity beyond the recoverable clip."""


class ConfigError(KinwaveError):
    """Malformed or out-of-range run configuration."""
