"""Exception types shared across the package."""


class KPEvansError(Exception):
    """Base class for all numerical/domain errors raised by kpevans."""


class NoPeriodicOrbit(KPEvansError):
    """No pair of adjacent simple turning points brackets a potential well."""


class AmbiguousWell(NoPeriodicOrbit):
    """Several disjoint wells admit an orbit; a bracket hint is required."""


class DegenerateTurningPoint(KPEvansError):
    """A turning point is (numerically) a multiple root of E - V."""


class QuadratureNotConverged(KPEvansError):
    """Node doubling exhausted without meeting the relative tolerance."""


class IntegrationFailure(KPEvansError):
    """An RK4 step product misses its tolerance within its step budget."""


class WronskianDegenerate(KPEvansError):
    """Wronskian normalization of (u_x, u_E) lost; exceptional parameters."""


class StencilLeftRegion(KPEvansError):
    """A finite-difference stencil point has no periodic orbit."""


class ScaleOverflow(KPEvansError):
    """Monodromy log-scale bookkeeping can no longer be reconstructed."""


class NonRealEvans(KPEvansError):
    """Evans value acquired a spurious imaginary part on real data."""


class ConfigError(KPEvansError):
    """Invalid problem configuration (CLI input)."""
