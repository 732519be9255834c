"""Exception types shared across the package."""


class LinksigError(Exception):
    """Base class for domain errors raised by this package."""


class ZeroLinkingError(LinksigError):
    """Linking number is zero: the invariants computed here are undefined."""


class NotDefinedError(LinksigError):
    """The angle pair lies on (or too near) the Alexander root locus."""


class DegeneratePhiError(LinksigError):
    """phi hit 0 or pi, where the circle fibration of the pillowcase degenerates."""


class OmegaOneError(LinksigError):
    """Some omega coordinate equals 1; the Hermitian form is not defined there."""


class BadSystemError(LinksigError):
    """A Seifert system violates its schema or the transpose symmetry."""


class TransversalityFailureError(LinksigError):
    """An intersection is numerically non-transversal (angles too near a root line)."""


class NullityWarning(UserWarning):
    """The Hermitian form has near-zero eigenvalues: omega is on or near the root locus."""
