"""Exception types shared across the package, and how their messages show a value."""

import sys
from types import MappingProxyType


def shown(x, show=repr) -> str:
    """show(x), repr by default, for a message.  An int with more digits than
    int -> str converts, sys.get_int_max_str_digits() (4300 by default),
    shows as "<int of more than 4300 digits>" after its sign, and a tuple,
    list or mappingproxy that holds one shows its items so; any other value
    shows as show gives it."""
    if isinstance(x, int):
        try:
            repr(x)
        except ValueError:
            sign = "-" if x < 0 else ""
            return f"{sign}<int of more than {sys.get_int_max_str_digits()} digits>"
    try:
        return show(x)
    except ValueError:  # such an int inside x
        if isinstance(x, MappingProxyType):
            items = ", ".join(f"{shown(k, show)}: {shown(v, show)}" for k, v in x.items())
            return f"mappingproxy({{{items}}})"
        if not isinstance(x, (tuple, list)):
            raise
        items = ", ".join(shown(v, show) for v in x)
        if isinstance(x, list):
            return f"[{items}]"
        return f"({items},)" if len(x) == 1 else f"({items})"


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
