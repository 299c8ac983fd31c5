"""Exception hierarchy shared by the whole package."""


class Fuchs2Error(Exception):
    """Base class for all package errors."""


class ParseError(Fuchs2Error):
    """Malformed group spec, element literal, or presentation file."""

    def __init__(self, message, text=None, pos=None):
        if text is not None and pos is not None:
            message = f"{message} (at position {pos} in {text!r})"
        super().__init__(message)
        self.text = text
        self.pos = pos


class ConstructionError(Fuchs2Error):
    """A presented group failed to build (inconsistent or non-2-group)."""


class SizeCapError(Fuchs2Error):
    """An operation exceeded its documented size cap."""


class RingMismatchError(Fuchs2Error):
    """Operands belong to different group rings."""


class ImproperIdealError(Fuchs2Error):
    """An ideal closure reached the whole ring (contains 1)."""


class UnclosedIdealError(Fuchs2Error):
    """A quotient was requested for a basis without verified closure."""


class UndecidedError(Fuchs2Error):
    """A capped search reached its cap without an answer: the isomorphism
    search or the ideal walk its node cap, or the constructive realizer
    its CHIEF_CHAINS composition bases.  A cap is never a refutation, and
    never an internal fault."""


class CertificateError(Fuchs2Error):
    """A certificate is malformed or inconsistent with its group."""


class InternalInvariantError(Fuchs2Error):
    """A property guaranteed by theory failed to verify; indicates a bug."""
