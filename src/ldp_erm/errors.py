"""Exception and warning types shared across the package."""


class LdpErmError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(LdpErmError, ValueError):
    """A caller-supplied parameter is out of its documented range."""


class ConfigurationError(LdpErmError):
    """An experiment or protocol configuration is unusable as given."""


class ProtocolError(LdpErmError):
    """A message violates the protocol's structural rules."""


class EstimationError(LdpErmError):
    """A server-side estimate cannot be formed (e.g. an empty cell)."""


class QueryClassError(LdpErmError):
    """A query lies outside the class the release supports."""


class SampleSizeWarning(UserWarning):
    """The player count is below a documented accuracy threshold."""


class ClippingWarning(UserWarning):
    """Values were clipped into their documented range."""
