"""Exception hierarchy."""


class OomlabError(Exception):
    """Base class for oomlab errors."""


class ValidationError(OomlabError):
    """A model violates one of its defining conditions or shape contracts."""


class SchemaError(OomlabError):
    """A model or experiment file does not match the strict file schema."""


class ResourceLimitError(OomlabError):
    """A request exceeds the resource budget of :func:`oomlab.oom._budget`."""


class PreconditionError(OomlabError):
    """An experiment precondition failed; the run is refused rather than scored."""
