"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter or config value is outside its domain; reads ``"<field>: <message>"``."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class UnknownVertexError(ParameterError):
    """A vertex id does not belong to the graph."""


class ResourceLimitError(RuntimeError):
    """Physical memory, an exact numeric range, or a search cap would be exceeded."""

    def __init__(self, message: str, required: int | float, cap: int | float):
        super().__init__(f"{message} (required {required}, cap {cap})")
        self.required = required
        self.cap = cap


class InvariantViolationError(ValueError):
    """An input violates a structural invariant (e.g. overlapping trash paths)."""
