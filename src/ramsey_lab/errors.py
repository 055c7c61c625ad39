"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter or config value is outside its domain; reads ``"<field>: <message>"``."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class UnknownVertexError(ParameterError):
    """A vertex id does not belong to the graph."""


class ResourceLimitError(RuntimeError):
    """Physical memory, a 64-bit key space or a search cap would be exceeded, or a
    counting chain computed an entry of 2**53 or more, beyond float64's exact range
    (a float32 entry of 2**24 or more is not refused: the chain falls back to
    float64)."""

    def __init__(self, message: str, required: int | float, cap: int | float):
        super().__init__(f"{message} (required {required}, cap {cap})")
        self.required = required
        self.cap = cap


class InvariantViolationError(ValueError):
    """An input violates a structural invariant (e.g. overlapping trash paths)."""
