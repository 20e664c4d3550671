"""Field rules for the spec dataclasses: each spec states its rules as one
table, and an invalid spec names every failing field at once, by its path
within the spec's config section (``normalize.std``, ``jitter.contrast``)."""


class FieldError(ValueError):
    """Invalid spec fields, one ``field: requirement, got value`` line each."""

    def __init__(self, lines):
        super().__init__("\n".join(lines))
        self.lines = lines


def check_fields(rules):
    """Raise a FieldError with a line for each (field, value, holds,
    requirement) rule that does not hold."""
    lines = [f"{field}: {req}, got {value!r}" for field, value, holds, req in rules if not holds]
    if lines:
        raise FieldError(lines)
