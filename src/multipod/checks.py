"""Field rules for the spec dataclasses: each spec states its rules as one
table, and an invalid spec names every failing field at once, by its path
within the spec's config section (``normalize.std``, ``jitter.contrast``).
The ``from_dict`` conversions from a config section name each value they
cannot convert the same way."""


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


def converted(d, convert):
    """``{field: f(d[field])}`` for each field of ``convert``, a
    ``{field: (f, requirement)}`` table, that ``d`` holds. Raise a
    FieldError with a line for each value that f refuses."""
    out, lines = {}, []
    for field, (f, req) in convert.items():
        if field in d:
            try:
                out[field] = f(d[field])
            except (TypeError, ValueError):
                lines.append(f"{field}: {req}, got {d[field]!r}")
    if lines:
        raise FieldError(lines)
    return out


def _integral(value):
    # int() truncates a fractional number; refuse it instead
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _object(value):
    if not isinstance(value, dict):
        raise TypeError(value)
    return value


# (converter, requirement) pairs for ``converted``
NUMBER = (float, "must be a number")
INTEGER = (_integral, "must be an integer")
INTEGERS = (lambda values: tuple(map(_integral, values)), "must be a list of integers")
OBJECT = (_object, "must be an object")
