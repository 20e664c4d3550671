"""Config values converted and checked in one pass: each spec, the data
section and the config document give ``settle`` their fields (a frozen spec
its ``vars``) and one table of rows, and it names every failing field, a
nested spec's too, by its path in its section (``normalize.std``)."""

from dataclasses import fields
from numbers import Integral
from sys import float_info


class FieldError(ValueError):
    """Invalid fields, one ``path: requirement, got value`` line each."""

    def __init__(self, lines):
        super().__init__("\n".join(lines))
        self.lines = lines


REQUIRED = object()  # the default of a field that has none


def settle(values, rows):
    """Convert the fields of ``values`` (a dict by field name) in place, one
    (path, (test, convert, refusal), holds, requirement) row each, and raise
    a FieldError with a line per field that is REQUIRED, that fails ``test``
    or ``holds`` (None: no rule), or that ``convert`` refuses with a nested
    spec's FieldError. A field that fails reads None to later rows."""
    lines = []
    for path, (test, convert, refusal), holds, requirement in rows:
        key = path.rpartition(".")[2]
        value, values[key] = values[key], None
        if value is REQUIRED:
            lines.append(f"{path}: required")
        elif not test(value):
            lines.append(f"{path}: {refusal}, got {value!r}")
        else:
            try:
                value = convert(value)
            except FieldError as e:
                lines.extend(e.lines)
                continue
            if holds is None or holds(value):
                values[key] = value
            else:
                lines.append(f"{path}: {requirement}, got {value!r}")
    if lines:
        raise FieldError(lines)


def select(cls, d):
    """A ``cls`` spec of the entries of ``d`` that name its fields."""
    return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def nested(build, prefix, accept=(), refusal="must be an object"):
    """A (test, convert, refusal) converter: a value of an ``accept`` type
    passes as it is; an object builds a spec by ``build``, lines prefixed."""
    def convert(value):
        if isinstance(value, accept):
            return value
        try:
            return build(value)
        except FieldError as e:
            raise FieldError([prefix + line for line in e.lines]) from None
    return (lambda value: isinstance(value, (dict, accept))), convert, refusal


def _integral(v):
    # an integral float counts, a bool does not; the abstract Integral is slow, so last
    return not isinstance(v, bool) and (
        isinstance(v, float) and v.is_integer() or isinstance(v, (int, Integral)))


def _finite(v):
    # an int too large for a float is refused too
    return not isinstance(v, bool) and isinstance(v, (float, int, Integral)) and (
        abs(v) <= float_info.max)


# (test, convert, refusal) converters for ``settle``
INTEGER = (_integral, int, "must be an integer")
NUMBER = (_finite, float, "must be a finite number")
INTEGERS = (lambda vs: isinstance(vs, (list, tuple, range)) and all(map(_integral, vs)),
            lambda vs: tuple(map(int, vs)), "must be a list of integers")
NUMBERS = (lambda vs: isinstance(vs, (list, tuple)) and all(map(_finite, vs)),
           lambda vs: tuple(map(float, vs)), "must be a list of finite numbers")
STRING = ((lambda v: isinstance(v, str)), str, "must be a string")
ANY = ((lambda v: True), (lambda v: v), "")
