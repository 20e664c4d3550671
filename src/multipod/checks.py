"""Each config section's layout and rules, stated once: a spec's class-level
``FIELDS`` table has a (path, kind, rule) row per field, the path being its
place in the section's JSON object (``normalize.mean``). The table converts
and checks the fields (``settle``), reads them (``Spec.from_dict``) and
writes them back (``Spec.to_dict``); every bad field is named by its path."""

from numbers import Integral
from sys import float_info
from typing import Callable, NamedTuple


class FieldError(ValueError):
    """Invalid fields, one ``path: requirement, got value`` line each."""

    def __init__(self, lines):
        super().__init__("\n".join(lines))
        self.lines = lines


REQUIRED = object()  # the default of a field that has none


class Kind(NamedTuple):
    """What a field holds: ``test`` admits a value, ``convert(value, values)``
    makes it the field's (reading settled fields) and a refused one reads
    ``path: refusal, got value``."""

    test: Callable
    convert: Callable
    refusal: str
    inline: type = None  # a nested spec whose fields sit in the parent's object


def nested(spec, refusal="must be an object", optional=False, inline=False, inherit=None):
    """The kind of a spec of its own: an object ``spec.from_dict`` reads, or
    a built spec; ``optional`` admits null, and ``inherit(values)`` gives the
    object defaults from the parent's settled fields."""
    return Kind(lambda v: isinstance(v, (dict, spec)) or optional and v is None,
                lambda v, values: spec.from_dict({**inherit(values), **v} if inherit else v)
                if isinstance(v, dict) else v, refusal, spec if inline else None)


def settle(values, rows, unknown=()):
    """Convert and check the fields of ``values`` (a dict by field name) in
    place, row by row; raise a FieldError with a line per field REQUIRED,
    refused by its kind or wrong by its rule, then one per ``unknown`` key. A
    rule takes the value and ``values``, skips None and returns what is
    wrong, if anything, or raises a FieldError naming fields under its path.
    A row with no kind only runs its rule, on a value rows above settled
    (``model.classes``). A field that fails reads None to later rows."""
    lines = []
    for path, kind, check in rows:
        head, _, key = path.rpartition(".")
        if kind is None:
            value = getattr(values[head], key, None) if head else values[key]
        else:
            value, values[key] = values[key], None
            if value is REQUIRED or not kind.test(value):
                lines.append(f"{path}: required" if value is REQUIRED else
                             f"{path}: {kind.refusal}, got {value!r}")
                continue
        try:
            value = kind.convert(value, values) if kind else value
            wrong = check and value is not None and check(value, values)
        except FieldError as e:
            lines.extend(("" if kind and kind.inline else f"{path}.") + line for line in e.lines)
            continue
        if wrong:
            lines.append(f"{path}: {wrong}")
        elif kind:
            values[key] = value
    lines += [f"{key}: unknown key" for key in unknown]
    if lines:
        raise FieldError(lines)


class Spec:
    """A frozen dataclass whose ``FIELDS`` table states each field once."""

    def __post_init__(self):
        settle(vars(self), self.FIELDS)

    @classmethod
    def from_dict(cls, d):
        """The spec of the JSON object ``d``, each row taking the value at its
        path or its default; a key no row takes, or a non-object on a path, fails."""
        objects = {path.split(".")[0] for path, kind, _ in cls.FIELDS if kind and "." in path}
        rest, lines = {}, []
        for key, value in d.items():
            if "." in key:  # a dotted path names only a nested key
                lines.append(f"{key}: unknown key")
            elif key not in objects:
                rest[key] = value
            elif isinstance(value, dict):
                rest.update((f"{key}.{k}", v) for k, v in value.items())
            else:
                lines.append(f"{key}: must be an object, got {value!r}")
        values = {}
        for path, kind, _ in cls.FIELDS:
            if kind and kind.inline:
                values[path] = {k: rest.pop(k) for k, *_ in kind.inline.FIELDS if k in rest}
            elif kind and path in rest:
                values[path.rpartition(".")[2]] = rest.pop(path)
        try:
            spec = cls(**values)
        except FieldError as e:
            lines += e.lines
        if lines or rest:
            raise FieldError(lines + [f"{path}: unknown key" for path in rest])
        return spec

    def to_dict(self):
        """The JSON object of the spec, each field at its row's path, in row order."""
        out = {}
        for path, kind, _ in self.FIELDS:
            if kind:
                head, _, key = path.rpartition(".")
                value = getattr(self, key)  # a spec as its object, a tuple as a list
                value = (value.to_dict() if isinstance(value, Spec) else
                         list(value) if isinstance(value, tuple) else
                         dict(value) if isinstance(value, dict) else value)
                if kind.inline:
                    out.update(value)
                else:
                    (out.setdefault(head, {}) if head else out)[key] = value
        return out


def rule(holds, requirement, high=None):
    """A rule on one value: ``requirement, got value`` where ``holds(value)``
    is false, and ``must be <= high`` above an upper bound, ``high``."""
    return lambda value, values: (f"{requirement}, got {value!r}" if not holds(value) else
                                  f"must be <= {high}, got {value!r}"
                                  if high is not None and value > high else None)


def one_of(options):
    return rule(options.__contains__, f"must be one of {options}")


def _integral(v):
    # an integral float counts, a bool does not; the abstract Integral is slow, so last
    return not isinstance(v, bool) and (
        isinstance(v, float) and v.is_integer() or isinstance(v, (int, Integral)))


def _finite(v):
    # an int too large for a float is refused too
    return not isinstance(v, bool) and isinstance(v, (float, int, Integral)) and (
        abs(v) <= float_info.max)


INTEGER = Kind(_integral, lambda v, _: int(v), "must be an integer")
NUMBER = Kind(_finite, lambda v, _: float(v), "must be a finite number")
INTEGERS = Kind(lambda vs: isinstance(vs, (list, tuple, range)) and all(map(_integral, vs)),
                lambda vs, _: tuple(map(int, vs)), "must be a list of integers")
NUMBERS = Kind(lambda vs: isinstance(vs, (list, tuple)) and all(map(_finite, vs)),
               lambda vs, _: tuple(map(float, vs)), "must be a list of finite numbers")
STRING = Kind(lambda v: isinstance(v, str), lambda v, _: v, "must be a string")
ANY = Kind(lambda v: True, lambda v, _: v, "")
