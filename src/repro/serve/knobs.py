"""One declaration per serving knob.

Each scalar knob of the serving classes is declared once, on its
dataclass field, by :func:`knob`: its default, the values it accepts
(a :class:`Range` or :class:`OneOf`) and, where ``serve`` has a flag
for it, the flag's spelling, metavar and help. :func:`check_knobs`
(each class's ``__post_init__``), ``serve``'s flags and fault specs,
docs/SERVING.md's flag table and the property suite's strategies all
read that declaration. Declarations are plain data: nothing is
rendered or parsed at import.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, Field, dataclass, field, fields

from repro.errors import ParameterError

_KNOB = "repro.serve.knob"

#: Converters for the field annotations knob classes use.
_TYPES = {"int": int, "float": float, "str": str}

#: ``Knob.flag_default`` when the flag defaults to the field's default.
_FIELD_DEFAULT = object()


def show(value) -> str:
    """A default or bound as help and docs print it (``100.0`` as 100)."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class _Accepts:
    def check(self, name: str, value) -> None:
        """Raise :class:`ParameterError` unless ``value`` is accepted."""
        if not self.accepts(value):
            raise ParameterError(f"{name} must be {self}, got {value!r}")


@dataclass(frozen=True)
class Range(_Accepts):
    """Numbers from ``lo`` to ``hi``, each bound closed unless open.

    Each test is a comparison that NaN fails, so no range accepts NaN;
    ``hi_open=True`` with the default ``hi`` means "finite".
    ``optional`` also accepts None.
    """

    lo: float = -math.inf
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = False
    optional: bool = False

    def accepts(self, value) -> bool:
        if value is None:
            return self.optional
        above = value > self.lo if self.lo_open else value >= self.lo
        below = value < self.hi if self.hi_open else value <= self.hi
        return above and below

    def __str__(self) -> str:
        if self.hi == math.inf:
            text = f"{'>' if self.lo_open else '>='} {show(self.lo)}"
            if self.hi_open:
                text = "finite and " + text
        else:
            text = (
                f"in {'(' if self.lo_open else '['}{show(self.lo)}, "
                f"{show(self.hi)}{')' if self.hi_open else ']'}"
            )
        return "None or " + text if self.optional else text


@dataclass(frozen=True)
class OneOf(_Accepts):
    """One of a fixed tuple of names."""

    choices: tuple

    def accepts(self, value) -> bool:
        return value in self.choices

    def __str__(self) -> str:
        return "one of " + ", ".join(self.choices)


@dataclass(frozen=True)
class Knob:
    """A knob's declaration, kept in its field's metadata.

    ``accepts=None`` takes any value; ``checked=False`` leaves the check
    to the run (which resolves, or refuses, a router name). ``help``
    may hold ``{default}``: the field's default, else ``flag_default``.
    A ``flag_default`` of ``None`` leaves the flag unset unless given.
    ``metavar`` also names the field in a colon-separated fault spec.
    """

    accepts: Range | OneOf | None = None
    checked: bool = True
    flag: str | None = None
    help: str | None = None
    metavar: str | None = None
    flag_default: object = _FIELD_DEFAULT


def knob(default=MISSING, accepts=None, **declaration):
    """Declare a knob field: its default, what it accepts, its flag."""
    return field(default=default, metadata={_KNOB: Knob(accepts, **declaration)})


def declared(cls) -> list[tuple[Field, Knob]]:
    """``(field, knob)`` for each knob of ``cls``, in field order."""
    return [
        (f, f.metadata[_KNOB]) for f in fields(cls) if _KNOB in f.metadata
    ]


def check_knobs(obj) -> None:
    """Refuse any knob value of ``obj`` its declaration does not
    accept, naming the class and the field. An int-annotated knob also
    refuses any value but an integer (``2.0`` and ``True`` included)."""
    cls = type(obj)
    for f, k in declared(cls):
        if not k.checked:
            continue
        name, value = f"{cls.__name__}.{f.name}", getattr(obj, f.name)
        if field_type(f) is int and value is not None and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)
        ):
            none = "None or " if getattr(k.accepts, "optional", False) else ""
            raise ParameterError(
                f"{name} must be {none}an integer, got {value!r}"
            )
        if k.accepts is not None:
            k.accepts.check(name, value)


def field_type(f: Field):
    """The converter for a field's annotation (``"int | None"``: int)."""
    return _TYPES[f.type.split(" | ")[0]]


def flag_default(f: Field, k: Knob):
    """The default ``serve`` gives the flag of knob ``k``."""
    if k.flag_default is _FIELD_DEFAULT:
        return f.default
    return k.flag_default


def flag_help(f: Field, k: Knob) -> str:
    """The flag's help, with ``{default}`` filled in."""
    shown = k.flag_default if f.default is MISSING else f.default
    return k.help.format(default=show(shown))


def spec_metavar(cls) -> str:
    """An event class's colon-separated spec: its required fields, then
    each defaulted one in brackets (``I:AT[:REST]``)."""
    spec = ""
    for f, k in declared(cls):
        part = k.metavar if not spec else ":" + k.metavar
        spec += part if f.default is MISSING else f"[{part}]"
    return spec


def parse_spec(cls, text: str, flag: str):
    """Build an event of ``cls`` from its spec (:func:`spec_metavar`);
    an error names the flag, the field and the text it could not read."""
    knobs = declared(cls)
    parts = text.split(":")
    least = sum(f.default is MISSING for f, _ in knobs)
    if not least <= len(parts) <= len(knobs):
        counts = " or ".join(map(str, range(least, len(knobs) + 1)))
        raise ParameterError(
            f"{flag} expects {counts} colon-separated fields, got {text!r}"
        )
    values = {}
    for (f, _), part in zip(knobs, parts):
        try:
            values[f.name] = field_type(f)(part)
        except ValueError:
            raise ParameterError(
                f"{flag} {text!r}: cannot read {cls.__name__}.{f.name} "
                f"from {part!r}"
            ) from None
    return cls(**values)
