"""Frozen records: the part of `dataclasses.dataclass(frozen=True)` the package uses.

The package does not import `dataclasses`.  Every CLI command is a fresh
process, and `dataclasses` brought in `inspect`, `ast`, `dis`, `tokenize`
and `copy`, then generated and compiled about seven methods per class from
source text: together about a third of the time it took to import
`fanshear.cli`.  `frozen` generates no code.  Its methods are closures over
a class's field names, so every record class shares one code object per
method and importing the package compiles nothing.  The price is the
signature: `inspect.signature` of a record class reads `(*args, **kwargs)`,
while calls bind their arguments exactly as a generated `__init__` would.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


def _no_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make cls an immutable record of the fields annotated in its body.

    Like a frozen dataclass: __init__ takes the fields in order, by position
    or keyword, with a class attribute of a field's name as its default, and
    ends by calling self.__post_init__() when the class has one (which may
    still set fields with object.__setattr__); the repr is
    `Qualname(field=value!r, ...)`; == compares the field tuples of two
    instances of the same class and is NotImplemented otherwise; the hash is
    the field tuple's unless cls defines its own __hash__; assigning or
    deleting an attribute raises AttributeError.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    arity = len(names)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    post = hasattr(cls, "__post_init__")

    def bind(args, kwargs):
        """The field values of a call that is not exactly one positional per field."""
        where = f"{cls.__qualname__}.__init__()"
        if len(args) > arity:
            raise TypeError(
                f"{where} takes {arity + 1} positional arguments but {len(args) + 1} were given"
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[name] = value
        missing = [n for n in names if n not in values and n not in defaults]
        if missing:
            plural = "s" if len(missing) > 1 else ""
            raise TypeError(f"{where} missing {len(missing)} required argument{plural}: "
                            + ", ".join(map(repr, missing)))
        return [values[n] if n in values else defaults[n] for n in names]

    get = attrgetter(*names)
    fields = get if arity > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != arity:
            args = bind(args, kwargs)
        # one setattr per field, as a generated __init__ did: filling
        # __dict__ directly would give every instance its own dict
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if post:
            self.__post_init__()

    def __repr__(self):
        shown = ", ".join([f"{n}={v!r}" for n, v in zip(names, fields(self))])
        return f"{self.__class__.__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    for method in (__init__, __repr__, __eq__, __hash__):
        name = method.__name__
        if name == "__hash__" and cls.__dict__.get(name) is not None:
            continue  # the class's own hash
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _no_setattr
    cls.__delattr__ = _no_delattr
    return cls
