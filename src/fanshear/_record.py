"""Frozen records: the part of `dataclasses.dataclass(frozen=True)` the package uses.

The package does not import `dataclasses`.  Every CLI command is a fresh
process, and `dataclasses` brought in `inspect`, `ast`, `dis`, `tokenize`
and `copy`, then exec'd about seven methods per class: together about a
third of the time it took to import `fanshear.cli`.  `frozen` builds the
four methods the records need from one exec per class.
"""

from __future__ import annotations


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
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    sets = "".join(f"    _setattr(self, {n!r}, {n})\n" for n in names)
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    mine, theirs = ("(" + "".join(f"{o}.{n}, " for n in names) + ")" for o in ("self", "other"))
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    source = (
        f"def __init__(self{params}):\n{sets}{post}"
        f"def __repr__(self):\n    return f'{{self.__class__.__qualname__}}({shown})'\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {mine} == {theirs}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({mine})\n"
    )
    namespace = {"_setattr": object.__setattr__, "_defaults": defaults}
    exec(source, namespace)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name == "__hash__" and cls.__dict__.get(name) is not None:
            continue  # the class's own hash
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _no_setattr
    cls.__delattr__ = _no_delattr
    return cls
