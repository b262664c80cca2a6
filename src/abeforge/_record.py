"""Record classes without generated code.

`record` gives a class whose annotations name its fields the methods
`dataclasses.dataclass` would give it, but built from closures, so that
defining a class compiles nothing.  It gives only what the package's records
use:

- the class is rebuilt with ``__slots__`` set to its fields, so instances
  have no ``__dict__``;
- ``__init__`` with plain defaults, and a call to ``__post_init__`` if the
  class has one;
- ``__eq__`` between instances of the same class, comparing the field tuples;
- ``__hash__`` of the field values (of the value itself for one field), and
  assignment or deletion of an attribute raises AttributeError;
- ``ClassName(field=value, ...)`` as ``__repr__`` unless the class defines one.

There are no options: every record is a frozen value with slots.

Only the annotations in the class body are fields; those of base classes are
not.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record"]


def record(cls):
    """Class decorator: the class as a frozen record with slots."""
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    defaults = {name: own[name] for name in names if name in own}
    body = {k: v for k, v in own.items() if k not in names and k not in ("__dict__", "__weakref__")}
    body["__slots__"] = names
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    cls.__qualname__ = qualname

    # attrgetter returns the value itself for one field, a tuple for more
    values = attrgetter(*names) if names else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    cls.__init__ = _init(cls, names, defaults)
    cls.__eq__ = __eq__
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__ = _refuse_setattr
    cls.__delattr__ = _refuse_delattr
    if "__repr__" not in own:
        cls.__repr__ = _repr(names)
    return cls


def _init(cls, names, defaults):
    n = len(names)
    post_init = getattr(cls, "__post_init__", None)
    title = f"{cls.__qualname__}.__init__()"
    # object.__setattr__ gets past the class's refusing __setattr__ and
    # stores into the slot
    set_attribute = object.__setattr__

    def bind(args, kwargs):
        """args and kwargs as one value per field, defaults filled in."""
        if len(args) > n:
            raise TypeError(f"{title} takes {n + 1} positional arguments but {len(args) + 1} were given")
        out = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                out.append(kwargs.pop(name))
            elif name in defaults:
                out.append(defaults[name])
            else:
                raise TypeError(f"{title} missing required argument {name!r}")
        if kwargs:
            raise TypeError(f"{title} got unexpected or repeated keyword arguments {sorted(kwargs)}")
        return out

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_attribute(self, name, value)
        if post_init is not None:
            post_init(self)

    return __init__


def _refuse_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _repr(names):
    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({fields})"

    return __repr__
