"""Record classes without generated code.

`record` gives a class whose annotations name its fields the methods
`dataclasses.dataclass` would give it, but built from closures, so that
defining a class compiles nothing.  It supports only what the package's
records use:

- ``__init__`` with defaults, ``field(default_factory=...)`` for a fresh
  value per instance, and a call to ``__post_init__`` if the class has one;
- ``__eq__`` between instances of the same class, comparing the field tuples;
- ``frozen=True``: ``__hash__`` of the field tuple, and assignment or deletion
  of an attribute raises AttributeError; otherwise ``__hash__`` is None;
- ``slots=True``: the class is rebuilt with ``__slots__`` set to its fields;
- ``ClassName(field=value, ...)`` as ``__repr__`` unless the class defines one.

Only the annotations in the class body are fields; those of base classes are
not.  The methods match the ones dataclasses would generate, hash values
included.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record", "field"]


class _Factory:
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


def field(*, default_factory):
    """A field default that `default_factory()` makes anew for each instance."""
    return _Factory(default_factory)


def record(cls=None, /, *, frozen=False, slots=False):
    """Class decorator: `@record` or `@record(frozen=True, slots=True)`."""

    def wrap(cls):
        return _build(cls, frozen, slots)

    return wrap if cls is None else wrap(cls)


def _build(cls, frozen, slots):
    own = cls.__dict__
    names = tuple(own.get("__annotations__", ()))
    defaults = {name: own[name] for name in names if name in own}
    if slots:
        body = {k: v for k, v in own.items() if k not in names and k not in ("__dict__", "__weakref__")}
        body["__slots__"] = names
        qualname = cls.__qualname__
        cls = type(cls)(cls.__name__, cls.__bases__, body)
        cls.__qualname__ = qualname
    else:
        for name, default in defaults.items():
            if isinstance(default, _Factory):
                delattr(cls, name)

    # attrgetter returns the value itself for one field: __eq__ compares
    # that, and __hash__ hashes the 1-tuple, as dataclasses does.
    values = attrgetter(*names) if names else lambda self: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    cls.__init__ = _init(cls, names, defaults)
    cls.__eq__ = __eq__
    if frozen:
        if len(names) == 1:
            cls.__hash__ = lambda self: hash((values(self),))
        else:
            cls.__hash__ = lambda self: hash(values(self))
        cls.__setattr__ = _refuse_setattr
        cls.__delattr__ = _refuse_delattr
    else:
        cls.__hash__ = None
    if "__repr__" not in own:
        cls.__repr__ = _repr(names)
    return cls


def _init(cls, names, defaults):
    n = len(names)
    post_init = getattr(cls, "__post_init__", None)
    title = f"{cls.__qualname__}.__init__()"
    # object.__setattr__ gets past a frozen class's __setattr__, and it stores
    # into the slots or the instance's compact attribute table; touching
    # self.__dict__ would give each instance a dict of its own
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
                default = defaults[name]
                out.append(default.make() if isinstance(default, _Factory) else default)
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
