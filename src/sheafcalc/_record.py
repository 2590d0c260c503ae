"""Frozen records: the immutable value classes of the package.

A subclass names its fields as annotations, in order, and gives a field
a default as a class attribute.  Instances are built, compared, hashed,
printed, copied and pickled as the standard library's frozen data
classes are, but the class is set up without generating and compiling
source code, so a module of records imports at the cost of its own
text.  Annotations are never evaluated.
"""

from operator import attrgetter

_setattr = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        get = (attrgetter(*fields) if len(fields) > 1 else
               lambda self: tuple(getattr(self, f) for f in fields))
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        cls._astuple = staticmethod(get)
        cls._post_init = "__post_init__" in cls.__dict__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _setattr(self, name, value)
        if self._post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            given[key] = value
        missing = [f for f in fields if f not in given and f not in cls._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [given[f] if f in given else cls._defaults[f] for f in fields]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__
        return self.__class__, self._astuple(self)
