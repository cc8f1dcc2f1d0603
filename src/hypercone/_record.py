"""Immutable value records, defined without generating code at import.

A record class lists its fields in __slots__ (or in _fields, when it also
keeps a slot that is not a field) and the defaults of trailing fields in
_defaults.  Records compare equal when they are of the same class with equal
field tuples, hash as that tuple, print as Name(field=value, ...) and pickle
by their fields; assigning or deleting an attribute raises AttributeError.
A record built many times per call writes its slots in its own __init__,
through the slot descriptors, which is faster than the generic one here:
sl2core.Mat2, projgeom.ProjPoint, projgeom.ArcP1 and _exact.ExactDir do,
and so do the four verdicts of twoshift.classify_pair (Principal,
NonPrincipal, EllipticWitness and Degenerate), one of which every call
builds.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def __init__(self, *args, **kwargs):
        names = self._fields
        if args:
            if len(args) > len(names) or not kwargs.keys().isdisjoint(names[:len(args)]):
                raise TypeError(f"{type(self).__name__} takes the fields {names}")
            kwargs.update(zip(names, args))
        try:
            for name in names:
                _set(self, name, kwargs.pop(name) if name in kwargs else self._defaults[name])
        except KeyError:
            raise TypeError(f"{type(self).__name__} misses a field of {names}") from None
        if kwargs:
            raise TypeError(f"{type(self).__name__} has no field {next(iter(kwargs))!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
