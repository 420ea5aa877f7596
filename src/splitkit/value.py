"""The one rule of the package's value types: slots are set once, and equality reads the public ones."""

from operator import attrgetter


class Value:
    """A `__slots__` value whose every slot is assigned at most once.

    `Value(*values)` stores its arguments in `__slots__` order; a subclass
    with checks or derived fields writes its own `__init__`.  A slot left
    unset at construction, a lazy cache, may be filled once on first use.

    Two values are equal when they have the same type and equal public
    slots, those whose name does not start with `_`, and a value hashes
    as those slots do.  So a `_` slot must be a lazy cache or derived
    from the public slots.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._public = attrgetter(*(name for name in cls.__slots__ if not name.startswith("_")))

    def __init__(self, *values):
        names = type(self).__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} values, got {len(values)}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError(f"{type(self).__name__} is immutable")
        object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        public = self._public
        return public(self) == public(other)

    def __hash__(self):
        return hash(self._public(self))
