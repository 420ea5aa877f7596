"""The one immutability rule of the package's value types."""


class Value:
    """A `__slots__` value whose every slot is assigned at most once.

    `Value(*values)` stores its arguments in `__slots__` order; a subclass
    with checks or derived fields writes its own `__init__`.  A slot left
    unset at construction, a lazy cache, may be filled once on first use.
    """

    __slots__ = ()

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
