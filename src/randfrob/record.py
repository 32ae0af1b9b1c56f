"""`Record`, the base of the package's data classes: `dataclasses` imports `inspect` and
`exec`s each class's methods, a large share of `import randfrob`'s time.  A subclass lists
its fields as annotations, in order, with defaults as class attributes; `frozen=True` makes
it and its subclasses read-only and hashable by their fields."""


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__annotations__)  # the class's own, as strings
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        if frozen:
            cls.__hash__ = Record._hash
            cls.__setattr__ = cls.__delattr__ = Record._read_only

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = {**self._defaults, **kwargs}
        values.update(zip(names, args))
        if (len(args) > len(names) or values.keys() != set(names)
                or not kwargs.keys().isdisjoint(names[:len(args)])):
            raise TypeError(f"{type(self).__name__} takes the fields {names}, got"
                            f" {len(args)} positional argument(s) and {sorted(kwargs)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalize the fields once they are set."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def _hash(self) -> int:
        return hash(self._values())

    def _read_only(self, name, *value):
        raise AttributeError(f"cannot set or delete field {name!r} of a frozen record")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
