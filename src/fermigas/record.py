"""Frozen records, the base of the package's parameter and result types.

A subclass declares its fields as class annotations, in order, with any
default as a class attribute, and names the fields its repr leaves out in
``hidden``.  Records compare equal and hash field by field, an array field
by its shape, dtype and bytes, print as Name(field=value, ...), and refuse
assignment with FrozenError.  Each subclass gets an __init__ that takes its
fields, by position or by name; its __post_init__ runs once they are set,
and may rewrite one with object.__setattr__.  This is the part of
dataclasses(frozen=True) the package uses, without that module's import of
inspect.
"""


class FrozenError(AttributeError):
    """Assignment to, or deletion of, a field of a frozen record."""


def _key(value):
    """value, or an array, unhashable and compared element by element, as its shape, dtype
    and bytes."""
    if value.__hash__ is None and hasattr(value, "tobytes"):
        return value.shape, value.dtype.str, value.tobytes()
    return value


class Record:
    _fields = ()
    _shown = ()

    def __init_subclass__(cls, hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        # the __init__ is compiled, as a dataclass's is, so Python itself binds
        # the arguments and defaults, and reports a bad call
        defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        params = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults else name
                           for name in cls._fields)
        body = "".join(f"\n    fields[{name!r}] = {name}" for name in cls._fields)
        namespace = {"_defaults": defaults}
        exec(f"def __init__(self, {params}):\n    fields = self.__dict__{body}"
             "\n    self.__post_init__()", namespace)
        cls.__init__ = namespace["__init__"]

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(_key(getattr(self, name)) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")
