"""Frozen result records: the part of `@dataclass(frozen=True)` that lieflow
uses, without importing `dataclasses` (and `inspect`) on every command.

A subclass lists its fields as annotations, in order, with class-level
defaults. It gets dataclass's `__init__` signature (which then calls
`__post_init__`, if defined), its repr, field-tuple `==` and hash within one
class, and AttributeError on assignment or deletion.
"""


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        params = "".join(f", {n}=_cls.{n}" if n in cls.__dict__ else f", {n}" for n in names)
        post = " self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
        namespace = {"_cls": cls}
        exec(f"def __init__(self{params}):\n"
             f" self.__dict__.update({', '.join(f'{n}={n}' for n in names)})\n{post}"
             f"def _key(self):\n return ({''.join(f'self.{n},' for n in names)})\n",
             namespace)
        namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__, cls._key = namespace["__init__"], namespace["_key"]

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: Record, /, **changes) -> Record:
    """A copy of `obj` with `changes` to its fields, built (and checked) anew."""
    return type(obj)(**{n: changes.pop(n, getattr(obj, n)) for n in obj._fields}, **changes)
