"""Plain records: a class whose annotated names are its fields.

A subclass of ``Record`` gets one ``__init__`` taking its fields by position
or by keyword, in annotation order. A class attribute of a field's name is
its default, and a ``dict`` or ``list`` default is copied for each instance.
``__post_init__`` runs once every field is set. Records are equal when they
have the same type and field values, and their repr is ``Name(f=v, ...)``.
A ``Frozen`` record's fields cannot be reassigned, and it hashes by them.
"""

_set = object.__setattr__   # sets a field past Frozen.__setattr__


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(dict.fromkeys((*cls._fields,
                                           *cls.__annotations__)))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields
                         if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
                if type(value) in (dict, list):
                    value = value.copy()
            else:
                raise TypeError(f"{cls.__name__}() missing required "
                                f"argument {name!r}")
            _set(self, name, value)
        for name in kwargs:   # named twice, or not a field
            problem = ("got multiple values for" if name in fields
                       else "got an unexpected keyword")
            raise TypeError(f"{cls.__name__}() {problem} argument {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


def replace(record: Record, **changes) -> Record:
    """A copy of record with changes, built and checked by its __init__."""
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})
