"""One base class for the package's immutable records.

A record lists its fields as class annotations, in order, and gives their
defaults as class attributes; ``fresh(factory)`` as a default gives each
instance its own ``factory()``.  ``Record`` supplies:

- ``__init__`` taking the fields by position or keyword, then calling
  ``__post_init__`` if the class defines one;
- frozen attributes: assignment and deletion raise ``AttributeError``, while
  ``object.__setattr__`` still writes, for ``__post_init__`` normalisation
  and for caches kept beside the fields;
- ``__eq__`` and ``__hash__`` by type and field values;
- the repr ``Name(field=value, ...)``;
- ``replace(**changes)``, which builds a new record through ``__init__`` and
  so re-runs its validation;
- ``_fields``, the tuple of field names.

Everything but ``__init__`` is written once, here.  ``__init__`` is built
once per class, from a few lines of source naming its fields, because
records are made in bulk (thousands per run of ``DegValue``): a generic
``*args, **kwargs`` binding costs about twice as much per instance.
"""

from operator import attrgetter

# Stores a field past the frozen __setattr__.  It keeps the instance's
# attributes in CPython's inline values, where writing self.__dict__ would
# build a dict and make every later attribute read of the record slower.
_set_field = object.__setattr__


class fresh:
    """A field default made anew for every instance by ``factory()``."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields = fields = cls._fields + own
        cls._defaults = defaults = {
            **cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}
        }
        cls._key = attrgetter(*fields)  # a tuple of the field values (one field: the value)
        params, body, ns = [], [], {"_set_field": _set_field}
        for f in fields:
            value = f
            if f in defaults:
                ns["_d_" + f] = defaults[f]
                params.append(f"{f}=_d_{f}")
                if type(defaults[f]) is fresh:
                    value = f"_d_{f}.factory() if {f} is _d_{f} else {f}"
            else:
                params.append(f)
            body.append(f"_set_field(self, {f!r}, {value})")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), ns)
        ns["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = ns["__init__"]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with the given fields changed, validated as a new record."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})
