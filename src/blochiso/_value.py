"""The base of the library's values, a plain class: importing ``dataclasses``
(and ``inspect``) was the largest part of the CLI's cold start."""


class Value:
    """An immutable value compared, hashed and shown field by field, as a
    frozen dataclass is. A subclass's fields are its ``__init__`` parameters,
    in order; ``__init__`` fills them into ``self.__dict__``, then calls
    ``self.__post_init__()`` if the class validates. State kept beside the
    fields (a cache) is left out. Any assignment or deletion raises
    :class:`AttributeError`.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls.__match_args__ = code.co_varnames[1 : code.co_argcount]

    def _field_values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __repr__(self) -> str:
        d = self.__dict__
        inner = ", ".join([f"{name}={d[name]!r}" for name in self.__match_args__])
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
