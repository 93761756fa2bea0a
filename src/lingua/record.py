"""Records: slotted classes of the fields they annotate.

A class made by `record`, as in `class C(metaclass=record)`, is what a
frozen slotted dataclass would be, without the cost of processing one at
import.  Its annotations become its `__slots__` and `__match_args__`.  It
gets an `__init__` over them (a value given in the class body is a
default) that calls the class's own `__post_init__`, equality and hashing
by class and fields, the dataclass repr, and pickling and copying through
the constructor.  A write raises `dataclasses.FrozenInstanceError` unless
the class statement says `frozen=False`; a mutable record is not
hashable.  A method the class body or a base class defines is kept, and
names its `__slots__` lists are storage beside the fields.  Each distinct
method source compiles once, and classes share the code.
"""

from types import CodeType, FunctionType

_CODES: dict[str, CodeType] = {}


def method(qualname: str, source: str, env: dict, defaults: tuple = ()) -> FunctionType:
    """The function `source` defines, with globals `env`, named as a method
    of the class `qualname`."""
    code = _CODES.get(source)
    if code is None:
        module = compile(source, "<record>", "exec")
        code = _CODES[source] = next(c for c in module.co_consts if isinstance(c, CodeType))
    fn = FunctionType(code, env, code.co_name, defaults or None)
    fn.__qualname__ = f"{qualname}.{code.co_name}"
    return fn


def refuse_write(self, name: str, *value) -> None:
    """`__setattr__` and `__delattr__` of a frozen record or node."""
    from dataclasses import FrozenInstanceError  # imported only when a write is tried

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _reduce(self) -> tuple:
    return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


def record(name: str, bases: tuple, namespace: dict, frozen: bool = True) -> type:
    """Make the class of a `class C(metaclass=record)` statement a record.
    The class is a plain `type`, since `isinstance` against a class whose
    metaclass is a class of its own takes a slower path."""
    names = tuple(namespace.get("__annotations__", ()))
    defaults = {key: namespace.pop(key) for key in names if key in namespace}
    namespace["__slots__"] = names + tuple(namespace.get("__slots__", ()))
    namespace.setdefault("__match_args__", names)

    def fields(obj: str) -> str:
        return "(" + "".join(f"{obj}.{key}, " for key in names) + ")"

    params = "".join(f", {key}=0" if key in defaults else f", {key}" for key in names)
    body = "".join(f"    _set_{key}(self, {key})\n" if frozen else f"    self.{key} = {key}\n" for key in names)
    if "__post_init__" in namespace:
        body += "    self.__post_init__()\n"
    methods = [
        (f"def __init__(self{params}):\n{body}", tuple(defaults.values())),
        ("def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
         f"        return {fields('self')} == {fields('other')}\n    return NotImplemented\n", ()),
    ]
    made = {"__repr__": _repr, "__reduce__": _reduce}
    if frozen:
        methods.append((f"def __hash__(self):\n    return hash({fields('self')})\n", ()))
        made["__setattr__"] = made["__delattr__"] = refuse_write
    else:
        made["__hash__"] = None
    env: dict = {}
    for source, argdefs in methods:
        fn = method(namespace["__qualname__"], source, env, argdefs)
        made[fn.__name__] = fn
    inherited = {key for base in bases for cls in base.__mro__[:-1] for key in vars(cls)}
    namespace.update((key, fn) for key, fn in made.items() if key not in namespace and key not in inherited)
    cls = type(name, bases, namespace)
    env.update((f"_set_{key}", cls.__dict__[key].__set__) for key in names)
    return cls
