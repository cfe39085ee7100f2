"""Frozen slotted dataclasses cheap enough to build one per simulated event."""

from __future__ import annotations

import dataclasses


def frozen_record(cls):
    """``@dataclass(frozen=True, slots=True)`` with an ``__init__`` that sets slots directly.

    The dataclass's own ``__init__`` stores each field with
    ``object.__setattr__(self, name, value)``, which finds the field's slot
    by name on every call; this one calls each slot's member descriptor
    directly, about twice as fast per record. Field order, keyword
    arguments, plain defaults and ``__post_init__`` behave as before, and so
    do ``repr``, equality, hashing and the frozen ``__setattr__``, which the
    dataclass still generates.
    """
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    params, lines = [], []
    closure = {}
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING or not f.init:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field takes a plain "
                            "default or none")
        closure[f"_set_{f.name}"] = vars(cls)[f.name].__set__  # the slot's descriptor
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            closure[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        lines.append(f"        _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        lines.append("        self.__post_init__()")
    source = (f"def _make({', '.join(closure)}):\n"
              f"    def __init__(self, {', '.join(params)}):\n"
              + "\n".join(lines) + "\n"
              "    return __init__\n")
    namespace: dict = {}
    exec(source, namespace)  # the source holds field names and no values
    init = namespace["_make"](**closure)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
