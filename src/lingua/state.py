"""Imperative-layer state: environments, valuations, the error register.

A state pairs an environment (types and procedures) with a store (the
valuation and the error register).  `State`, `Env` and `Store` are
mutable records (`frozen=False`), not frozen ones, since a call builds
three and every load or clear of the register two, and a frozen record
costs about twice as much to build; they compare field by field.  They
are persistent by convention: no code assigns a field, and binding a
type or a procedure returns a fresh State and leaves the original
untouched, which is what lets a procedure keep its declaration-time
environment.  The procedure value, `semantics.Procedure`, lives beside
the call protocol that reads it; this module only binds and looks it up.
The valuation is owned by one activation, a program run or one procedure
call: compiled code writes variables in place (`write_variable`), since a
callee runs on a valuation of its own and no code reads the valuation as
it was before a write.  The load and clear of the register build a new
State that shares the valuation.

The entry-point copy rule: a state handed to the evaluator from outside
is copied once where it enters (`owned`, in `Evaluator.run_program`,
`exec_instruction` and `exec_preamble`), so the caller's valuation is
never written, even when a run stops midway.  Expressions never write, so
their entry copies nothing.  `bind_variable` is the persistent write, for
building states by hand.
"""

from __future__ import annotations

from typing import Optional

from .kernel import AbstractError, LangType, Value
from .record import record


class Env(metaclass=record, frozen=False):
    types: dict[str, LangType]
    procs: dict[str, "Procedure"]


class Store(metaclass=record, frozen=False):
    valuation: dict[str, Value]
    register: Optional[AbstractError]  # None stands for 'OK'


class State(metaclass=record, frozen=False):
    env: Env
    store: Store


def empty_state() -> State:
    return State(Env({}, {}), Store({}, None))


def is_error(sta: State) -> bool:
    return sta.store.register is not None


def load_error(sta: State, err: AbstractError) -> State:
    """The error-insertion operator: replaces the register, nothing else."""
    return State(sta.env, Store(sta.store.valuation, err))


def clear_error(sta: State) -> State:
    return State(sta.env, Store(sta.store.valuation, None))


def register_word(sta: State) -> str:
    return "OK" if sta.store.register is None else sta.store.register.word


def bind_variable(sta: State, ide: str, val: Value) -> State:
    return State(sta.env, Store({**sta.store.valuation, ide: val}, sta.store.register))


def write_variable(sta: State, ide: str, val: Value) -> State:
    """Bind `ide` in the valuation `sta` owns, in place."""
    sta.store.valuation[ide] = val
    return sta


def owned(sta: State) -> State:
    """`sta` with a valuation of its own, for code that writes in place."""
    return State(sta.env, Store(dict(sta.store.valuation), sta.store.register))


def bind_type(sta: State, ide: str, typ: LangType) -> State:
    return State(
        Env({**sta.env.types, ide: typ}, sta.env.procs),
        sta.store,
    )


def bind_procedure(sta: State, ide: str, pro: "Procedure") -> State:
    return State(
        Env(sta.env.types, {**sta.env.procs, ide: pro}),
        sta.store,
    )


def lookup_variable(sta: State, ide: str) -> Optional[Value]:
    return sta.store.valuation.get(ide)


def lookup_type(sta: State, ide: str) -> Optional[LangType]:
    return sta.env.types.get(ide)


def lookup_procedure(sta: State, ide: str) -> Optional["Procedure"]:
    return sta.env.procs.get(ide)
