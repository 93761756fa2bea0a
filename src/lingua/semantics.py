"""The evaluator.

Expressions evaluate against a state and yield composites, transfers or
types; errors are values, never exceptions.  Instructions transform states
and write errors to the register, and every instruction except if-error
passes error-carrying states through untouched.  Operands evaluate left to
right and the first error wins, except that the Boolean connectives are
lazy: a deciding left operand suppresses the right one entirely.

Each clause is compiled once, top-down from the node an entry point is
given, into a Python closure, its denotation: a function from states to
states, composites or types, or, for a transfer, from composites to
composites.  Each operator is one function over operand composites,
shared by data and transfer expressions; `_unary`, `_binary` and
`_ternary` turn it into code over operand closures, and a data or
transfer expression compiles by the rule `_EXPRESSION_RULES` keeps for its
node class.  Literals are built, and size-checked, when they compile, once
per distinct literal in an entry point's compile; sequences compile to
flat blocks.
An expression's code runs on a state whose register is clear: the
register is tested once, where evaluation enters the expression, since
the state cannot change inside it.

Nontermination is bounded by a fuel budget, spent on loop iterations and
procedure calls; running out raises OutOfFuel, which is an outcome of the
run, not a language error, and never reaches an error register.

The procedure value, `Procedure`, is defined here beside the call protocol
that reads it; `state` only binds it.  Both call sites compile to Python
closures: a C-level callable such as a `partial` would spend C stack on
every Lingua call, so the C stack, not the recursion limit, would bound depth.

Five rules keep a step's Python calls to those that decide something:

- The register is tested inline (`sta.store.register is not None`), and a
  variable is read straight from the valuation, whose bound `Value.com` is
  the composite a read returns.
- The verdict of `TT`, the transfer `true`, is `true` for every composite,
  so a write under it never applies it: its yoke error, shape and
  satisfaction steps are known to pass.
- Identical bodies are coherent, so a write calls `coherent` only when the
  new body is not the held one.
- A call reads its formal lengths, formal type codes, body steps, result
  and return type codes from one entry compiled with the declaration and
  kept in its `Procedure` value (`_Call`), and runs the steps in a loop
  of its own; the entry holds code only, and the formal types are still
  evaluated in the callee's environment on every call.  A call site holds
  its actuals as one tuple, the ref list before the val, and the lists'
  lengths, both built when it compiles.
- A parameter whose actual holds the formal's type object, not merely an
  equal one, is bound to that value as it is: a `Value` is certified
  against its own type.  A `ref` actual gets the formal's type back with
  the result, so from its second call on it passes unchecked too.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple, Optional, TypeVar, Union

from .kernel import (
    A_YOKE_EXPECTED,
    ARRAY_EXPECTED,
    ATTRIBUTE_ALREADY_PRESENT,
    ATTRIBUTE_NOT_PRESENT,
    BOOLEAN,
    BOOLEAN_EXPECTED,
    DIVISION_BY_ZERO,
    EMPTY_LIST,
    FALSE_COMPOSITE,
    IDENTIFIER_NOT_DECLARED,
    IDENTIFIER_NOT_FREE,
    INDEX_OUT_OF_RANGE,
    LIST_EXPECTED,
    NO_COHERENCE,
    NOT_A_RECORD_TYPE,
    NUMBER,
    NUMBER_EXPECTED,
    OMEGA,
    OVERFLOW,
    PARAMETER_LIST_MISMATCH,
    PARAMETER_TYPE_MISMATCH,
    PROCEDURE_NOT_DECLARED,
    RECORD_EXPECTED,
    RETURN_TYPE_MISMATCH,
    TT,
    TYPE_NOT_DEFINED,
    VARIABLE_NOT_INITIALIZED,
    WORD,
    WORD_EXPECTED,
    YOKE_NOT_SATISFIED,
    AbstractError,
    ArrayBody,
    Composite,
    Data,
    LangType,
    Limits,
    ListBody,
    Number,
    RecordBody,
    RecordData,
    Transfer,
    Value,
    WordData,
    _unchecked_array,
    _unchecked_composite,
    _unchecked_list,
    _unchecked_value,
    apply_transfer,
    boo_composite,
    clan_ty_member,
    coherent,
    oversized,
)
from . import nodes as n
from .printer import print_concrete
from .state import (
    Env,
    State,
    Store,
    bind_procedure,
    bind_type,
    clear_error,
    empty_state,
    load_error,
    lookup_type,
    owned,
)

# Every variable write goes through this module-global name, which
# perfbench/spans.py traces as `state.bind`.
from .state import write_variable as bind_variable

# `small-number` holds for a number whose magnitude is below this
SMALL_NUMBER_BOUND = Number.make(1, 6)


class OutOfFuel(Exception):
    """The step budget ran out; distinct from every abstract error."""


@dataclass
class Fuel:
    """Remaining loop iterations and procedure calls; None is unlimited."""

    remaining: Optional[int]

    def spend(self) -> None:
        if self.remaining is None:
            return
        if self.remaining <= 0:
            raise OutOfFuel()
        self.remaining -= 1


EvalResult = Union[Composite, AbstractError]
TypeResult = Union[LangType, AbstractError]
# Compiled code: a data or type expression maps a state to its result, a
# transfer a composite, and an instruction or a preamble a state to a state.
Code = Callable[[object], object]
DataCode = Callable[[State], EvalResult]
TransferCode = Callable[[Composite], EvalResult]
TypeCode = Callable[[State], TypeResult]
StateCode = Callable[[State], State]

C = TypeVar("C")


# ---------------------------------------------------------------------------
# building code; `x` is the state a data or type expression reads, or the
# composite a transfer is applied to


def _constant(result) -> Code:
    return lambda x: result


def _value(com: Composite) -> EvalResult:
    """The transfer `value`, and the operand of the transfer selections."""
    return com


def _unary(a: Code, op: Callable, param) -> Code:
    """An error from the operand is the result; otherwise `op(com, param)`."""

    def unary(x):
        com = a(x)
        if isinstance(com, AbstractError):
            return com
        return op(com, param)

    return unary


def _binary(a: Code, b: Code, op: Callable, param) -> Code:
    """Operands left to right, the first error is the result; otherwise
    `op(left, right, param)`."""

    def binary(x):
        left = a(x)
        if isinstance(left, AbstractError):
            return left
        right = b(x)
        if isinstance(right, AbstractError):
            return right
        return op(left, right, param)

    return binary


def _ternary(a: Code, b: Code, c: Code, op: Callable, param) -> Code:
    """Three operands left to right, the first error is the result;
    otherwise `op(first, second, third, param)`."""

    def ternary(x):
        first = a(x)
        if isinstance(first, AbstractError):
            return first
        second = b(x)
        if isinstance(second, AbstractError):
            return second
        third = c(x)
        if isinstance(third, AbstractError):
            return third
        return op(first, second, third, param)

    return ternary


def _with_element(op: Callable, at: int) -> Callable:
    """`op`, its result paired with its operand `at`: the element it adds
    to, or changes in, a collection."""

    def paired(*operands):
        com = op(*operands)
        if isinstance(com, AbstractError):
            return com
        return com, operands[at]

    return paired


def _lazy(a: Code, b: Code, short_on: bool, expected: AbstractError) -> Code:
    """McCarthy connectives: a left operand equal to `short_on` decides
    alone; a non-Boolean operand yields `expected`."""

    def lazy(x):
        left = a(x)
        if isinstance(left, AbstractError):
            return left
        if left.bod is not BOOLEAN:
            return expected
        if left.dat.value == short_on:
            return left
        right = b(x)
        if isinstance(right, AbstractError):
            return right
        if right.bod is not BOOLEAN:
            return expected
        return right

    return lazy


def _block(codes: list[C]) -> C:
    """Run compiled steps one after another."""
    if len(codes) == 1:
        return codes[0]
    steps = tuple(codes)

    def block(sta):
        for step in steps:
            sta = step(sta)
        return sta

    return block


def _skip(sta: State) -> State:
    return sta


# ---------------------------------------------------------------------------
# operators over composites; `param` is what the clause fixes when it
# compiles: the limits, an attribute name or an error word


def _sized(dat: Data, bod, limits: Limits) -> EvalResult:
    """A freshly computed result, or overflow when it exceeds the limits."""
    if oversized(dat, limits):
        return OVERFLOW
    return _unchecked_composite(dat, bod)


def _add(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    return _sized(left.dat.add(right.dat), NUMBER, limits)


def _sub(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    return _sized(left.dat.sub(right.dat), NUMBER, limits)


def _mul(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    return _sized(left.dat.mul(right.dat), NUMBER, limits)


def _divide(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    if right.dat.is_zero():
        return DIVISION_BY_ZERO
    quotient = left.dat.divide(right.dat)
    if quotient is None:
        return OVERFLOW
    return _sized(quotient, NUMBER, limits)


def _less(left: Composite, right: Composite, _) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    return boo_composite(left.dat.lt(right.dat))


def _equal(left: Composite, right: Composite, _) -> EvalResult:
    if left.bod != right.bod:
        return FALSE_COMPOSITE
    return boo_composite(left.dat == right.dat)


def _glue(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not WORD or right.bod is not WORD:
        return WORD_EXPECTED
    return _sized(WordData(left.dat.text + right.dat.text), WORD, limits)


def _negate(com: Composite, expected: AbstractError) -> EvalResult:
    if com.bod is not BOOLEAN:
        return expected
    return boo_composite(not com.dat.value)


def _top(com: Composite, _) -> EvalResult:
    if not isinstance(com.bod, ListBody):
        return LIST_EXPECTED
    if not com.dat.items:
        return EMPTY_LIST
    return _unchecked_composite(com.dat.items[0], com.bod.element)


def _index(number: Number, length: int) -> Optional[int]:
    if not number.is_integer():
        return None
    i = number.to_int()
    if not 1 <= i <= length:
        return None
    return i


def _array_at(arr: Composite, idx: Composite, _) -> EvalResult:
    if not isinstance(arr.bod, ArrayBody):
        return ARRAY_EXPECTED
    if idx.bod is not NUMBER:
        return NUMBER_EXPECTED
    i = _index(idx.dat, len(arr.dat.items))
    if i is None:
        return INDEX_OUT_OF_RANGE
    return _unchecked_composite(arr.dat.items[i - 1], arr.bod.element)


def _record_at(com: Composite, ide: str) -> EvalResult:
    if not isinstance(com.bod, RecordBody):
        return RECORD_EXPECTED
    if not com.bod.has(ide):
        return ATTRIBUTE_NOT_PRESENT
    return _unchecked_composite(com.dat.get(ide), com.bod.get(ide))


# -- data expressions only


def _list(com: Composite, limits: Limits) -> EvalResult:
    return _sized(_unchecked_list((com.dat,)), ListBody(com.bod), limits)


def _push(new: Composite, lst: Composite, limits: Limits) -> EvalResult:
    if not isinstance(lst.bod, ListBody):
        return LIST_EXPECTED
    if new.bod != lst.bod.element:
        return NO_COHERENCE
    return _sized(_unchecked_list((new.dat, *lst.dat.items)), lst.bod, limits)


def _pop(com: Composite, _) -> EvalResult:
    if not isinstance(com.bod, ListBody):
        return LIST_EXPECTED
    if not com.dat.items:
        return EMPTY_LIST
    rest = _unchecked_list(com.dat.items[1:])
    return _unchecked_composite(rest, com.bod)


def _array(com: Composite, limits: Limits) -> EvalResult:
    return _sized(_unchecked_array((com.dat,)), ArrayBody(com.bod), limits)


def _add_to_array(arr: Composite, new: Composite, limits: Limits) -> EvalResult:
    if not isinstance(arr.bod, ArrayBody):
        return ARRAY_EXPECTED
    if new.bod != arr.bod.element:
        return NO_COHERENCE
    return _sized(_unchecked_array((*arr.dat.items, new.dat)), arr.bod, limits)


def _change_array(arr: Composite, idx: Composite, new: Composite, _) -> EvalResult:
    if not isinstance(arr.bod, ArrayBody):
        return ARRAY_EXPECTED
    if idx.bod is not NUMBER:
        return NUMBER_EXPECTED
    i = _index(idx.dat, len(arr.dat.items))
    if i is None:
        return INDEX_OUT_OF_RANGE
    if new.bod != arr.bod.element:
        return NO_COHERENCE
    items = list(arr.dat.items)
    items[i - 1] = new.dat
    return _unchecked_composite(_unchecked_array(tuple(items)), arr.bod)


def _record(com: Composite, param: tuple[str, Limits]) -> EvalResult:
    ide, limits = param
    return _sized(RecordData.of({ide: com.dat}), RecordBody.of({ide: com.bod}), limits)


def _add_attribute(new: Composite, rec: Composite, param: tuple[str, Limits]) -> EvalResult:
    ide, limits = param
    if not isinstance(rec.bod, RecordBody):
        return RECORD_EXPECTED
    if rec.bod.has(ide):
        return ATTRIBUTE_ALREADY_PRESENT
    return _sized(
        RecordData.of({**rec.dat.attributes(), ide: new.dat}),
        rec.bod.with_added(ide, new.bod),
        limits,
    )


def _remove_attribute(com: Composite, ide: str) -> EvalResult:
    if not isinstance(com.bod, RecordBody):
        return RECORD_EXPECTED
    if not com.bod.has(ide):
        return ATTRIBUTE_NOT_PRESENT
    remaining = com.dat.attributes()
    del remaining[ide]
    return _unchecked_composite(RecordData.of(remaining), com.bod.with_removed(ide))


def _change_record(rec: Composite, new: Composite, ide: str) -> EvalResult:
    if not isinstance(rec.bod, RecordBody):
        return RECORD_EXPECTED
    if not rec.bod.has(ide):
        return ATTRIBUTE_NOT_PRESENT
    return _unchecked_composite(
        RecordData.of({**rec.dat.attributes(), ide: new.dat}),
        RecordBody.of({**rec.bod.attributes(), ide: new.bod}),
    )


def _variable(ide: str) -> DataCode:
    def variable(sta):
        val = sta.store.valuation.get(ide)
        if val is None:
            return IDENTIFIER_NOT_DECLARED
        com = val.com
        if com is None:
            return VARIABLE_NOT_INITIALIZED
        return com

    return variable


def _conditional(guard: DataCode, then_code: DataCode, else_code: DataCode) -> DataCode:
    def conditional(sta):
        com = guard(sta)
        if isinstance(com, AbstractError):
            return com
        if com.bod is not BOOLEAN:
            return BOOLEAN_EXPECTED
        return (then_code if com.dat.value else else_code)(sta)

    return conditional


# -- transfer expressions only


def _array_first(code: TransferCode) -> TransferCode:
    """A transfer's array selection checks for an array before it evaluates
    the index; a data expression evaluates both operands first."""
    return lambda com: code(com) if isinstance(com.bod, ArrayBody) else ARRAY_EXPECTED


def _numbers_in(com: Composite) -> Union[tuple[Number, ...], AbstractError]:
    """The numbers of a non-empty list or array of numbers."""
    if not (isinstance(com.bod, (ListBody, ArrayBody)) and com.bod.element is NUMBER):
        return ARRAY_EXPECTED
    if not com.dat.items:
        return EMPTY_LIST
    return com.dat.items


def _sum(com: Composite, limits: Limits) -> EvalResult:
    numbers = _numbers_in(com)
    if isinstance(numbers, AbstractError):
        return numbers
    return _sized(Number.sum(numbers), NUMBER, limits)


def _max(com: Composite, limits: Limits) -> EvalResult:
    numbers = _numbers_in(com)
    if isinstance(numbers, AbstractError):
        return numbers
    return _sized(Number.max(numbers), NUMBER, limits)


def _small_number(com: Composite, _) -> EvalResult:
    if com.bod is not NUMBER:
        return NUMBER_EXPECTED
    return boo_composite(com.dat.abs().lt(SMALL_NUMBER_BOUND))


def _increasing(com: Composite, _) -> EvalResult:
    if not isinstance(com.bod, ArrayBody):
        return ARRAY_EXPECTED
    if com.bod.element is not NUMBER:
        return NUMBER_EXPECTED
    numbers = com.dat.items
    return boo_composite(all(numbers[i].lt(numbers[i + 1]) for i in range(len(numbers) - 1)))


def _all_elements(inner: TransferCode, body_cls: type, expected: AbstractError) -> TransferCode:
    """`all-list`/`all-array`: `inner` must hold of every element; every
    element is visited, so a later error still wins over an earlier false."""

    def all_elements(com):
        if not isinstance(com.bod, body_cls):
            return expected
        element, all_true = com.bod.element, True
        for item in com.dat.items:
            result = inner(_unchecked_composite(item, element))
            if isinstance(result, AbstractError):
                return result
            if result.bod is not BOOLEAN:
                return A_YOKE_EXPECTED
            if not result.dat.value:
                all_true = False
        return boo_composite(all_true)

    return all_elements


# -- type expressions


def _collection_type(typ: LangType, body_cls: type) -> TypeResult:
    return LangType(body_cls(typ.bod), TT)


def _record_type(typ: LangType, ide: str) -> TypeResult:
    return LangType(RecordBody.of({ide: typ.bod}), TT)


def _expanded_type(base: TypeCode, ide: str, addition: TypeCode) -> TypeCode:
    def expanded(sta):
        typ = base(sta)
        if isinstance(typ, AbstractError):
            return typ
        if not isinstance(typ.bod, RecordBody):
            return NOT_A_RECORD_TYPE
        if typ.bod.has(ide):
            return ATTRIBUTE_ALREADY_PRESENT
        added = addition(sta)
        if isinstance(added, AbstractError):
            return added
        return LangType(typ.bod.with_added(ide, added.bod), typ.tra)

    return expanded


def _replaced_transfer(typ: LangType, tra: Transfer) -> TypeResult:
    return LangType(typ.bod, tra)


# ---------------------------------------------------------------------------
# the compile rule of every data and transfer expression class, called with
# the evaluator and then the node's fields in order, each operand already
# compiled; an operator both sorts share has one rule for both classes

_BOOLEANS = {value: _constant(boo_composite(value)) for value in (False, True)}

_EXPRESSION_RULES: dict[type, Callable[..., Code]] = {
    cls: rule
    for classes, rule in {
        (n.BoolLit, n.TraBoolLit): lambda ev, value: _BOOLEANS[value],
        (n.NumLit, n.TraNumLit): lambda ev, num: ev._literal(num, NUMBER),
        (n.WordLit, n.TraWordLit): lambda ev, wor: ev._literal(WordData(wor), WORD),
        (n.IdeExp,): lambda ev, ide: _variable(ide),
        (n.AndExp,): lambda ev, a, b: _lazy(a, b, False, BOOLEAN_EXPECTED),
        (n.TraAndExp,): lambda ev, a, b: _lazy(a, b, False, A_YOKE_EXPECTED),
        (n.OrExp,): lambda ev, a, b: _lazy(a, b, True, BOOLEAN_EXPECTED),
        (n.TraOrExp,): lambda ev, a, b: _lazy(a, b, True, A_YOKE_EXPECTED),
        (n.NotExp,): lambda ev, a: _unary(a, _negate, BOOLEAN_EXPECTED),
        (n.TraNotExp,): lambda ev, a: _unary(a, _negate, A_YOKE_EXPECTED),
        (n.LessExp, n.TraLessExp): lambda ev, a, b: _binary(a, b, _less, None),
        (n.AddExp, n.TraAddExp): lambda ev, a, b: _binary(a, b, _add, ev.limits),
        (n.SubExp,): lambda ev, a, b: _binary(a, b, _sub, ev.limits),
        (n.MulExp,): lambda ev, a, b: _binary(a, b, _mul, ev.limits),
        (n.DivExp, n.TraDivExp): lambda ev, a, b: _binary(a, b, _divide, ev.limits),
        (n.EqExp, n.TraEqExp): lambda ev, a, b: _binary(a, b, _equal, None),
        (n.GlueExp, n.TraGlueExp): lambda ev, a, b: _binary(a, b, _glue, ev.limits),
        (n.ListExp,): lambda ev, a: _unary(a, _list, ev.limits),
        (n.PushExp,): lambda ev, new, lst: _binary(new, lst, _push, ev.limits),
        (n.TopExp,): lambda ev, a: _unary(a, _top, None),
        (n.PopExp,): lambda ev, a: _unary(a, _pop, None),
        (n.ArrayExp,): lambda ev, a: _unary(a, _array, ev.limits),
        (n.AddToArrExp,): lambda ev, arr, new: _binary(arr, new, _add_to_array, ev.limits),
        (n.ChangeArrExp,): lambda ev, *operands: _ternary(*operands, _change_array, None),
        (n.ArrAtExp,): lambda ev, arr, idx: _binary(arr, idx, _array_at, None),
        (n.RecordExp,): lambda ev, ide, a: _unary(a, _record, (ide, ev.limits)),
        (n.AddAttrExp,): lambda ev, ide, a, b: _binary(a, b, _add_attribute, (ide, ev.limits)),
        (n.RecAtExp,): lambda ev, rec, ide: _unary(rec, _record_at, ide),
        (n.RemoveAttrExp,): lambda ev, ide, rec: _unary(rec, _remove_attribute, ide),
        (n.ChangeRecExp,): lambda ev, rec, ide, new: _binary(rec, new, _change_record, ide),
        (n.CondExp,): lambda ev, *operands: _conditional(*operands),
        (n.FunCallExp,): lambda ev, ide, apar: _function_call(ev, ide, apar),
        # transfer expressions only
        (n.ValueTra,): lambda ev: _value,
        (n.TopTra,): lambda ev: _unary(_value, _top, None),
        (n.ArrayAtTra,): lambda ev, idx: _array_first(_binary(_value, idx, _array_at, None)),
        (n.RecordAtTra,): lambda ev, ide: _unary(_value, _record_at, ide),
        (n.SumExp,): lambda ev, a: _unary(a, _sum, ev.limits),
        (n.MaxExp,): lambda ev, a: _unary(a, _max, ev.limits),
        (n.SmallNumberExp,): lambda ev, a: _unary(a, _small_number, None),
        (n.IncreasingExp,): lambda ev, a: _unary(a, _increasing, None),
        (n.AllListExp,): lambda ev, a: _all_elements(a, ListBody, LIST_EXPECTED),
        (n.AllArrayExp,): lambda ev, a: _all_elements(a, ArrayBody, ARRAY_EXPECTED),
    }.items()
    for cls in classes
}


def _function_call(ev: "Evaluator", ide: str, actuals: tuple[str, ...]) -> DataCode:
    """The call site `ide(actuals)`, its lengths counted once."""
    lengths = (len(actuals),)
    return lambda sta: ev.call_functional_procedure(ide, actuals, lengths, sta)


# ---------------------------------------------------------------------------
# instructions and declarations


def _assign(ide: str, value: DataCode) -> StateCode:
    def assign(sta):
        # The nine-step ladder: error state, declaredness, expression
        # error, yoke error, coherence, yoke shape, yoke satisfaction,
        # then rebind with the new composite and the unchanged transfer.
        # Under TT the three yoke steps pass; an identical body is coherent.
        if sta.store.register is not None:
            return sta
        val = sta.store.valuation.get(ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        new = value(sta)
        if isinstance(new, AbstractError):
            return load_error(sta, new)
        typ = val.typ
        tra = typ.tra
        if tra is not TT:
            com = apply_transfer(tra, new)
            if isinstance(com, AbstractError):
                return load_error(sta, com)
        if new.bod is not typ.bod:
            if not coherent(new.bod, typ.bod):
                return load_error(sta, NO_COHERENCE)
            typ = LangType(new.bod, tra)
        if tra is not TT:
            if com.bod is not BOOLEAN:
                return load_error(sta, A_YOKE_EXPECTED)
            if not com.dat.value:
                return load_error(sta, YOKE_NOT_SATISFIED)
        return bind_variable(sta, ide, _unchecked_value(new.dat, typ, new))

    return assign


def _element_write(ide: str, value: DataCode, single: Callable[[tuple], Data]) -> StateCode:
    """`ide := dae` where `dae` adds one element to, or changes one element
    of, the collection `ide` holds; `value` yields the new collection and
    that element, and `single` makes a collection of one datum.

    Every `Value` satisfies its own transfer, so under `all-list T` or
    `all-array T` every old element satisfies T, and the verdict on the new
    collection is the verdict on the one element alone.  Any other yoke
    checks the whole value, and TT passes it unapplied.  The new collection
    keeps the held body, so it is coherent and keeps the held type.
    """

    def assign(sta):
        if sta.store.register is not None:
            return sta
        val = sta.store.valuation.get(ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        out = value(sta)
        if isinstance(out, AbstractError):
            return load_error(sta, out)
        new, element = out
        tra = val.typ.tra
        if tra is not TT:
            if tra.elementwise:
                new_only = _unchecked_composite(single((element.dat,)), new.bod)
                com = apply_transfer(tra, new_only)
            else:
                com = apply_transfer(tra, new)
            if isinstance(com, AbstractError):
                return load_error(sta, com)
            if com.bod is not BOOLEAN:
                return load_error(sta, A_YOKE_EXPECTED)
            if not com.dat.value:
                return load_error(sta, YOKE_NOT_SATISFIED)
        return bind_variable(sta, ide, _unchecked_value(new.dat, val.typ, new))

    return assign


def _yoke(ide: str, tra: Transfer) -> StateCode:
    def yoke(sta):
        # Symmetric to assignment: the old composite is kept, the transfer
        # is replaced, and the new transfer must accept the old composite.
        if sta.store.register is not None:
            return sta
        val = sta.store.valuation.get(ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        old = val.com
        if old is None:
            return load_error(sta, VARIABLE_NOT_INITIALIZED)
        com = apply_transfer(tra, old)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if com.bod is not BOOLEAN:
            return load_error(sta, A_YOKE_EXPECTED)
        if not com.dat.value:
            return load_error(sta, YOKE_NOT_SATISFIED)
        typ = LangType(val.typ.bod, tra)
        return bind_variable(sta, ide, _unchecked_value(val.content, typ, old))

    return yoke


def _if(guard: DataCode, then_code: StateCode, else_code: StateCode) -> StateCode:
    def if_then_else(sta):
        if sta.store.register is not None:
            return sta
        com = guard(sta)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if com.bod is not BOOLEAN:
            return load_error(sta, BOOLEAN_EXPECTED)
        return (then_code if com.dat.value else else_code)(sta)

    return if_then_else


def _if_error(guard: DataCode, handler: StateCode) -> StateCode:
    def if_error(sta):
        err = sta.store.register
        if err is None:
            return sta
        # The handled word is evaluated with the register cleared;
        # otherwise transparency would poison the evaluation.
        cleared = clear_error(sta)
        com = guard(cleared)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if com.bod is not WORD:
            return load_error(sta, WORD_EXPECTED)
        if com.dat.text != err.word:
            return sta
        return handler(cleared)

    return if_error


def _while(guard: DataCode, body: StateCode, fuel: Fuel) -> StateCode:
    def loop(sta):
        while True:
            if sta.store.register is not None:
                return sta
            com = guard(sta)
            if isinstance(com, AbstractError):
                return load_error(sta, com)
            if com.bod is not BOOLEAN:
                return load_error(sta, BOOLEAN_EXPECTED)
            if not com.dat.value:
                return sta
            fuel.spend()
            sta = body(sta)

    return loop


def _declare(ide: str, type_code: TypeCode, variable: bool) -> StateCode:
    """A variable declaration, or else a type definition: `ide` must be
    free among the variables, or the types."""
    bind = _bind_omega if variable else bind_type

    def declare(sta):
        if sta.store.register is not None:
            return sta
        if ide in (sta.store.valuation if variable else sta.env.types):
            return load_error(sta, IDENTIFIER_NOT_FREE)
        typ = type_code(sta)
        if isinstance(typ, AbstractError):
            return load_error(sta, typ)
        return bind(sta, ide, typ)

    return declare


def _bind_omega(sta: State, ide: str, typ: LangType) -> State:
    return bind_variable(sta, ide, _unchecked_value(OMEGA, typ, None))


def _declare_procedures(decs: tuple, compile_call: Callable[[n.Node], _Call]) -> StateCode:
    """Procedures declared together, as one group, each member's calls
    compiled here, once; names must be free and distinct."""
    calls = tuple(map(compile_call, decs))
    names = [dec.ide for dec in decs]
    repeated = len(set(names)) != len(names)

    def declare(sta):
        if sta.store.register is not None:
            return sta
        if repeated or any(name in sta.env.procs for name in names):
            return load_error(sta, IDENTIFIER_NOT_FREE)
        out = sta
        for dec in decs:
            out = bind_procedure(out, dec.ide, Procedure(dec, decs, sta.env, calls))
        return out

    return declare


# ---------------------------------------------------------------------------


class _Call(NamedTuple):
    """What a call of one procedure declaration runs, compiled with the
    declaration and kept in its `Procedure` value: the lengths of the
    formal lists, the ref list before the val; each formal's name and type
    code, in that order; the ref formals' names; the body's steps, its
    preamble, then its instruction or each item of its `;` sequence (none
    for a function without a body); a function's result and its optional
    return type.  It holds code only: the environment is the callee's, and
    the formal types are evaluated in it on every call."""

    lengths: tuple[int, ...]
    formals: tuple[tuple[str, TypeCode], ...]
    refs: tuple[str, ...]
    steps: tuple[StateCode, ...]
    result: Optional[DataCode]
    return_type: Optional[TypeCode]


@dataclass(frozen=True)
class Procedure:
    """One value for both kinds of procedure, bound in `Env.procs`: its
    declaration, the group declared with it (a function, or a lone `proc`,
    is a group of one) and the declaration-time environment, without the
    group.  A call nests `group` back into `env`, so recursion works, and
    runs the callee's entry of `calls`: each member's `_Call`, in the order
    of `group`.  `calls` takes no part in equality or repr."""

    dec: Union[n.ImpProcDec, n.FunProcDec]
    group: tuple[Union[n.ImpProcDec, n.FunProcDec], ...]
    env: Env
    calls: tuple[_Call, ...] = field(compare=False, repr=False)


class Evaluator:
    """Compiles phrases and runs the compiled closures.

    The public `eval_*`, `exec_*` and `run_program` methods compile the
    node they are given, top-down and once, and then run it; a procedure
    declaration's calls compile with it (`_Call`), and call sites find them
    in the `Procedure` value at run time.  Compiled code writes
    variables in place, so `exec_*` run it on a copy of the caller's
    valuation (`owned`) and leave the caller's state as it was, even when
    the run raises; expressions never write.  The `compile_*`
    methods build the closure of one node and its subtree; they read the
    limits, the fuel counter and the trace hook as they compile.  The trace
    hook is called before every executed instruction that is not a
    sequence.
    """

    def __init__(
        self,
        limits: Limits = Limits(),
        fuel: Optional[int] = None,
        trace: Optional[Callable[[n.Instruction], None]] = None,
    ):
        self.limits = limits
        self.fuel = Fuel(fuel)
        self.trace = trace
        self._literals: dict[Data, Code] = {}

    # -- entry points: compile, then run -----------------------------------

    def eval_data_exp(self, dae: n.DatExp, sta: State) -> EvalResult:
        if sta.store.register is not None:
            return sta.store.register
        return self._compiled(self.compile_expression, dae)(sta)

    def eval_transfer_exp(self, tre: n.TraExp, sta: State) -> Union[Transfer, AbstractError]:
        if sta.store.register is not None:
            return sta.store.register
        return self._compiled(self._transfer, tre)

    def eval_type_exp(self, tex: n.TypExp, sta: State) -> TypeResult:
        if sta.store.register is not None:
            return sta.store.register
        return self._compiled(self.compile_type_exp, tex)(sta)

    def exec_instruction(self, ins: n.Instruction, sta: State) -> State:
        return self._compiled(self._step, ins)(owned(sta))

    def exec_preamble(self, pam, sta: State) -> State:
        return self._compiled(self.compile_preamble, pam)(owned(sta))

    def run_program(self, prg: n.Program, sta: State) -> State:
        """The preamble, then the instruction, each entered through its
        public method, which copies the valuation."""
        if prg.pam is not None:
            sta = self.exec_preamble(prg.pam, sta)
        return self.exec_instruction(prg.ins, sta)

    # -- compilation ---------------------------------------------------------

    def _compiled(self, compile: Callable[[n.Node], C], node: n.Node) -> C:
        """`compile(node)`, the collector paused, as compiling frees nothing;
        then the literal table is dropped and the collector put back as it
        was, also when the compile raises."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return compile(node)
        finally:
            self._literals.clear()
            if enabled:
                gc.enable()

    def compile_expression(self, exp: n.Node) -> Code:
        """The code of a data expression, over states, or of a transfer
        expression, over composites: the rule of its class, called with the
        evaluator and its fields, each operand compiled first.

        The rule itself never recurses, so each level of nesting costs one
        Python frame, this one.  The operands compile in a plain loop, as a
        comprehension is a frame of its own on Python 3.10 and 3.11, and
        through `self.compile_expression`, so a subclass that wraps it sees
        every subexpression."""
        rule = _EXPRESSION_RULES.get(exp.__class__)
        if rule is None:
            raise TypeError(f"not a data or transfer expression: {exp!r}")
        operands = [self]
        for field in exp.__dict__.values():
            operands.append(self.compile_expression(field) if isinstance(field, n.Node) else field)
        return rule(*operands)

    def _literal(self, dat: Data, bod) -> Code:
        """A number or word literal: one constant per distinct datum in one
        entry point's compile, size-checked once."""
        code = self._literals.get(dat)
        if code is None:
            code = self._literals[dat] = _constant(_sized(dat, bod, self.limits))
        return code

    def _transfer(self, tre: n.TraExp) -> Transfer:
        """The transfer a transfer expression denotes, its source printed once."""
        elementwise = isinstance(tre, (n.AllListExp, n.AllArrayExp))
        return Transfer(print_concrete(tre), self.compile_expression(tre), elementwise)

    def compile_type_exp(self, tex: n.TypExp) -> TypeCode:
        sub = self.compile_type_exp
        match tex:
            case n.BooleanTyp():
                return _constant(LangType(BOOLEAN, TT))
            case n.NumberTyp():
                return _constant(LangType(NUMBER, TT))
            case n.WordTyp():
                return _constant(LangType(WORD, TT))
            case n.IdeTyp(ide):
                return lambda sta: lookup_type(sta, ide) or TYPE_NOT_DEFINED
            case n.ListTyp(inner):
                return _unary(sub(inner), _collection_type, ListBody)
            case n.ArrayTyp(inner):
                return _unary(sub(inner), _collection_type, ArrayBody)
            case n.RecordTyp(ide, inner):
                return _unary(sub(inner), _record_type, ide)
            case n.ExpandRecordTyp(base, ide, addition):
                return _expanded_type(sub(base), ide, sub(addition))
            case n.ReplaceTransferTyp(base, tre):
                return _unary(sub(base), _replaced_transfer, self._transfer(tre))
        raise TypeError(f"not a type expression: {tex!r}")

    def _step(self, ins: n.Instruction) -> StateCode:
        """An instruction's code, reported to the trace hook before it runs
        unless it is a sequence, whose items report themselves."""
        code, trace = self.compile_instruction(ins), self.trace
        if trace is None or isinstance(ins, n.SeqIns):
            return code

        def traced(sta):
            trace(ins)
            return code(sta)

        return traced

    def compile_instruction(self, ins: n.Instruction) -> StateCode:
        data, step = self.compile_expression, self._step
        match ins:
            case n.SkipIns():
                return _skip
            case n.SeqIns(items):
                return _block([step(item) for item in items])
            case n.AssignIns(ide, dae):
                return self.compile_assignment(ide, dae)
            case n.YokeIns(ide, tre):
                return _yoke(ide, self._transfer(tre))
            case n.CallIns(ide, ref_args, val_args):
                actuals, lengths = (*ref_args, *val_args), (len(ref_args), len(val_args))
                return lambda sta: self.call_imperative_procedure(ide, actuals, lengths, sta)
            case n.IfIns(guard, then_branch, else_branch):
                return _if(data(guard), step(then_branch), step(else_branch))
            case n.IfErrorIns(guard, handler):
                return _if_error(data(guard), step(handler))
            case n.WhileIns(guard, body):
                return _while(data(guard), step(body), self.fuel)
        raise TypeError(f"not an instruction: {ins!r}")

    def compile_assignment(self, ide: str, dae: n.DatExp) -> StateCode:
        """`ide := dae`.  Whether `dae` adds or changes one element of the
        value `ide` holds is decided here, from the tree: `add-to-arr`,
        `push` and `change-arr` with `ide` itself as their collection."""
        sub, limits = self.compile_expression, self.limits
        match dae:
            case n.AddToArrExp(n.IdeExp(held) as target, element) if held == ide:
                value = _binary(sub(target), sub(element), _with_element(_add_to_array, 1), limits)
                return _element_write(ide, value, _unchecked_array)
            case n.PushExp(element, n.IdeExp(held) as target) if held == ide:
                value = _binary(sub(element), sub(target), _with_element(_push, 0), limits)
                return _element_write(ide, value, _unchecked_list)
            case n.ChangeArrExp(n.IdeExp(held) as target, index, element) if held == ide:
                value = _ternary(
                    sub(target), sub(index), sub(element), _with_element(_change_array, 2), None
                )
                return _element_write(ide, value, _unchecked_array)
        return _assign(ide, sub(dae))

    def compile_preamble(self, pam) -> StateCode:
        """A declaration, a definition, skip or a sequence of them."""
        match pam:
            case n.PreSeq(items) | n.VarDecSeq(items) | n.TypDefSeq(items):
                return _block([self.compile_preamble(item) for item in items])
            case n.SkipIns():
                return _skip
            case n.VarDec(ide, tex):
                return _declare(ide, self.compile_type_exp(tex), variable=True)
            case n.TypDef(ide, tex):
                return _declare(ide, self.compile_type_exp(tex), variable=False)
            case n.ImpProcDec() | n.FunProcDec():
                return _declare_procedures((pam,), self._compile_call)
            case n.MultiProcDec(decs):
                return _declare_procedures(decs, self._compile_call)
        raise TypeError(f"not a preamble: {pam!r}")

    # -- procedure calls ----------------------------------------------------

    def _compile_call(self, dec: Union[n.ImpProcDec, n.FunProcDec]) -> _Call:
        prg, steps = dec.prg, ()
        if prg is not None:
            ins = prg.ins
            steps = tuple(map(self._step, ins.items if isinstance(ins, n.SeqIns) else (ins,)))
            if prg.pam is not None:
                steps = (self.compile_preamble(prg.pam), *steps)
        if isinstance(dec, n.FunProcDec):
            lists, refs = (dec.params,), ()
            result = self.compile_expression(dec.dae)
            return_type = None if dec.tex is None else self.compile_type_exp(dec.tex)
        else:
            lists = (dec.ref_params, dec.val_params)
            refs = tuple(formal.ide for formal in dec.ref_params)
            result, return_type = None, None
        formals = tuple((formal.ide, self.compile_type_exp(formal.tex)) for formal in chain(*lists))
        return _Call(tuple(map(len, lists)), formals, refs, steps, result, return_type)

    def _enter(
        self, kind: type, ide: str, actuals: tuple[str, ...], lengths: tuple[int, ...], sta: State
    ) -> Union[tuple[_Call, State], AbstractError]:
        """Stages 1 and 2 of a call from a clear state: the compiled entry
        of the declaration, of class `kind`, and the local state its body
        runs on, or an error word.  `actuals` is every actual, the ref list
        before the val, and `lengths` the length of each list."""
        pro = sta.env.procs.get(ide)
        if pro is None or not isinstance(pro.dec, kind):
            return PROCEDURE_NOT_DECLARED
        self.fuel.spend()
        # The declaration-time environment with the whole group nested back
        # in, so every member, the callee included, resolves recursively.
        dec, group, env, calls = pro.dec, pro.group, pro.env, pro.calls
        if len(group) == 1:
            procs, call = {**env.procs, dec.ide: pro}, calls[0]
        else:
            procs = dict(env.procs)
            for member, member_call in zip(group, calls):
                if member is dec:
                    procs[member.ide], call = pro, member_call
                else:
                    procs[member.ide] = Procedure(member, group, env, calls)
        if call.lengths != lengths:
            return PARAMETER_LIST_MISMATCH
        valuation: dict[str, Value] = {}
        local = State(Env(env.types, procs), Store(valuation, None))
        # The local valuation holds only the formals.  Formal types read
        # only the environment, so they evaluate on `local` as it fills.
        # An actual that holds the formal's type object satisfies it, as
        # every Value is certified against its own type.
        caller = sta.store.valuation
        for (formal, type_code), actual in zip(call.formals, actuals):
            actual_value = caller.get(actual)
            if actual_value is None:
                return IDENTIFIER_NOT_DECLARED
            formal_type = type_code(local)
            if isinstance(formal_type, AbstractError):
                return formal_type
            if actual_value.typ is not formal_type:
                com = actual_value.com
                if com is not None and not clan_ty_member(com, formal_type):
                    return PARAMETER_TYPE_MISMATCH
                actual_value = _unchecked_value(actual_value.content, formal_type, com)
            valuation[formal] = actual_value
        return call, local

    def call_imperative_procedure(
        self, ide: str, actuals: tuple[str, ...], lengths: tuple[int, ...], sta: State
    ) -> State:
        """The code of a compiled `call ide (ref ... val ...)` site, not
        library API: `actuals` is the ref list, then the val list, and
        `lengths` their two lengths.  The ref results are written back into
        the valuation of `sta` in place, as compiled code owns it; a library
        caller runs a call through `exec_instruction`, which copies first.
        The name stays public, and is looked up on each call, because
        `perfbench/spans.py` wraps it on the class."""
        # An error-carrying initial global state is the terminal one.
        if sta.store.register is not None:
            return sta
        entered = self._enter(n.ImpProcDec, ide, actuals, lengths, sta)
        if isinstance(entered, AbstractError):
            return load_error(sta, entered)
        call, terminal = entered
        # Stage 3: run the body's steps on the local state.
        for step in call.steps:
            terminal = step(terminal)
        if terminal.store.register is not None:
            return load_error(sta, terminal.store.register)
        # Stage 4: local environment is abandoned; reference parameters are
        # copied back onto their actuals, which lead `actuals`, in the
        # caller's valuation, each with the formal's type.
        valuation, local = sta.store.valuation, terminal.store.valuation
        for formal, actual in zip(call.refs, actuals):
            valuation[actual] = local[formal]
        return sta

    def call_functional_procedure(
        self, ide: str, actuals: tuple[str, ...], lengths: tuple[int, ...], sta: State
    ) -> EvalResult:
        """The code of a compiled `ide(actuals)` site, not library API:
        `lengths` holds the one list's length.  It reads `sta`, clear as
        every state an expression runs on, and writes nothing.  The name
        stays public, and is looked up on each call, because
        `perfbench/spans.py` wraps it on the class."""
        entered = self._enter(n.FunProcDec, ide, actuals, lengths, sta)
        if isinstance(entered, AbstractError):
            return entered
        call, terminal = entered
        for step in call.steps:
            terminal = step(terminal)
        if terminal.store.register is not None:
            return terminal.store.register
        result = call.result(terminal)
        if isinstance(result, AbstractError):
            return result
        if call.return_type is not None:
            return_type = call.return_type(terminal)
            if isinstance(return_type, AbstractError):
                return return_type
            if not clan_ty_member(result, return_type):
                return RETURN_TYPE_MISMATCH
        return result


# ---------------------------------------------------------------------------
# convenience wrappers


def run_program(
    prg: n.Program,
    sta: Optional[State] = None,
    fuel: Optional[int] = None,
    limits: Limits = Limits(),
    trace: Optional[Callable[[n.Instruction], None]] = None,
) -> State:
    """Run a program from `sta`, by default the empty state."""
    evaluator = Evaluator(limits=limits, fuel=fuel, trace=trace)
    return evaluator.run_program(prg, sta if sta is not None else empty_state())


def run_source(
    text: str,
    sta: Optional[State] = None,
    fuel: Optional[int] = None,
    limits: Limits = Limits(),
) -> State:
    """Parse and run a program; `sta`, if given, is left unchanged."""
    from .parser import parse_program

    return run_program(parse_program(text), sta, fuel=fuel, limits=limits)


def eval_source_expression(
    text: str,
    sta: Optional[State] = None,
    fuel: Optional[int] = None,
    limits: Limits = Limits(),
) -> EvalResult:
    from .parser import parse_data_expression

    evaluator = Evaluator(limits=limits, fuel=fuel)
    return evaluator.eval_data_exp(
        parse_data_expression(text), sta if sta is not None else empty_state()
    )
