"""The evaluator.

Expressions evaluate against a state and yield composites, transfers or
types; errors are values, never exceptions.  Instructions transform states
and write errors to the register, and every instruction except if-error
passes error-carrying states through untouched.  Operands evaluate left to
right and the first error wins, except that the Boolean connectives are
lazy: a deciding left operand suppresses the right one entirely.

Each clause is compiled once per evaluator into a Python closure, its
denotation: a function from states to states, composites or types, or,
for a transfer, from composites to composites.  Each operator is one
function over operand composites, shared by data and transfer expressions;
`_unary`, `_binary` and `_ternary` turn it into code over operand closures.
Literals are built, and size-checked, when they compile; sequences compile
to flat blocks.  An expression's code runs on a state whose register is
clear: the register is tested once, where evaluation enters the
expression, since the state cannot change inside it.

Nontermination is bounded by a fuel budget, spent on loop iterations and
procedure calls; running out raises OutOfFuel, which is an outcome of the
run, not a language error, and never reaches an error register.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional, TypeVar, Union

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
    NumberData,
    RecordBody,
    RecordData,
    Transfer,
    Value,
    WordData,
    _number_data,
    _unchecked_array,
    _unchecked_composite,
    _unchecked_list,
    _unchecked_value,
    apply_transfer,
    boo_composite,
    clan_ty_member,
    coherent,
    is_boo_composite,
    oversized,
)
from . import nodes as n
from .printer import print_concrete
from .state import (
    Env,
    Procedure,
    State,
    Store,
    bind_procedure,
    bind_type,
    clear_error,
    empty_state,
    is_error,
    load_error,
    lookup_procedure,
    lookup_type,
    lookup_variable,
    owned,
)

# Every variable write goes through this module-global name, which
# perfbench/spans.py traces as `state.bind`.
from .state import write_variable as bind_variable

DEFAULT_SMALL_NUMBER_BOUND = Number.make(1, 6)


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


def _number(number: Number, limits: Limits) -> EvalResult:
    return _sized(_number_data(number), NUMBER, limits)


def _add(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    return _number(left.dat.value.add(right.dat.value), limits)


def _sub(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    return _number(left.dat.value.sub(right.dat.value), limits)


def _mul(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    return _number(left.dat.value.mul(right.dat.value), limits)


def _divide(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    if right.dat.value.is_zero():
        return DIVISION_BY_ZERO
    quotient = left.dat.value.divide(right.dat.value)
    if quotient is None:
        return OVERFLOW
    return _number(quotient, limits)


def _less(left: Composite, right: Composite, _) -> EvalResult:
    if left.bod is not NUMBER or right.bod is not NUMBER:
        return NUMBER_EXPECTED
    return boo_composite(left.dat.value.lt(right.dat.value))


def _equal(left: Composite, right: Composite, _) -> EvalResult:
    if left.bod != right.bod:
        return FALSE_COMPOSITE
    return boo_composite(left.dat == right.dat)


def _glue(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not WORD or right.bod is not WORD:
        return WORD_EXPECTED
    return _sized(WordData(left.dat.text + right.dat.text), WORD, limits)


def _not_boolean(exp: n.Node) -> AbstractError:
    """A connective's error word for a non-Boolean operand, by its sort."""
    return A_YOKE_EXPECTED if isinstance(exp, n.TraExp) else BOOLEAN_EXPECTED


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
    i = _index(idx.dat.value, len(arr.dat.items))
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
    i = _index(idx.dat.value, len(arr.dat.items))
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


def _numbers_in(com: Composite) -> Union[list[Number], AbstractError]:
    """The numbers of a non-empty list or array of numbers."""
    if not (isinstance(com.bod, (ListBody, ArrayBody)) and com.bod.element is NUMBER):
        return ARRAY_EXPECTED
    if not com.dat.items:
        return EMPTY_LIST
    return [item.value for item in com.dat.items]


def _sum(com: Composite, limits: Limits) -> EvalResult:
    numbers = _numbers_in(com)
    if isinstance(numbers, AbstractError):
        return numbers
    return _number(Number.sum(numbers), limits)


def _max(com: Composite, limits: Limits) -> EvalResult:
    numbers = _numbers_in(com)
    if isinstance(numbers, AbstractError):
        return numbers
    return _number(Number.max(numbers), limits)


def _small_number(com: Composite, bound: Number) -> EvalResult:
    if com.bod is not NUMBER:
        return NUMBER_EXPECTED
    return boo_composite(com.dat.value.abs().lt(bound))


def _increasing(com: Composite, _) -> EvalResult:
    if not isinstance(com.bod, ArrayBody):
        return ARRAY_EXPECTED
    if com.bod.element is not NUMBER:
        return NUMBER_EXPECTED
    numbers = [item.value for item in com.dat.items]
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
# instructions and declarations


def _assign(ide: str, value: DataCode) -> StateCode:
    def assign(sta):
        # The nine-step ladder: error state, declaredness, expression
        # error, yoke error, coherence, yoke shape, yoke satisfaction,
        # then rebind with the new composite and the unchanged transfer.
        if is_error(sta):
            return sta
        val = lookup_variable(sta, ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        new = value(sta)
        if isinstance(new, AbstractError):
            return load_error(sta, new)
        com = apply_transfer(val.typ.tra, new)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if not coherent(new.bod, val.typ.bod):
            return load_error(sta, NO_COHERENCE)
        if not is_boo_composite(com):
            return load_error(sta, A_YOKE_EXPECTED)
        if not com.dat.value:
            return load_error(sta, YOKE_NOT_SATISFIED)
        typ = val.typ
        if new.bod is not typ.bod:
            typ = LangType(new.bod, typ.tra)
        return bind_variable(sta, ide, _unchecked_value(new.dat, typ, new))

    return assign


def _element_write(ide: str, value: DataCode, single: Callable[[tuple], Data]) -> StateCode:
    """`ide := dae` where `dae` adds one element to, or changes one element
    of, the collection `ide` holds; `value` yields the new collection and
    that element, and `single` makes a collection of one datum.

    Every binder checks a value against its own transfer, so under
    `all-list T` or `all-array T` every old element satisfies T, and the
    verdict on the new collection is the verdict on the one element alone.
    Any other yoke checks the whole value.  The new collection keeps the
    held body, so it is coherent and keeps the held type.
    """

    def assign(sta):
        if is_error(sta):
            return sta
        val = lookup_variable(sta, ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        out = value(sta)
        if isinstance(out, AbstractError):
            return load_error(sta, out)
        new, element = out
        tra = val.typ.tra
        if tra.elementwise:
            new_only = _unchecked_composite(single((element.dat,)), new.bod)
            com = apply_transfer(tra, new_only)
        else:
            com = apply_transfer(tra, new)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if not is_boo_composite(com):
            return load_error(sta, A_YOKE_EXPECTED)
        if not com.dat.value:
            return load_error(sta, YOKE_NOT_SATISFIED)
        return bind_variable(sta, ide, _unchecked_value(new.dat, val.typ, new))

    return assign


def _yoke(ide: str, tra: Transfer) -> StateCode:
    def yoke(sta):
        # Symmetric to assignment: the old composite is kept, the transfer
        # is replaced, and the new transfer must accept the old composite.
        if is_error(sta):
            return sta
        val = lookup_variable(sta, ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        if val.content is OMEGA:
            return load_error(sta, VARIABLE_NOT_INITIALIZED)
        old = val.composite()
        com = apply_transfer(tra, old)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if not is_boo_composite(com):
            return load_error(sta, A_YOKE_EXPECTED)
        if not com.dat.value:
            return load_error(sta, YOKE_NOT_SATISFIED)
        typ = LangType(val.typ.bod, tra)
        return bind_variable(sta, ide, _unchecked_value(val.content, typ, old))

    return yoke


def _if(guard: DataCode, then_code: StateCode, else_code: StateCode) -> StateCode:
    def if_then_else(sta):
        if is_error(sta):
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
        if not is_error(sta):
            return sta
        # The handled word is evaluated with the register cleared;
        # otherwise transparency would poison the evaluation.
        cleared = clear_error(sta)
        com = guard(cleared)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if com.bod is not WORD:
            return load_error(sta, WORD_EXPECTED)
        if com.dat.text != sta.store.register.word:
            return sta
        return handler(cleared)

    return if_error


def _while(guard: DataCode, body: StateCode, fuel: Fuel) -> StateCode:
    def loop(sta):
        while True:
            if is_error(sta):
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


def _declare(ide: str, type_code: TypeCode, lookup: Callable, bind: Callable) -> StateCode:
    """A variable declaration or a type definition: `ide` must be free."""

    def declare(sta):
        if is_error(sta):
            return sta
        if lookup(sta, ide) is not None:
            return load_error(sta, IDENTIFIER_NOT_FREE)
        typ = type_code(sta)
        if isinstance(typ, AbstractError):
            return load_error(sta, typ)
        return bind(sta, ide, typ)

    return declare


def _bind_omega(sta: State, ide: str, typ: LangType) -> State:
    return bind_variable(sta, ide, _unchecked_value(OMEGA, typ, None))


def _declare_procedures(decs: tuple) -> StateCode:
    """Procedures declared together, as one group; names must be free and distinct."""
    names = [dec.ide for dec in decs]
    repeated = len(set(names)) != len(names)

    def declare(sta):
        if is_error(sta):
            return sta
        if repeated or any(lookup_procedure(sta, name) is not None for name in names):
            return load_error(sta, IDENTIFIER_NOT_FREE)
        out = sta
        for dec in decs:
            out = bind_procedure(out, dec.ide, Procedure(dec, decs, sta.env))
        return out

    return declare


# ---------------------------------------------------------------------------


class Evaluator:
    """Compiles phrases on first use and runs the compiled closures.

    The public `eval_*`, `exec_*` and `run_program` methods compile (once
    per node, cached by node identity) and then run.  Compiled code writes
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
        small_number_bound: Number = DEFAULT_SMALL_NUMBER_BOUND,
        trace: Optional[Callable[[n.Instruction], None]] = None,
    ):
        self.limits = limits
        self.fuel = Fuel(fuel)
        self.small_number_bound = small_number_bound
        self.trace = trace
        self._cache: dict[str, dict[int, tuple[n.Node, object]]] = {}
        # Compiled code reaches the evaluator only weakly, so the evaluator
        # and its cache form no reference cycle and are freed as soon as
        # the run that made them is over.
        self._weak = weakref.proxy(self)

    def _cached(self, compile: Callable[[n.Node], C], node: n.Node) -> C:
        """`compile(node)`, once per evaluator.  The entry keeps the node
        alive, so its identity cannot be reused while it is cached."""
        table = self._cache.setdefault(compile.__name__, {})
        entry = table.get(id(node))
        if entry is None:
            entry = table[id(node)] = (node, compile(node))
        return entry[1]

    # -- entry points: compile, then run -----------------------------------

    def eval_data_exp(self, dae: n.DatExp, sta: State) -> EvalResult:
        if is_error(sta):
            return sta.store.register
        return self._cached(self.compile_expression, dae)(sta)

    def eval_transfer_exp(self, tre: n.TraExp, sta: State) -> Union[Transfer, AbstractError]:
        if is_error(sta):
            return sta.store.register
        return self._cached(self._transfer, tre)

    def eval_type_exp(self, tex: n.TypExp, sta: State) -> TypeResult:
        if is_error(sta):
            return sta.store.register
        return self._cached(self.compile_type_exp, tex)(sta)

    def exec_instruction(self, ins: n.Instruction, sta: State) -> State:
        return self._cached(self._step, ins)(owned(sta))

    def exec_preamble(self, pam, sta: State) -> State:
        return self._cached(self.compile_preamble, pam)(owned(sta))

    def run_program(self, prg: n.Program, sta: State) -> State:
        """The preamble, then the instruction, each entered through its
        public method, which copies the valuation."""
        if prg.pam is not None:
            sta = self.exec_preamble(prg.pam, sta)
        return self.exec_instruction(prg.ins, sta)

    # -- compilation ---------------------------------------------------------

    def compile_expression(self, exp: n.Node) -> Code:
        """The code of a data expression, over states, or of a transfer
        expression, over composites.  A shared operator has one arm."""
        sub, limits = self.compile_expression, self.limits
        match exp:
            case n.BoolLit(value) | n.TraBoolLit(value):
                return _constant(boo_composite(value))
            case n.NumLit(number) | n.TraNumLit(number):
                return _constant(_number(number, limits))
            case n.WordLit(text) | n.TraWordLit(text):
                return _constant(_sized(WordData(text), WORD, limits))
            case n.IdeExp(ide):

                def variable(sta):
                    val = lookup_variable(sta, ide)
                    if val is None:
                        return IDENTIFIER_NOT_DECLARED
                    if val.content is OMEGA:
                        return VARIABLE_NOT_INITIALIZED
                    return val.composite()

                return variable
            case n.AndExp(a, b) | n.TraAndExp(a, b):
                return _lazy(sub(a), sub(b), False, _not_boolean(exp))
            case n.OrExp(a, b) | n.TraOrExp(a, b):
                return _lazy(sub(a), sub(b), True, _not_boolean(exp))
            case n.NotExp(a) | n.TraNotExp(a):
                return _unary(sub(a), _negate, _not_boolean(exp))
            case n.LessExp(a, b) | n.TraLessExp(a, b):
                return _binary(sub(a), sub(b), _less, None)
            case n.AddExp(a, b) | n.TraAddExp(a, b):
                return _binary(sub(a), sub(b), _add, limits)
            case n.SubExp(a, b):
                return _binary(sub(a), sub(b), _sub, limits)
            case n.MulExp(a, b):
                return _binary(sub(a), sub(b), _mul, limits)
            case n.DivExp(a, b) | n.TraDivExp(a, b):
                return _binary(sub(a), sub(b), _divide, limits)
            case n.EqExp(a, b) | n.TraEqExp(a, b):
                return _binary(sub(a), sub(b), _equal, None)
            case n.GlueExp(a, b) | n.TraGlueExp(a, b):
                return _binary(sub(a), sub(b), _glue, limits)
            case n.ListExp(element):
                return _unary(sub(element), _list, limits)
            case n.PushExp(element, target):
                return _binary(sub(element), sub(target), _push, limits)
            case n.TopExp(a):
                return _unary(sub(a), _top, None)
            case n.PopExp(a):
                return _unary(sub(a), _pop, None)
            case n.ArrayExp(element):
                return _unary(sub(element), _array, limits)
            case n.AddToArrExp(target, element):
                return _binary(sub(target), sub(element), _add_to_array, limits)
            case n.ChangeArrExp(target, index, element):
                return _ternary(sub(target), sub(index), sub(element), _change_array, None)
            case n.ArrAtExp(target, index):
                return _binary(sub(target), sub(index), _array_at, None)
            case n.RecordExp(ide, expr):
                return _unary(sub(expr), _record, (ide, limits))
            case n.AddAttrExp(ide, expr, target):
                return _binary(sub(expr), sub(target), _add_attribute, (ide, limits))
            case n.RecAtExp(target, ide):
                return _unary(sub(target), _record_at, ide)
            case n.RemoveAttrExp(ide, target):
                return _unary(sub(target), _remove_attribute, ide)
            case n.ChangeRecExp(target, ide, expr):
                return _binary(sub(target), sub(expr), _change_record, ide)
            case n.CondExp(guard, then_branch, else_branch):
                return _conditional(sub(guard), sub(then_branch), sub(else_branch))
            case n.FunCallExp(ide, apar):
                evaluator = self._weak
                return lambda sta: evaluator.call_functional_procedure(ide, apar, sta)
            # transfer expressions only
            case n.ValueTra():
                return _value
            case n.TopTra():
                return _unary(_value, _top, None)
            case n.ArrayAtTra(index):
                return _array_first(_binary(_value, sub(index), _array_at, None))
            case n.RecordAtTra(ide):
                return _unary(_value, _record_at, ide)
            case n.SumExp(a):
                return _unary(sub(a), _sum, limits)
            case n.MaxExp(a):
                return _unary(sub(a), _max, limits)
            case n.SmallNumberExp(a):
                return _unary(sub(a), _small_number, self.small_number_bound)
            case n.IncreasingExp(a):
                return _unary(sub(a), _increasing, None)
            case n.AllListExp(a):
                return _all_elements(sub(a), ListBody, LIST_EXPECTED)
            case n.AllArrayExp(a):
                return _all_elements(sub(a), ArrayBody, ARRAY_EXPECTED)
        raise TypeError(f"not a data or transfer expression: {exp!r}")

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
            case n.SeqIns():
                return _block([step(item) for item in n.sequence_items(ins)])
            case n.AssignIns(ide, dae):
                return self.compile_assignment(ide, dae)
            case n.YokeIns(ide, tre):
                return _yoke(ide, self._transfer(tre))
            case n.CallIns(ide, ref_args, val_args):
                evaluator = self._weak
                return lambda sta: evaluator.call_imperative_procedure(
                    ide, ref_args, val_args, sta
                )
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
        return _block([self.compile_declaration(item) for item in n.sequence_items(pam)])

    def compile_declaration(self, dec) -> StateCode:
        """One preamble item: a declaration, a definition or skip."""
        match dec:
            case n.SkipIns():
                return _skip
            case n.VarDec(ide, tex):
                return _declare(ide, self.compile_type_exp(tex), lookup_variable, _bind_omega)
            case n.TypDef(ide, tex):
                return _declare(ide, self.compile_type_exp(tex), lookup_type, bind_type)
            case n.ImpProcDec() | n.FunProcDec():
                return _declare_procedures((dec,))
            case n.MultiProcDec(decs):
                return _declare_procedures(decs)
        raise TypeError(f"not a preamble item: {dec!r}")

    def compile_program(self, prg: n.Program) -> StateCode:
        """A procedure body: its preamble, then its instruction.  A whole
        program run by `run_program` enters both through the public methods."""
        body = self._step(prg.ins)
        if prg.pam is None:
            return body
        preamble = self.compile_preamble(prg.pam)
        return lambda sta: body(preamble(sta))

    # -- procedure calls ----------------------------------------------------

    def _formals(self, dec: Union[n.ImpProcDec, n.FunProcDec]) -> tuple[list[int], tuple]:
        """The lengths of a declaration's formal lists, the ref list before
        the val, and each formal's name and type code, in that order."""
        if isinstance(dec, n.FunProcDec):
            lists = (dec.params,)
        else:
            lists = (dec.ref_params, dec.val_params)
        codes = tuple((formal.ide, self.compile_type_exp(formal.tex)) for formal in chain(*lists))
        return list(map(len, lists)), codes

    def _enter(
        self, kind: type, ide: str, actuals: tuple[tuple[str, ...], ...], sta: State
    ) -> Union[tuple[n.Node, State], AbstractError]:
        """Stages 1 and 2 of a call from a clear state: the declaration, of
        class `kind`, and the local state its body runs on, or an error word.
        `actuals` has one list per formal list, the ref list before the val."""
        pro = lookup_procedure(sta, ide)
        if pro is None or not isinstance(pro.dec, kind):
            return PROCEDURE_NOT_DECLARED
        self.fuel.spend()
        dec = pro.dec
        lengths, formals = self._cached(self._formals, dec)
        if lengths != list(map(len, actuals)):
            return PARAMETER_LIST_MISMATCH
        # The declaration-time environment with the whole group nested back
        # in, so every member, the callee included, resolves recursively.
        procs = dict(pro.env.procs)
        for member in pro.group:
            procs[member.ide] = pro if member is dec else Procedure(member, pro.group, pro.env)
        valuation: dict[str, Value] = {}
        local = State(Env(pro.env.types, procs), Store(valuation, None))
        # The local valuation holds only the formals.  Formal types read
        # only the environment, so they evaluate on `local` as it fills.
        for (formal, type_code), actual in zip(formals, chain(*actuals)):
            actual_value = lookup_variable(sta, actual)
            if actual_value is None:
                return IDENTIFIER_NOT_DECLARED
            formal_type = type_code(local)
            if isinstance(formal_type, AbstractError):
                return formal_type
            if actual_value.content is OMEGA:
                valuation[formal] = _unchecked_value(OMEGA, formal_type, None)
            else:
                com = actual_value.composite()
                if not clan_ty_member(com, formal_type):
                    return PARAMETER_TYPE_MISMATCH
                valuation[formal] = _unchecked_value(com.dat, formal_type, com)
        return dec, local

    def call_imperative_procedure(
        self,
        ide: str,
        ref_args: tuple[str, ...],
        val_args: tuple[str, ...],
        sta: State,
    ) -> State:
        # An error-carrying initial global state is the terminal one.
        if is_error(sta):
            return sta
        entered = self._enter(n.ImpProcDec, ide, (ref_args, val_args), sta)
        if isinstance(entered, AbstractError):
            return load_error(sta, entered)
        dec, local = entered
        # Stage 3: run the body on the local state.
        terminal = self._cached(self.compile_program, dec.prg)(local)
        if is_error(terminal):
            return load_error(sta, terminal.store.register)
        # Stage 4: local environment is abandoned; reference parameters are
        # copied back onto their actuals, in the caller's valuation.
        valuation, local = sta.store.valuation, terminal.store.valuation
        for formal, actual in zip(dec.ref_params, ref_args):
            valuation[actual] = local[formal.ide]
        return sta

    def call_functional_procedure(
        self, ide: str, val_args: tuple[str, ...], sta: State
    ) -> EvalResult:
        if is_error(sta):
            return sta.store.register
        entered = self._enter(n.FunProcDec, ide, (val_args,), sta)
        if isinstance(entered, AbstractError):
            return entered
        dec, terminal = entered
        if dec.prg is not None:
            terminal = self._cached(self.compile_program, dec.prg)(terminal)
            if is_error(terminal):
                return terminal.store.register
        result = self._cached(self.compile_expression, dec.dae)(terminal)
        if isinstance(result, AbstractError):
            return result
        if dec.tex is not None:
            return_type = self._cached(self.compile_type_exp, dec.tex)(terminal)
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
    """Run a program from `sta`, by default the empty state.

    Every initialized value in `sta` must satisfy its own type: its datum
    pairs with its body and its transfer yields `true`.  The evaluator's
    binders guarantee this for every state it returns; a write that adds or
    changes one element under `all-list T` or `all-array T` relies on it.
    """
    evaluator = Evaluator(limits=limits, fuel=fuel, trace=trace)
    return evaluator.run_program(prg, sta if sta is not None else empty_state())


def run_source(
    text: str,
    sta: Optional[State] = None,
    fuel: Optional[int] = None,
    limits: Limits = Limits(),
) -> State:
    """Parse and run a program; `sta`, if given, must satisfy the
    precondition of `run_program`, and is left unchanged."""
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
