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
composites.  A node compiles by the rule one table keeps for its class:
`_EXPRESSION_RULES` for data and transfer expressions, `_TYPE_RULES`,
`_INSTRUCTION_RULES` and `_PREAMBLE_RULES`.  A rule builds the node's
closure in its own frame.  Each operator is one function over operand
composites, or types, shared by data and transfer expressions; `_unary`,
`_binary` and `_ternary` make its rule, which closes over the operand
closures and writes the ladder once: the operands left to right, the
first error the result, then the operator.  They make the rules of the
arithmetic, comparisons, equality and glue, `not`, the list, array and
record operators, the selections, `small-number`, `increasing` and the
list, array and record types.  Where a node fixes an identifier (a record
operator, `record-type`) or a transfer (`replace-transfer-in`), its row in
the rule table binds it as the operator's fixed operand.  Six rules keep
an order of their own and are written by hand: the lazy connectives
(`_lazy`) and `if` (`_conditional`) evaluate an operand only when the one
before decides it is needed; a transfer's array selection checks for an
array before it evaluates the index (`_array_at_transfer`);
`expand-record-type` checks its base record type before it evaluates the
addition (`_expanded_type`); `sum` and `max` keep their last result
(`_fold`); and an `add-to-arr` spine checks each element as it adds it
(`_add_to_array_spine`).  Literals, variable reads and calls have no
operand expressions, and `all-list` and `all-array` apply a transfer,
not an operator, to each element (`_all_elements`).
Literals are built, and size-checked, when they compile, and each read
of a variable is one closure per name: both are shared by every
occurrence in an entry point's compile.  Sequences compile to flat
blocks.
An expression's code runs on a state whose register is clear: the
register is tested once, where evaluation enters the expression, since
the state cannot change inside it.

Nontermination is bounded by a fuel budget, spent on loop iterations and
procedure calls; running out raises OutOfFuel, which is an outcome of the
run, not a language error, and never reaches an error register.  Depth is
bounded by `RECURSION_LIMIT`, the recursion limit every entry point runs
at whatever the caller's limit; running out raises RecursionError.

The procedure value, `Procedure`, is defined here beside the call protocol
that reads it; `state` only binds it.  It holds no code, so a body runs
under the fuel, limits and trace hook of the evaluator that calls it.
Both call sites compile to Python closures: a C-level callable such as a
`partial` would spend C stack on every Lingua call, so the C stack, not
the recursion limit, would bound depth.

Nine rules keep a step's Python calls to those that decide something:

- The register is tested inline (`sta.store.register is not None`), and a
  variable is read straight from the valuation, whose bound `Value.com` is
  the composite a read returns.
- Assignment, the element writes and `yoke` compile to one write closure,
  `_assign`, one ladder of checks, which builds the new `Value` in its own
  frame.  The verdict of `TT`, the transfer `true`, is `true` for every
  composite, so a write under it never applies it: its yoke error, shape
  and satisfaction steps are known to pass.
- Bodies are interned, so an equal body is the held body itself, and a
  write calls `coherent` only when the new body is not the held one.
- A call reads its formal lengths, formal type codes, body steps, result
  and return type codes from one entry (`_Call`), compiled at the first
  call in an entry point, and runs the steps in a loop of its own.  The
  entry holds code only.  The callee's environment is built once per
  declaration and declaration-time environment per entry point, and its
  calls share it, as no code writes an `Env`; the formal types, which
  read only that environment, are evaluated in it then, and so is the
  return type, which a call evaluates again only when its body has
  defined a type.  A call site
  holds its actuals as one tuple, the ref list before the val, and the
  lists' lengths, both built when it compiles.
- A parameter whose actual holds the formal's type object, not merely an
  equal one, is bound to that value as it is: a `Value` is certified
  against its own type.  `boolean`, `number` and `word` each denote one
  shared type object, so an actual declared with one of them passes so
  for a formal of that type.  A `ref` actual gets the formal's type back
  with the result, so from its second call on it passes unchecked too.
- Every literal compiles to a `_constant` closure, and all of them run
  one code object, so a rule reads a constant operand's value when it
  compiles.  A binary operator binds a constant right operand that is
  not an error into its closure, and a variable declared with a constant
  type is bound to one Ω value, built when the declaration compiles.
- A number result is built in as few frames as it can be: `Number.add`,
  `sub` and `mul` build it themselves unless its coefficient ends in 0,
  `_sized` builds its composite, and a comparison picks its Boolean
  composite inline.
- A `sum` or `max` keeps the items tuple it last folded and the result,
  one pair in one cell (`_fold`).  Data never change, so those very items
  fold to that result again, and it is returned without a walk.
- An `add-to-arr` spine, an `add-to-arr` with those nested as its array
  operand, as an array literal is, compiles to one closure: one loop over
  its elements, which appends to one list and builds one tuple at the end
  (`_add_to_array_spine`).  Neither its cost per element nor its frame
  depth grows with its length.
"""

from __future__ import annotations

import gc
import sys
import threading
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
    TRUE_COMPOSITE,
    TT,
    TYPE_NOT_DEFINED,
    VARIABLE_NOT_INITIALIZED,
    WORD,
    WORD_EXPECTED,
    YOKE_NOT_SATISFIED,
    AbstractError,
    ArrayBody,
    ArrayData,
    Composite,
    Data,
    LangType,
    Limits,
    ListBody,
    ListData,
    Number,
    RecordBody,
    RecordData,
    Transfer,
    Value,
    _new,
    _set_bod,
    _set_com,
    _set_content,
    _set_dat,
    _set_typ,
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
from .record import record
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

# The recursion limit every entry point sets while it compiles and runs.
# A Python call spends no C stack (Python 3.11 and later), so this limit,
# not the C stack, bounds a Lingua recursion: `cnt` of TestDeepRecursion
# runs 3,330 calls deep under it (tests/depth_reach.py).
RECURSION_LIMIT = 20_000


class _Host(metaclass=record, frozen=False):
    """How many entry points are running, in every thread, and the
    recursion limit and collector state the first of them found.
    `Evaluator._entered` changes it in place under `_HOST_LOCK`, so an
    entry rebinds no module name and frees no object the collector
    tracks."""

    running: int
    limit: int
    enabled: bool


_HOST = _Host(0, 0, False)
_HOST_LOCK = threading.Lock()


class OutOfFuel(Exception):
    """The step budget ran out; distinct from every abstract error."""


class Fuel(metaclass=record, frozen=False):
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
# compile rules; `x` is the state a data or type expression reads, or the
# composite a transfer is applied to.  A rule is called with the evaluator
# and then the node's fields, and builds the node's code in its own frame.

Rule = Callable[..., Code]

# A rule's `param` that stands for the compiling evaluator's limits
_LIMITS = object()


def _constant(result) -> Code:
    return lambda x: result


# Every `_constant` closure runs this one code object, so a rule that
# compiles tells a constant operand by its `__code__` (all code is Python
# functions) and reads its value from the closure's one cell.
_CONSTANT_CODE = _constant(None).__code__


def _value(com: Composite) -> EvalResult:
    """The transfer `value`, and the operand of the transfer selections."""
    return com


def _unary(op: Callable, param=None) -> Rule:
    """The rule of `op` over one operand: an error from the operand is the
    result; otherwise `op(com, param)`."""

    def rule(ev, a: Code) -> Code:
        fixed = ev.limits if param is _LIMITS else param

        def unary(x):
            com = a(x)
            if isinstance(com, AbstractError):
                return com
            return op(com, fixed)

        return unary

    return rule


def _binary(op: Callable, param=None) -> Rule:
    """The rule of `op` over two operands, evaluated left to right: the
    first error is the result; otherwise `op(left, right, param)`.  A
    constant right operand that is not an error is bound when the rule
    runs, and its code is never called."""

    def rule(ev, a: Code, b: Code) -> Code:
        fixed = ev.limits if param is _LIMITS else param
        right = b.__closure__[0].cell_contents if b.__code__ is _CONSTANT_CODE else None
        if right is not None and not isinstance(right, AbstractError):

            def binary_constant(x):
                left = a(x)
                if isinstance(left, AbstractError):
                    return left
                return op(left, right, fixed)

            return binary_constant

        def binary(x):
            left = a(x)
            if isinstance(left, AbstractError):
                return left
            right = b(x)
            if isinstance(right, AbstractError):
                return right
            return op(left, right, fixed)

        return binary

    return rule


def _ternary(op: Callable) -> Rule:
    """The rule of `op` over three operands, evaluated left to right: the
    first error is the result; otherwise `op(first, second, third)`."""

    def rule(ev, a: Code, b: Code, c: Code) -> Code:
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
            return op(first, second, third)

        return ternary

    return rule


def _with_element(op: Callable, at: int) -> Callable:
    """`op`, its result paired with its operand `at`: the element it adds
    to, or changes in, a collection."""

    def paired(*operands):
        com = op(*operands)
        if isinstance(com, AbstractError):
            return com
        return com, operands[at]

    return paired


def _lazy(short_on: bool, expected: AbstractError) -> Rule:
    """The rule of a McCarthy connective: a left operand equal to
    `short_on` decides alone; a non-Boolean operand yields `expected`."""

    def rule(ev, a: Code, b: Code) -> Code:
        def lazy(x):
            left = a(x)
            if isinstance(left, AbstractError):
                return left
            if left.bod is not BOOLEAN:
                return expected
            if left.dat == short_on:
                return left
            right = b(x)
            if isinstance(right, AbstractError):
                return right
            if right.bod is not BOOLEAN:
                return expected
            return right

        return lazy

    return rule


def _block(codes: list[C]) -> C:
    """Run compiled steps one after another."""
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
# compiles: the limits or an error word


def _sized(dat: Data, bod, limits: Limits) -> EvalResult:
    """A freshly computed result, or overflow when it exceeds the limits."""
    if oversized(dat, limits):
        return OVERFLOW
    com = _new(Composite)
    _set_dat(com, dat)
    _set_bod(com, bod)
    return com


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
    return TRUE_COMPOSITE if left.dat.lt(right.dat) else FALSE_COMPOSITE


def _equal(left: Composite, right: Composite, _) -> EvalResult:
    if left.bod is not right.bod:
        return FALSE_COMPOSITE
    return TRUE_COMPOSITE if _same_data(left.dat, right.dat) else FALSE_COMPOSITE


_NESTED = {ListData, ArrayData, RecordData}


def _same_data(left: Data, right: Data) -> bool:
    """`left == right` for data of one body, which have one shape, compared
    along an explicit stack, so any depth costs no Python frame per level;
    shared parts compare by `is`.  A certified collection is homogeneous,
    so one of truth values, numbers or words compares as one tuple."""
    if left.__class__ not in _NESTED:
        return left == right
    todo = [(left, right)]
    while todo:
        left, right = todo.pop()
        if left is right:
            continue
        if left.__class__ is RecordData:
            todo += zip([dat for _, dat in left.fields], [dat for _, dat in right.fields])
        elif left.__class__ not in _NESTED:
            if left != right:
                return False
        elif len(left.items) != len(right.items):
            return False
        elif left.items and left.items[0].__class__ in _NESTED:
            todo += zip(left.items, right.items)
        elif left.items != right.items:
            return False
    return True


def _glue(left: Composite, right: Composite, limits: Limits) -> EvalResult:
    if left.bod is not WORD or right.bod is not WORD:
        return WORD_EXPECTED
    return _sized(left.dat + right.dat, WORD, limits)


def _negate(com: Composite, expected: AbstractError) -> EvalResult:
    if com.bod is not BOOLEAN:
        return expected
    return FALSE_COMPOSITE if com.dat else TRUE_COMPOSITE


def _top(com: Composite, _=None) -> EvalResult:
    """`top`; with no second argument, the transfer `top`."""
    if not isinstance(com.bod, ListBody):
        return LIST_EXPECTED
    if not com.dat.items:
        return EMPTY_LIST
    return _unchecked_composite(com.dat.items[0], com.bod.element)


def _index(number: Number, length: int) -> Optional[int]:
    """The integer `number` when it lies in 1..length, else None."""
    exp = number.exp
    if exp < 0:
        return None
    i = number.coeff * 10**exp
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
    bod = com.bod.find(ide)
    if bod is None:
        return ATTRIBUTE_NOT_PRESENT
    return _unchecked_composite(com.dat.find(ide), bod)


def _numeral(ev, num: Number) -> Code:
    """A numeral: one constant per distinct number in an entry point's
    compile, size-checked once.  It is keyed by its fields, as a tuple
    hashes in C where a `Number` hashes in Python."""
    key = num.coeff, num.exp
    code = ev._literals.get(key)
    if code is None:
        code = ev._literals[key] = _constant(_sized(num, NUMBER, ev.limits))
    return code


def _word(ev, wor: str) -> Code:
    """A word literal, as `_numeral`; a `str` is its own key."""
    code = ev._literals.get(wor)
    if code is None:
        code = ev._literals[wor] = _constant(_sized(wor, WORD, ev.limits))
    return code


# -- data expressions only


def _list(com: Composite, limits: Limits) -> EvalResult:
    return _sized(_unchecked_list((com.dat,)), ListBody(com.bod), limits)


def _push(new: Composite, lst: Composite, limits: Limits) -> EvalResult:
    if not isinstance(lst.bod, ListBody):
        return LIST_EXPECTED
    if new.bod is not lst.bod.element:
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


def _not_addable(arr: Composite, new: Composite, added: int, limits: Limits) -> Optional[AbstractError]:
    """Why `new` cannot be the `added`-th element added to `arr`, or None:
    `array-expected`, then `no-coherence`, then `overflow` once the length
    passes the limit."""
    if not isinstance(arr.bod, ArrayBody):
        return ARRAY_EXPECTED
    if new.bod is not arr.bod.element:
        return NO_COHERENCE
    if len(arr.dat.items) + added > limits.max_collection_size:
        return OVERFLOW
    return None


def _add_to_array(arr: Composite, new: Composite, limits: Limits) -> EvalResult:
    error = _not_addable(arr, new, 1, limits)
    if error is not None:
        return error
    return _unchecked_composite(_unchecked_array((*arr.dat.items, new.dat)), arr.bod)


def _add_to_array_spine(ev, base: DataCode, elements: tuple[DataCode, ...]) -> DataCode:
    """The rule of an `add-to-arr` spine, `base` with `elements` added in
    source order: one loop, which checks each element as the nested
    `add-to-arr`s would, right after evaluating it, so the first error
    wins and no element past an overflow is evaluated.  One tuple is built,
    at the end."""
    limits = ev.limits

    def add_to_array(sta):
        arr = base(sta)
        if isinstance(arr, AbstractError):
            return arr
        added = []
        for element in elements:
            new = element(sta)
            if isinstance(new, AbstractError):
                return new
            error = _not_addable(arr, new, len(added) + 1, limits)
            if error is not None:
                return error
            added.append(new.dat)
        return _unchecked_composite(_unchecked_array((*arr.dat.items, *added)), arr.bod)

    return add_to_array


def _change_array(arr: Composite, idx: Composite, new: Composite) -> EvalResult:
    if not isinstance(arr.bod, ArrayBody):
        return ARRAY_EXPECTED
    if idx.bod is not NUMBER:
        return NUMBER_EXPECTED
    i = _index(idx.dat, len(arr.dat.items))
    if i is None:
        return INDEX_OUT_OF_RANGE
    if new.bod is not arr.bod.element:
        return NO_COHERENCE
    items = list(arr.dat.items)
    items[i - 1] = new.dat
    return _unchecked_composite(_unchecked_array(tuple(items)), arr.bod)


def _record(com: Composite, ide: str) -> EvalResult:
    """A record literal, unchecked: its one attribute is within every
    `max_collection_size`, as `Limits` requires it to be at least 1."""
    return _unchecked_composite(RecordData.of({ide: com.dat}), RecordBody.of({ide: com.bod}))


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


def _read(ev, ide: str) -> DataCode:
    """A read of the variable `ide`: one closure per name in an entry
    point's compile, which every read of that name shares."""
    code = ev._reads.get(ide)
    if code is None:

        def variable(sta):
            val = sta.store.valuation.get(ide)
            if val is None:
                return IDENTIFIER_NOT_DECLARED
            com = val.com
            if com is None:
                return VARIABLE_NOT_INITIALIZED
            return com

        code = ev._reads[ide] = variable
    return code


def _conditional(ev, guard: DataCode, then_code: DataCode, else_code: DataCode) -> DataCode:
    def conditional(sta):
        com = guard(sta)
        if isinstance(com, AbstractError):
            return com
        if com.bod is not BOOLEAN:
            return BOOLEAN_EXPECTED
        return (then_code if com.dat else else_code)(sta)

    return conditional


def _function_call(ev, ide: str, actuals: tuple[str, ...]) -> DataCode:
    """The call site `ide(actuals)`, its lengths counted once."""
    lengths = (len(actuals),)
    return lambda sta: ev.call_functional_procedure(ide, actuals, lengths, sta)


# -- transfer expressions only


def _array_at_transfer(ev, idx: TransferCode) -> TransferCode:
    """A transfer's array selection checks for an array before it evaluates
    the index; a data expression evaluates both operands first."""

    def array_at(com):
        if not isinstance(com.bod, ArrayBody):
            return ARRAY_EXPECTED
        i = idx(com)
        if isinstance(i, AbstractError):
            return i
        return _array_at(com, i, None)

    return array_at


def _numbers_in(com: Composite) -> Union[tuple[Number, ...], AbstractError]:
    """The numbers of a non-empty list or array of numbers."""
    if not (isinstance(com.bod, (ListBody, ArrayBody)) and com.bod.element is NUMBER):
        return ARRAY_EXPECTED
    if not com.dat.items:
        return EMPTY_LIST
    return com.dat.items


def _fold(fold: Callable[[tuple[Number, ...]], Number]) -> Rule:
    """The rule of `sum`/`max`: `fold` over the numbers of the operand.
    Data never change, so the code keeps the items tuple it last folded and
    the result, one pair in one cell, and returns that result again for
    those very items without folding them."""

    def rule(ev, a: Code) -> Code:
        limits, cached = ev.limits, (None, None)

        def folded(x):
            nonlocal cached
            com = a(x)
            if isinstance(com, AbstractError):
                return com
            items = _numbers_in(com)
            if isinstance(items, AbstractError):
                return items
            last = cached
            if items is last[0]:
                return last[1]
            result = _sized(fold(items), NUMBER, limits)
            cached = items, result
            return result

        return folded

    return rule


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


def _all_elements(body_cls: type, expected: AbstractError) -> Rule:
    """The rule of `all-list`/`all-array`: `inner` must hold of every
    element; every element is visited, so a later error still wins over an
    earlier false."""

    def rule(ev, inner: TransferCode) -> TransferCode:
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
                if not result.dat:
                    all_true = False
            return boo_composite(all_true)

        return all_elements

    return rule


# -- type expressions


def _collection_type(typ: LangType, body_cls: type) -> TypeResult:
    return LangType(body_cls(typ.bod), TT)


def _record_type(typ: LangType, ide: str) -> TypeResult:
    return LangType(RecordBody.of({ide: typ.bod}), TT)


def _expanded_type(ev, base: TypeCode, ide: str, addition: TypeCode) -> TypeCode:
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
# compiled; an operator both sorts share has one rule for both classes, and
# a node's identifier is bound as its operator's fixed operand

_BOOLEANS = {value: _constant(boo_composite(value)) for value in (False, True)}

_EXPRESSION_RULES: dict[type, Rule] = {
    cls: rule
    for classes, rule in {
        (n.BoolLit, n.TraBoolLit): lambda ev, value: _BOOLEANS[value],
        (n.NumLit, n.TraNumLit): _numeral,
        (n.WordLit, n.TraWordLit): _word,
        (n.IdeExp,): _read,
        (n.AndExp,): _lazy(False, BOOLEAN_EXPECTED),
        (n.TraAndExp,): _lazy(False, A_YOKE_EXPECTED),
        (n.OrExp,): _lazy(True, BOOLEAN_EXPECTED),
        (n.TraOrExp,): _lazy(True, A_YOKE_EXPECTED),
        (n.NotExp,): _unary(_negate, BOOLEAN_EXPECTED),
        (n.TraNotExp,): _unary(_negate, A_YOKE_EXPECTED),
        (n.LessExp, n.TraLessExp): _binary(_less),
        (n.AddExp, n.TraAddExp): _binary(_add, _LIMITS),
        (n.SubExp,): _binary(_sub, _LIMITS),
        (n.MulExp,): _binary(_mul, _LIMITS),
        (n.DivExp, n.TraDivExp): _binary(_divide, _LIMITS),
        (n.EqExp, n.TraEqExp): _binary(_equal),
        (n.GlueExp, n.TraGlueExp): _binary(_glue, _LIMITS),
        (n.ListExp,): _unary(_list, _LIMITS),
        (n.PushExp,): _binary(_push, _LIMITS),
        (n.TopExp,): _unary(_top),
        (n.PopExp,): _unary(_pop),
        (n.ArrayExp,): _unary(_array, _LIMITS),
        (n.AddToArrExp,): _add_to_array_spine,
        (n.ChangeArrExp,): _ternary(_change_array),
        (n.ArrAtExp,): _binary(_array_at),
        (n.RecordExp,): lambda ev, ide, a: _unary(_record, ide)(ev, a),
        (n.AddAttrExp,): lambda ev, ide, a, b: _binary(_add_attribute, (ide, ev.limits))(ev, a, b),
        (n.RecAtExp,): lambda ev, a, ide: _unary(_record_at, ide)(ev, a),
        (n.RemoveAttrExp,): lambda ev, ide, a: _unary(_remove_attribute, ide)(ev, a),
        (n.ChangeRecExp,): lambda ev, a, ide, b: _binary(_change_record, ide)(ev, a, b),
        (n.CondExp,): _conditional,
        (n.FunCallExp,): _function_call,
        # transfer expressions only
        (n.ValueTra,): lambda ev: _value,
        (n.TopTra,): lambda ev: _top,
        (n.ArrayAtTra,): _array_at_transfer,
        (n.RecordAtTra,): lambda ev, ide: lambda com: _record_at(com, ide),
        (n.SumExp,): _fold(Number.sum),
        (n.MaxExp,): _fold(Number.max),
        (n.SmallNumberExp,): _unary(_small_number),
        (n.IncreasingExp,): _unary(_increasing),
        (n.AllListExp,): _all_elements(ListBody, LIST_EXPECTED),
        (n.AllArrayExp,): _all_elements(ArrayBody, ARRAY_EXPECTED),
    }.items()
    for cls in classes
}

# `boolean`, `number` and `word` each compile to one code, which every
# compile shares, and so denote one type object: a value declared with one
# of them holds the very type a formal of that type denotes.
_BOOLEAN_TYPE, _NUMBER_TYPE, _WORD_TYPE = (
    _constant(LangType(bod, TT)) for bod in (BOOLEAN, NUMBER, WORD)
)

# the compile rule of every type expression class, called as an
# expression's is, with each type operand already compiled
_TYPE_RULES: dict[type, Rule] = {
    n.BooleanTyp: lambda ev: _BOOLEAN_TYPE,
    n.NumberTyp: lambda ev: _NUMBER_TYPE,
    n.WordTyp: lambda ev: _WORD_TYPE,
    n.IdeTyp: lambda ev, ide: lambda sta: lookup_type(sta, ide) or TYPE_NOT_DEFINED,
    n.ListTyp: _unary(_collection_type, ListBody),
    n.ArrayTyp: _unary(_collection_type, ArrayBody),
    n.RecordTyp: lambda ev, ide, inner: _unary(_record_type, ide)(ev, inner),
    n.ExpandRecordTyp: _expanded_type,
    n.ReplaceTransferTyp: lambda ev, base, tre: _unary(_replaced_transfer, ev._transfer(tre))(ev, base),
}

# The value of an element write, `ide := add-to-arr ide …`, `push … on ide`
# or `change-arr ide …`: the new collection paired with the new element.
_ELEMENT_WRITES: dict[type, Rule] = {
    n.AddToArrExp: _binary(_with_element(_add_to_array, 1), _LIMITS),
    n.PushExp: _binary(_with_element(_push, 0), _LIMITS),
    n.ChangeArrExp: _ternary(_with_element(_change_array, 2)),
}


# ---------------------------------------------------------------------------
# instructions and declarations


def _assign(
    ide: str,
    value: DataCode,
    single: Optional[Callable[[tuple], Data]] = None,
    yoke: Optional[Transfer] = None,
) -> StateCode:
    """Every write by one ladder: error state, declaredness, expression
    error, yoke error, coherence, yoke shape, yoke satisfaction, then rebind
    with the new composite.  Under TT the three yoke steps pass; an
    identical body is coherent.  `yoke ide := tre` runs it on the composite
    `ide` holds, with `yoke` in place of the held transfer.

    For an element write, `value` yields the new collection paired with the
    element it adds or changes, and `single` makes a collection of one
    datum.  Every `Value` satisfies its own transfer, so under `all-list T`
    or `all-array T` every old element satisfies T, and the verdict on the
    new collection is the verdict on the one element alone; any other yoke
    checks the whole value.
    """

    def assign(sta):
        if sta.store.register is not None:
            return sta
        val = sta.store.valuation.get(ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        new = value(sta)
        if isinstance(new, AbstractError):
            return load_error(sta, new)
        if single is not None:
            new, element = new
        typ = val.typ
        tra = typ.tra if yoke is None else yoke
        if tra is not TT:
            if single is not None and tra.elementwise:
                com = apply_transfer(tra, _unchecked_composite(single((element.dat,)), new.bod))
            else:
                com = apply_transfer(tra, new)
            if isinstance(com, AbstractError):
                return load_error(sta, com)
        if new.bod is not typ.bod:
            if not coherent(new.bod, typ.bod):
                return load_error(sta, NO_COHERENCE)
            typ = LangType(new.bod, tra)
        elif yoke is not None:
            typ = LangType(typ.bod, tra)
        if tra is not TT:
            if com.bod is not BOOLEAN:
                return load_error(sta, A_YOKE_EXPECTED)
            if not com.dat:
                return load_error(sta, YOKE_NOT_SATISFIED)
        val = _new(Value)
        _set_content(val, new.dat)
        _set_typ(val, typ)
        _set_com(val, new)
        return bind_variable(sta, ide, val)

    return assign


def _if(ev, guard: n.DatExp, then_branch: n.Instruction, else_branch: n.Instruction) -> StateCode:
    guard_code = ev.compile_expression(guard)
    then_code, else_code = ev.compile_instruction(then_branch), ev.compile_instruction(else_branch)

    def if_then_else(sta):
        if sta.store.register is not None:
            return sta
        com = guard_code(sta)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if com.bod is not BOOLEAN:
            return load_error(sta, BOOLEAN_EXPECTED)
        return (then_code if com.dat else else_code)(sta)

    return if_then_else


def _if_error(ev, guard: n.DatExp, handler: n.Instruction) -> StateCode:
    guard_code, handler_code = ev.compile_expression(guard), ev.compile_instruction(handler)

    def if_error(sta):
        err = sta.store.register
        if err is None:
            return sta
        # The handled word is evaluated with the register cleared;
        # otherwise transparency would poison the evaluation.
        cleared = clear_error(sta)
        com = guard_code(cleared)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if com.bod is not WORD:
            return load_error(sta, WORD_EXPECTED)
        if com.dat != err.word:
            return sta
        return handler_code(cleared)

    return if_error


def _while(ev, guard: n.DatExp, body: n.Instruction) -> StateCode:
    guard_code, body_code = ev.compile_expression(guard), ev.compile_instruction(body)
    fuel = ev.fuel

    def loop(sta):
        while True:
            if sta.store.register is not None:
                return sta
            com = guard_code(sta)
            if isinstance(com, AbstractError):
                return load_error(sta, com)
            if com.bod is not BOOLEAN:
                return load_error(sta, BOOLEAN_EXPECTED)
            if not com.dat:
                return sta
            fuel.spend()
            sta = body_code(sta)

    return loop


def _procedure_call(
    ev, ide: str, ref_args: tuple[str, ...], val_args: tuple[str, ...]
) -> StateCode:
    """The call site `call ide (ref ref_args val val_args)`, its actuals
    joined and its lengths counted once."""
    actuals, lengths = (*ref_args, *val_args), (len(ref_args), len(val_args))
    return lambda sta: ev.call_imperative_procedure(ide, actuals, lengths, sta)


# the compile rule of every instruction class, called with the evaluator and
# then the node's fields in order, none compiled
_INSTRUCTION_RULES: dict[type, Rule] = {
    n.SkipIns: lambda ev: _skip,
    n.SeqIns: lambda ev, items: _block([ev.compile_instruction(item) for item in items]),
    n.AssignIns: lambda ev, ide, dae: ev.compile_assignment(ide, dae),
    n.YokeIns: lambda ev, ide, tre: _assign(ide, _read(ev, ide), yoke=ev._transfer(tre)),
    n.CallIns: _procedure_call,
    n.IfIns: _if,
    n.IfErrorIns: _if_error,
    n.WhileIns: _while,
}


def _declare(ev, dec: Union[n.VarDec, n.TypDef]) -> StateCode:
    """A variable declaration, or else a type definition: `ide` must be
    free among the variables, or the types.  A variable of a constant type
    is bound to one Ω value, built here."""
    ide, variable = dec.ide, dec.__class__ is n.VarDec
    type_code, bind = ev.compile_type_exp(dec.tex), _bind_omega if variable else bind_type
    if variable and type_code.__code__ is _CONSTANT_CODE:
        omega = _unchecked_value(OMEGA, type_code.__closure__[0].cell_contents, None)

        def declare_constant(sta):
            if sta.store.register is not None:
                return sta
            if ide in sta.store.valuation:
                return load_error(sta, IDENTIFIER_NOT_FREE)
            return bind_variable(sta, ide, omega)

        return declare_constant

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


def _declare_procedures(ev, pam: Union[n.ImpProcDec, n.FunProcDec, n.MultiProcDec]) -> StateCode:
    """Procedures declared together, as one group, or one alone; names must
    be free and distinct."""
    decs = pam.decs if pam.__class__ is n.MultiProcDec else (pam,)
    names = [dec.ide for dec in decs]
    repeated = len(set(names)) != len(names)

    def declare(sta):
        if sta.store.register is not None:
            return sta
        if repeated or any(name in sta.env.procs for name in names):
            return load_error(sta, IDENTIFIER_NOT_FREE)
        out = sta
        for dec in decs:
            out = bind_procedure(out, dec.ide, Procedure(dec, decs, sta.env))
        return out

    return declare


def _preambles(ev, pam: Union[n.PreSeq, n.VarDecSeq, n.TypDefSeq]) -> StateCode:
    return _block([ev.compile_preamble(item) for item in pam.items])


# the compile rule of every preamble class, called with the evaluator and
# the node
_PREAMBLE_RULES: dict[type, Rule] = {
    cls: rule
    for classes, rule in {
        (n.PreSeq, n.VarDecSeq, n.TypDefSeq): _preambles,
        (n.SkipIns,): lambda ev, pam: _skip,
        (n.VarDec, n.TypDef): _declare,
        (n.ImpProcDec, n.FunProcDec, n.MultiProcDec): _declare_procedures,
    }.items()
    for cls in classes
}


# ---------------------------------------------------------------------------


class _Call(NamedTuple):
    """What a call of one procedure declaration runs, compiled by the
    evaluator at its first call in an entry point: the lengths of the
    formal lists, the ref list before the val; the formals' names and type
    codes, in that order; the ref formals' names; the body's steps, its
    preamble, then its instruction or each item of its `;` sequence (none
    for a function without a body); a function's result and its optional
    return type.  It holds code only: the environment is the callee's, and
    the types are evaluated in it (`_Callee`)."""

    lengths: tuple[int, ...]
    formals: tuple[str, ...]
    types: tuple[TypeCode, ...]
    refs: tuple[str, ...]
    steps: tuple[StateCode, ...]
    result: Optional[DataCode]
    return_type: Optional[TypeCode]


class Procedure(metaclass=record):
    """One value for both kinds of procedure, bound in `Env.procs`: its
    declaration, the group declared with it (a function, or a lone `proc`,
    is a group of one) and the declaration-time environment, without the
    group.  A call nests `group` back into `env`, so recursion works.  It
    holds no code: the evaluator running the call compiles `dec`."""

    dec: Union[n.ImpProcDec, n.FunProcDec]
    group: tuple[Union[n.ImpProcDec, n.FunProcDec], ...]
    env: Env


class _Callee(NamedTuple):
    """What the calls of one declaration in one declaration-time
    environment share in an entry point: the first procedure value called
    with them, kept so that their ids stay their own; the environment the
    body runs in, with its group nested back in; and, evaluated in that
    environment once, the formal types and the return type, if any."""

    pro: Procedure
    env: Env
    types: tuple[TypeResult, ...]
    return_type: Optional[TypeResult]


class Evaluator:
    """Compiles phrases and runs the compiled closures.

    The public `eval_*`, `exec_*` and `run_program` methods compile the
    node they are given, top-down and once, and then run it; each callee
    compiles at its first call in that run (`_Call`), so its steps spend
    this evaluator's fuel wherever it was declared.  Compiled code writes
    variables in place, so `exec_*` run it on a copy of the caller's
    valuation (`owned`) and leave the caller's state as it was, even when
    the run raises; expressions never write.  The `compile_*`
    methods build the closure of one node and its subtree; they read the
    limits, the fuel counter and the trace hook as they compile.  The trace
    hook is called before every executed instruction that is not a
    sequence.  Each entry point runs at the recursion limit
    `RECURSION_LIMIT` and puts the caller's back (`_entered`), so its
    reach is the same whatever limit it is called at.
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
        self._literals: dict[Union[tuple[int, int], str], Code] = {}
        self._reads: dict[str, DataCode] = {}
        self._calls: dict[int, tuple[n.Node, _Call]] = {}
        self._envs: dict[tuple[int, int], _Callee] = {}

    # -- entry points: compile, then run -----------------------------------

    def eval_data_exp(self, dae: n.DatExp, sta: State) -> EvalResult:
        if sta.store.register is not None:
            return sta.store.register
        return self._entered(lambda: self.compile_expression(dae)(sta))

    def eval_transfer_exp(self, tre: n.TraExp, sta: State) -> Union[Transfer, AbstractError]:
        if sta.store.register is not None:
            return sta.store.register
        return self._entered(lambda: self._transfer(tre))

    def eval_type_exp(self, tex: n.TypExp, sta: State) -> TypeResult:
        if sta.store.register is not None:
            return sta.store.register
        return self._entered(lambda: self.compile_type_exp(tex)(sta))

    def exec_instruction(self, ins: n.Instruction, sta: State) -> State:
        return self._entered(lambda: self.compile_instruction(ins)(owned(sta)))

    def exec_preamble(self, pam, sta: State) -> State:
        return self._entered(lambda: self.compile_preamble(pam)(owned(sta)))

    def run_program(self, prg: n.Program, sta: State) -> State:
        """The preamble, then the instruction, each entered through its
        public method, which copies the valuation."""
        if prg.pam is not None:
            sta = self.exec_preamble(prg.pam, sta)
        return self.exec_instruction(prg.ins, sta)

    # -- compilation ---------------------------------------------------------

    def _entered(self, run: Callable[[], C]) -> C:
        """`run()`, an entry point's compile and run, the collector paused,
        as neither leaves cyclic garbage, and the recursion limit set to
        `RECURSION_LIMIT`; then the evaluator's tables go, as recursive
        call sites hold this evaluator, also when `run` raises.  The limit
        and the collector switch belong to the interpreter, not the thread,
        so they hold while any entry point runs in any thread: the first
        entry saves the caller's and sets them, under `_HOST_LOCK`, and the
        last exit puts them back.  A caller's other threads run under them
        meanwhile."""
        with _HOST_LOCK:
            if not _HOST.running:
                _HOST.limit, _HOST.enabled = sys.getrecursionlimit(), gc.isenabled()
                sys.setrecursionlimit(RECURSION_LIMIT)
                gc.disable()
            _HOST.running += 1
        try:
            return run()
        finally:
            self._literals.clear()
            self._reads.clear()
            self._calls.clear()
            self._envs.clear()
            with _HOST_LOCK:
                _HOST.running -= 1
                if not _HOST.running:
                    sys.setrecursionlimit(_HOST.limit)
                    if _HOST.enabled:
                        gc.enable()

    def compile_expression(self, exp: n.Node) -> Code:
        """The code of a data expression, over states, or of a transfer
        expression, over composites: the rule of its class, called with the
        evaluator and its fields, each operand compiled first.

        The rule itself never recurses, so each level of nesting costs one
        Python frame, this one.  The operands compile in a plain loop, as a
        comprehension is a frame of its own on Python 3.11, and
        through `self.compile_expression`, so a subclass that wraps it sees
        every subexpression.  An `add-to-arr` spine is walked here, and its
        rule gets the code of its base and of each element in source
        order: the `add-to-arr`s nested in it are no levels of their own."""
        rule = _EXPRESSION_RULES.get(exp.__class__)
        if rule is None:
            raise TypeError(f"not a data or transfer expression: {exp!r}")
        if exp.__class__ is n.AddToArrExp:
            spine = []
            while exp.__class__ is n.AddToArrExp:
                spine.append(exp.dae2)
                exp = exp.dae1
            base, elements = self.compile_expression(exp), []
            for element in reversed(spine):
                elements.append(self.compile_expression(element))
            return rule(self, base, tuple(elements))
        operands = [self]
        for field in exp.__dict__.values():
            operands.append(self.compile_expression(field) if isinstance(field, n.Node) else field)
        return rule(*operands)

    def _transfer(self, tre: n.TraExp) -> Transfer:
        """The transfer a transfer expression denotes, its source printed once."""
        elementwise = isinstance(tre, (n.AllListExp, n.AllArrayExp))
        return Transfer(print_concrete(tre), self.compile_expression(tre), elementwise)

    def compile_type_exp(self, tex: n.TypExp) -> TypeCode:
        """The code of a type expression, as `compile_expression` compiles
        an expression: each type operand compiled first, here."""
        rule = _TYPE_RULES.get(tex.__class__)
        if rule is None:
            raise TypeError(f"not a type expression: {tex!r}")
        operands = [self]
        for field in tex.__dict__.values():
            operands.append(self.compile_type_exp(field) if isinstance(field, n.TypExp) else field)
        return rule(*operands)

    def compile_instruction(self, ins: n.Instruction) -> StateCode:
        """The code of an instruction: the rule of its class, called with
        the evaluator and its fields.  Unless it is a sequence, whose items
        report themselves, it reports the instruction to the trace hook
        before it runs."""
        rule = _INSTRUCTION_RULES.get(ins.__class__)
        if rule is None:
            raise TypeError(f"not an instruction: {ins!r}")
        code, trace = rule(self, *ins.__dict__.values()), self.trace
        if trace is None or ins.__class__ is n.SeqIns:
            return code

        def traced(sta):
            trace(ins)
            return code(sta)

        return traced

    def compile_assignment(self, ide: str, dae: n.DatExp) -> StateCode:
        """`ide := dae`, as `_assign`.  Whether `dae` adds or changes one
        element of the value `ide` holds is decided here, from the tree:
        `add-to-arr`, `push` and `change-arr` with `ide` itself as their
        collection pass `_assign` the maker of a one-datum collection."""
        sub, write = self.compile_expression, _ELEMENT_WRITES.get(dae.__class__)
        if write is not None:
            match dae:
                case n.AddToArrExp(n.IdeExp(held) as target, element) if held == ide:
                    return _assign(ide, write(self, sub(target), sub(element)), _unchecked_array)
                case n.PushExp(element, n.IdeExp(held) as target) if held == ide:
                    return _assign(ide, write(self, sub(element), sub(target)), _unchecked_list)
                case n.ChangeArrExp(n.IdeExp(held) as target, index, element) if held == ide:
                    operands = sub(target), sub(index), sub(element)
                    return _assign(ide, write(self, *operands), _unchecked_array)
        return _assign(ide, sub(dae))

    def compile_preamble(self, pam) -> StateCode:
        """A declaration, a definition, skip or a sequence of them: the rule
        of its class, called with the evaluator and the node."""
        rule = _PREAMBLE_RULES.get(pam.__class__)
        if rule is None:
            raise TypeError(f"not a preamble: {pam!r}")
        return rule(self, pam)

    # -- procedure calls ----------------------------------------------------

    def _compile_call(self, dec: Union[n.ImpProcDec, n.FunProcDec]) -> _Call:
        prg, steps = dec.prg, ()
        if prg is not None:
            ins = prg.ins
            items = ins.items if isinstance(ins, n.SeqIns) else (ins,)
            steps = tuple(map(self.compile_instruction, items))
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
        formals = tuple(chain(*lists))
        names = tuple(formal.ide for formal in formals)
        types = tuple(self.compile_type_exp(formal.tex) for formal in formals)
        return _Call(tuple(map(len, lists)), names, types, refs, steps, result, return_type)

    def _enter(
        self, kind: type, ide: str, actuals: tuple[str, ...], lengths: tuple[int, ...], sta: State
    ) -> Union[tuple[_Call, _Callee, State], AbstractError]:
        """Stages 1 and 2 of a call from a clear state: the compiled entry
        of the declaration, of class `kind`, the entry its calls share in
        their environment, and the local state its body runs on, or an
        error word.
        `actuals` is every actual, the ref list before the val, and
        `lengths` the length of each list."""
        pro = sta.env.procs.get(ide)
        if pro is None or not isinstance(pro.dec, kind):
            return PROCEDURE_NOT_DECLARED
        self.fuel.spend()
        dec = pro.dec
        # `dec` and `pro` are kept beside what is built from them, so their
        # ids, and that of `pro.env`, stay theirs.
        dec_id = id(dec)
        compiled = self._calls.get(dec_id)
        if compiled is None:
            compiled = self._calls[dec_id] = (dec, self._compile_call(dec))
        call = compiled[1]
        if call.lengths != lengths:
            return PARAMETER_LIST_MISMATCH
        # Keyed by declaration and environment, not by the value: a
        # group's members call each other through the values that each
        # built environment holds, new ones every time.
        key = dec_id, id(pro.env)
        callee = self._envs.get(key)
        if callee is None:
            # The declaration-time environment with the whole group nested
            # back in, so every member, the callee included, resolves
            # recursively.
            group, env = pro.group, pro.env
            procs = dict(env.procs)
            for member in group:
                procs[member.ide] = pro if member is dec else Procedure(member, group, env)
            env = Env(env.types, procs)
            # Type expressions read only the environment, so the formal
            # types and the return type are evaluated once, on a state
            # with no variables.
            bare = State(env, Store({}, None))
            types = tuple([code(bare) for code in call.types])
            return_type = None if call.return_type is None else call.return_type(bare)
            callee = self._envs[key] = _Callee(pro, env, types, return_type)
        valuation: dict[str, Value] = {}
        local = State(callee.env, Store(valuation, None))
        # The local valuation holds only the formals.  Each actual is looked
        # up before its formal's type is read, so an undeclared actual is
        # reported first.  An actual that holds the formal's type object
        # satisfies it, as every Value is certified against its own type;
        # an error word is no Value's type.
        caller = sta.store.valuation
        for formal, formal_type, actual in zip(call.formals, callee.types, actuals):
            actual_value = caller.get(actual)
            if actual_value is None:
                return IDENTIFIER_NOT_DECLARED
            if actual_value.typ is not formal_type:
                if isinstance(formal_type, AbstractError):
                    return formal_type
                com = actual_value.com
                if com is not None and not clan_ty_member(com, formal_type):
                    return PARAMETER_TYPE_MISMATCH
                actual_value = _unchecked_value(actual_value.content, formal_type, com)
            valuation[formal] = actual_value
        return call, callee, local

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
        call, _, terminal = entered
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
        call, callee, terminal = entered
        for step in call.steps:
            terminal = step(terminal)
        if terminal.store.register is not None:
            return terminal.store.register
        result = call.result(terminal)
        if isinstance(result, AbstractError):
            return result
        return_type = callee.return_type
        if return_type is not None:
            if terminal.env.types is not callee.env.types:
                # The body defined a type, which the return type may read.
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
