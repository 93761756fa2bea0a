"""The evaluator.

Expressions evaluate against a state and yield composites, transfers or
types; errors are values, never exceptions.  Instructions transform states
and write errors to the register, and every instruction except if-error
passes error-carrying states through untouched.  Operands evaluate left to
right and the first error wins, except that the Boolean connectives are
lazy: a deciding left operand suppresses the right one entirely.

Nontermination is bounded by a fuel budget, spent on loop iterations and
procedure calls; running out raises OutOfFuel, which is an outcome of the
run, not a language error, and never reaches an error register.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

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
    ArrayData,
    Composite,
    Data,
    LangType,
    Limits,
    ListBody,
    ListData,
    Number,
    NumberData,
    RecordBody,
    RecordData,
    Transfer,
    Value,
    WordData,
    _unchecked,
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
    FunctionalProc,
    ImperativeProc,
    State,
    Store,
    bind_procedure,
    bind_type,
    bind_variable,
    clear_error,
    empty_state,
    is_error,
    load_error,
    lookup_procedure,
    lookup_type,
    lookup_variable,
)

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


class Evaluator:
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

    # -- data expressions --------------------------------------------------

    def eval_data_exp(self, dae: n.DatExp, sta: State) -> EvalResult:
        if is_error(sta):
            return sta.store.register
        match dae:
            case n.BoolLit(value):
                return boo_composite(value)
            case n.NumLit(number):
                return self._sized(NumberData(number), NUMBER)
            case n.WordLit(text):
                return self._sized(WordData(text), WORD)
            case n.IdeExp(ide):
                val = lookup_variable(sta, ide)
                if val is None:
                    return IDENTIFIER_NOT_DECLARED
                if val.content is OMEGA:
                    return VARIABLE_NOT_INITIALIZED
                return val.composite()
            case n.AndExp(left, right):
                return self._lazy_bool(left, right, sta, short_on=False)
            case n.OrExp(left, right):
                return self._lazy_bool(left, right, sta, short_on=True)
            case n.NotExp(operand):
                com = self.eval_data_exp(operand, sta)
                if isinstance(com, AbstractError):
                    return com
                if com.bod != BOOLEAN:
                    return BOOLEAN_EXPECTED
                return boo_composite(not com.dat.value)
            case n.LessExp(a, b):
                return self._arith(a, b, sta, lambda x, y: boo_composite(x.lt(y)))
            case n.AddExp(a, b):
                return self._arith(a, b, sta, lambda x, y: self._number(x.add(y)))
            case n.SubExp(a, b):
                return self._arith(a, b, sta, lambda x, y: self._number(x.sub(y)))
            case n.MulExp(a, b):
                return self._arith(a, b, sta, lambda x, y: self._number(x.mul(y)))
            case n.DivExp(a, b):
                coms = self._operands(sta, a, b)
                if isinstance(coms, AbstractError):
                    return coms
                for com in coms:
                    if com.bod != NUMBER:
                        return NUMBER_EXPECTED
                x, y = coms[0].dat.value, coms[1].dat.value
                if y.is_zero():
                    return DIVISION_BY_ZERO
                quotient = x.divide(y)
                if quotient is None:
                    return OVERFLOW
                return self._number(quotient)
            case n.EqExp(a, b):
                coms = self._operands(sta, a, b)
                if isinstance(coms, AbstractError):
                    return coms
                if coms[0].bod != coms[1].bod:
                    return FALSE_COMPOSITE
                return boo_composite(coms[0].dat == coms[1].dat)
            case n.GlueExp(a, b):
                coms = self._operands(sta, a, b)
                if isinstance(coms, AbstractError):
                    return coms
                for com in coms:
                    if com.bod != WORD:
                        return WORD_EXPECTED
                return self._sized(WordData(coms[0].dat.text + coms[1].dat.text), WORD)
            case n.ListExp(element):
                com = self.eval_data_exp(element, sta)
                if isinstance(com, AbstractError):
                    return com
                return self._sized(_unchecked(ListData, items=(com.dat,)), ListBody(com.bod))
            case n.PushExp(element, target):
                coms = self._operands(sta, element, target)
                if isinstance(coms, AbstractError):
                    return coms
                new, lst = coms
                if not isinstance(lst.bod, ListBody):
                    return LIST_EXPECTED
                if new.bod != lst.bod.element:
                    return NO_COHERENCE
                return self._sized(
                    _unchecked(ListData, items=(new.dat, *lst.dat.items)), lst.bod
                )
            case n.TopExp(operand):
                com = self.eval_data_exp(operand, sta)
                if isinstance(com, AbstractError):
                    return com
                if not isinstance(com.bod, ListBody):
                    return LIST_EXPECTED
                if not com.dat.items:
                    return EMPTY_LIST
                return _unchecked(Composite, dat=com.dat.items[0], bod=com.bod.element)
            case n.PopExp(operand):
                com = self.eval_data_exp(operand, sta)
                if isinstance(com, AbstractError):
                    return com
                if not isinstance(com.bod, ListBody):
                    return LIST_EXPECTED
                if not com.dat.items:
                    return EMPTY_LIST
                rest = _unchecked(ListData, items=com.dat.items[1:])
                return _unchecked(Composite, dat=rest, bod=com.bod)
            case n.ArrayExp(element):
                com = self.eval_data_exp(element, sta)
                if isinstance(com, AbstractError):
                    return com
                return self._sized(_unchecked(ArrayData, items=(com.dat,)), ArrayBody(com.bod))
            case n.AddToArrExp(target, element):
                coms = self._operands(sta, target, element)
                if isinstance(coms, AbstractError):
                    return coms
                arr, new = coms
                if not isinstance(arr.bod, ArrayBody):
                    return ARRAY_EXPECTED
                if new.bod != arr.bod.element:
                    return NO_COHERENCE
                return self._sized(
                    _unchecked(ArrayData, items=(*arr.dat.items, new.dat)), arr.bod
                )
            case n.ChangeArrExp(target, index, element):
                coms = self._operands(sta, target, index, element)
                if isinstance(coms, AbstractError):
                    return coms
                arr, idx, new = coms
                if not isinstance(arr.bod, ArrayBody):
                    return ARRAY_EXPECTED
                if idx.bod != NUMBER:
                    return NUMBER_EXPECTED
                i = self._index(idx.dat.value, len(arr.dat.items))
                if i is None:
                    return INDEX_OUT_OF_RANGE
                if new.bod != arr.bod.element:
                    return NO_COHERENCE
                items = list(arr.dat.items)
                items[i - 1] = new.dat
                changed = _unchecked(ArrayData, items=tuple(items))
                return _unchecked(Composite, dat=changed, bod=arr.bod)
            case n.ArrAtExp(target, index):
                coms = self._operands(sta, target, index)
                if isinstance(coms, AbstractError):
                    return coms
                arr, idx = coms
                if not isinstance(arr.bod, ArrayBody):
                    return ARRAY_EXPECTED
                if idx.bod != NUMBER:
                    return NUMBER_EXPECTED
                i = self._index(idx.dat.value, len(arr.dat.items))
                if i is None:
                    return INDEX_OUT_OF_RANGE
                return _unchecked(Composite, dat=arr.dat.items[i - 1], bod=arr.bod.element)
            case n.RecordExp(ide, expr):
                com = self.eval_data_exp(expr, sta)
                if isinstance(com, AbstractError):
                    return com
                return self._sized(
                    RecordData.of({ide: com.dat}), RecordBody.of({ide: com.bod})
                )
            case n.AddAttrExp(ide, expr, target):
                coms = self._operands(sta, expr, target)
                if isinstance(coms, AbstractError):
                    return coms
                new, rec = coms
                if not isinstance(rec.bod, RecordBody):
                    return RECORD_EXPECTED
                if rec.bod.has(ide):
                    return ATTRIBUTE_ALREADY_PRESENT
                return self._sized(
                    RecordData.of({**rec.dat.attributes(), ide: new.dat}),
                    rec.bod.with_added(ide, new.bod),
                )
            case n.RecAtExp(target, ide):
                com = self.eval_data_exp(target, sta)
                if isinstance(com, AbstractError):
                    return com
                if not isinstance(com.bod, RecordBody):
                    return RECORD_EXPECTED
                if not com.bod.has(ide):
                    return ATTRIBUTE_NOT_PRESENT
                return _unchecked(Composite, dat=com.dat.get(ide), bod=com.bod.get(ide))
            case n.RemoveAttrExp(ide, target):
                com = self.eval_data_exp(target, sta)
                if isinstance(com, AbstractError):
                    return com
                if not isinstance(com.bod, RecordBody):
                    return RECORD_EXPECTED
                if not com.bod.has(ide):
                    return ATTRIBUTE_NOT_PRESENT
                remaining = com.dat.attributes()
                del remaining[ide]
                return _unchecked(
                    Composite,
                    dat=RecordData.of(remaining),
                    bod=com.bod.with_removed(ide),
                )
            case n.ChangeRecExp(target, ide, expr):
                coms = self._operands(sta, target, expr)
                if isinstance(coms, AbstractError):
                    return coms
                rec, new = coms
                if not isinstance(rec.bod, RecordBody):
                    return RECORD_EXPECTED
                if not rec.bod.has(ide):
                    return ATTRIBUTE_NOT_PRESENT
                return _unchecked(
                    Composite,
                    dat=RecordData.of({**rec.dat.attributes(), ide: new.dat}),
                    bod=RecordBody.of({**rec.bod.attributes(), ide: new.bod}),
                )
            case n.CondExp(guard, then_branch, else_branch):
                com = self.eval_data_exp(guard, sta)
                if isinstance(com, AbstractError):
                    return com
                if com.bod != BOOLEAN:
                    return BOOLEAN_EXPECTED
                branch = then_branch if com.dat.value else else_branch
                return self.eval_data_exp(branch, sta)
            case n.FunCallExp(ide, apar):
                return self.call_functional_procedure(ide, apar, sta)
        raise TypeError(f"not a data expression: {dae!r}")

    def _operands(self, sta: State, *daes: n.DatExp) -> Union[list[Composite], AbstractError]:
        """Left-to-right evaluation; the first error becomes the result."""
        coms = []
        for dae in daes:
            com = self.eval_data_exp(dae, sta)
            if isinstance(com, AbstractError):
                return com
            coms.append(com)
        return coms

    def _arith(
        self,
        a: n.DatExp,
        b: n.DatExp,
        sta: State,
        op: Callable[[Number, Number], EvalResult],
    ) -> EvalResult:
        coms = self._operands(sta, a, b)
        if isinstance(coms, AbstractError):
            return coms
        for com in coms:
            if com.bod != NUMBER:
                return NUMBER_EXPECTED
        return op(coms[0].dat.value, coms[1].dat.value)

    def _number(self, number: Number) -> EvalResult:
        return self._sized(NumberData(number), NUMBER)

    def _sized(self, dat: Data, bod) -> EvalResult:
        if oversized(dat, self.limits):
            return OVERFLOW
        return _unchecked(Composite, dat=dat, bod=bod)

    def _lazy_bool(
        self, left: n.DatExp, right: n.DatExp, sta: State, short_on: bool
    ) -> EvalResult:
        """McCarthy connectives: the left operand may decide alone."""
        com = self.eval_data_exp(left, sta)
        if isinstance(com, AbstractError):
            return com
        if com.bod != BOOLEAN:
            return BOOLEAN_EXPECTED
        if com.dat.value == short_on:
            return boo_composite(short_on)
        com = self.eval_data_exp(right, sta)
        if isinstance(com, AbstractError):
            return com
        if com.bod != BOOLEAN:
            return BOOLEAN_EXPECTED
        return com

    @staticmethod
    def _index(number: Number, length: int) -> Optional[int]:
        if not number.is_integer():
            return None
        i = number.to_int()
        if not 1 <= i <= length:
            return None
        return i

    # -- transfer expressions ----------------------------------------------

    def eval_transfer_exp(self, tre: n.TraExp, sta: State) -> Union[Transfer, AbstractError]:
        if is_error(sta):
            return sta.store.register
        return Transfer(print_concrete(tre), lambda com: self._apply_tra(tre, com))

    def _apply_tra(self, tre: n.TraExp, com: Composite) -> EvalResult:
        match tre:
            case n.TraNumLit(number):
                return self._number(number)
            case n.TraWordLit(text):
                return self._sized(WordData(text), WORD)
            case n.TraBoolLit(value):
                return boo_composite(value)
            case n.ValueTra():
                return com
            case n.TopTra():
                if not isinstance(com.bod, ListBody):
                    return LIST_EXPECTED
                if not com.dat.items:
                    return EMPTY_LIST
                return _unchecked(Composite, dat=com.dat.items[0], bod=com.bod.element)
            case n.ArrayAtTra(index_tre):
                if not isinstance(com.bod, ArrayBody):
                    return ARRAY_EXPECTED
                idx = self._apply_tra(index_tre, com)
                if isinstance(idx, AbstractError):
                    return idx
                if idx.bod != NUMBER:
                    return NUMBER_EXPECTED
                i = self._index(idx.dat.value, len(com.dat.items))
                if i is None:
                    return INDEX_OUT_OF_RANGE
                return _unchecked(Composite, dat=com.dat.items[i - 1], bod=com.bod.element)
            case n.RecordAtTra(ide):
                if not isinstance(com.bod, RecordBody):
                    return RECORD_EXPECTED
                if not com.bod.has(ide):
                    return ATTRIBUTE_NOT_PRESENT
                return _unchecked(Composite, dat=com.dat.get(ide), bod=com.bod.get(ide))
            case n.TraAddExp(t1, t2):
                return self._tra_arith(t1, t2, com, lambda x, y: self._number(x.add(y)))
            case n.TraDivExp(t1, t2):
                results = self._tra_operands(com, t1, t2)
                if isinstance(results, AbstractError):
                    return results
                for r in results:
                    if r.bod != NUMBER:
                        return NUMBER_EXPECTED
                x, y = results[0].dat.value, results[1].dat.value
                if y.is_zero():
                    return DIVISION_BY_ZERO
                quotient = x.divide(y)
                if quotient is None:
                    return OVERFLOW
                return self._number(quotient)
            case n.TraLessExp(t1, t2):
                return self._tra_arith(t1, t2, com, lambda x, y: boo_composite(x.lt(y)))
            case n.TraEqExp(t1, t2):
                results = self._tra_operands(com, t1, t2)
                if isinstance(results, AbstractError):
                    return results
                if results[0].bod != results[1].bod:
                    return FALSE_COMPOSITE
                return boo_composite(results[0].dat == results[1].dat)
            case n.TraGlueExp(t1, t2):
                results = self._tra_operands(com, t1, t2)
                if isinstance(results, AbstractError):
                    return results
                for r in results:
                    if r.bod != WORD:
                        return WORD_EXPECTED
                return self._sized(
                    WordData(results[0].dat.text + results[1].dat.text), WORD
                )
            case n.SumExp(inner):
                items = self._numeric_collection(inner, com)
                if isinstance(items, AbstractError):
                    return items
                total = Number.make(0)
                for number in items:
                    total = total.add(number)
                return self._number(total)
            case n.MaxExp(inner):
                items = self._numeric_collection(inner, com)
                if isinstance(items, AbstractError):
                    return items
                best = items[0]
                for number in items[1:]:
                    if best.lt(number):
                        best = number
                return self._number(best)
            case n.SmallNumberExp(inner):
                result = self._apply_tra(inner, com)
                if isinstance(result, AbstractError):
                    return result
                if result.bod != NUMBER:
                    return NUMBER_EXPECTED
                return boo_composite(result.dat.value.abs().lt(self.small_number_bound))
            case n.IncreasingExp(inner):
                result = self._apply_tra(inner, com)
                if isinstance(result, AbstractError):
                    return result
                if not isinstance(result.bod, ArrayBody):
                    return ARRAY_EXPECTED
                if result.bod.element != NUMBER:
                    return NUMBER_EXPECTED
                numbers = [item.value for item in result.dat.items]
                increasing = all(
                    numbers[i].lt(numbers[i + 1]) for i in range(len(numbers) - 1)
                )
                return boo_composite(increasing)
            case n.TraAndExp(t1, t2):
                return self._tra_lazy_bool(t1, t2, com, short_on=False)
            case n.TraOrExp(t1, t2):
                return self._tra_lazy_bool(t1, t2, com, short_on=True)
            case n.TraNotExp(inner):
                result = self._apply_tra(inner, com)
                if isinstance(result, AbstractError):
                    return result
                if not is_boo_composite(result):
                    return A_YOKE_EXPECTED
                return boo_composite(not result.dat.value)
            case n.AllListExp(inner):
                if not isinstance(com.bod, ListBody):
                    return LIST_EXPECTED
                return self._all_elements(inner, com.dat.items, com.bod.element)
            case n.AllArrayExp(inner):
                if not isinstance(com.bod, ArrayBody):
                    return ARRAY_EXPECTED
                return self._all_elements(inner, com.dat.items, com.bod.element)
        raise TypeError(f"not a transfer expression: {tre!r}")

    def _tra_operands(self, com: Composite, *tres: n.TraExp) -> Union[list[Composite], AbstractError]:
        results = []
        for tre in tres:
            result = self._apply_tra(tre, com)
            if isinstance(result, AbstractError):
                return result
            results.append(result)
        return results

    def _tra_arith(
        self,
        t1: n.TraExp,
        t2: n.TraExp,
        com: Composite,
        op: Callable[[Number, Number], EvalResult],
    ) -> EvalResult:
        results = self._tra_operands(com, t1, t2)
        if isinstance(results, AbstractError):
            return results
        for r in results:
            if r.bod != NUMBER:
                return NUMBER_EXPECTED
        return op(results[0].dat.value, results[1].dat.value)

    def _tra_lazy_bool(
        self, t1: n.TraExp, t2: n.TraExp, com: Composite, short_on: bool
    ) -> EvalResult:
        result = self._apply_tra(t1, com)
        if isinstance(result, AbstractError):
            return result
        if not is_boo_composite(result):
            return A_YOKE_EXPECTED
        if result.dat.value == short_on:
            return boo_composite(short_on)
        result = self._apply_tra(t2, com)
        if isinstance(result, AbstractError):
            return result
        if not is_boo_composite(result):
            return A_YOKE_EXPECTED
        return result

    def _numeric_collection(
        self, inner: n.TraExp, com: Composite
    ) -> Union[list[Number], AbstractError]:
        result = self._apply_tra(inner, com)
        if isinstance(result, AbstractError):
            return result
        if isinstance(result.bod, (ListBody, ArrayBody)) and result.bod.element == NUMBER:
            if not result.dat.items:
                return EMPTY_LIST
            return [item.value for item in result.dat.items]
        return ARRAY_EXPECTED

    def _all_elements(
        self, inner: n.TraExp, items: tuple[Data, ...], element_body
    ) -> EvalResult:
        all_true = True
        for item in items:
            result = self._apply_tra(inner, _unchecked(Composite, dat=item, bod=element_body))
            if isinstance(result, AbstractError):
                return result
            if not is_boo_composite(result):
                return A_YOKE_EXPECTED
            if not result.dat.value:
                all_true = False
        return boo_composite(all_true)

    # -- type expressions ----------------------------------------------------

    def eval_type_exp(self, tex: n.TypExp, sta: State) -> Union[LangType, AbstractError]:
        if is_error(sta):
            return sta.store.register
        match tex:
            case n.BooleanTyp():
                return LangType(BOOLEAN, TT)
            case n.NumberTyp():
                return LangType(NUMBER, TT)
            case n.WordTyp():
                return LangType(WORD, TT)
            case n.IdeTyp(ide):
                typ = lookup_type(sta, ide)
                if typ is None:
                    return TYPE_NOT_DEFINED
                return typ
            case n.ListTyp(inner):
                typ = self.eval_type_exp(inner, sta)
                if isinstance(typ, AbstractError):
                    return typ
                return LangType(ListBody(typ.bod), TT)
            case n.ArrayTyp(inner):
                typ = self.eval_type_exp(inner, sta)
                if isinstance(typ, AbstractError):
                    return typ
                return LangType(ArrayBody(typ.bod), TT)
            case n.RecordTyp(ide, inner):
                typ = self.eval_type_exp(inner, sta)
                if isinstance(typ, AbstractError):
                    return typ
                return LangType(RecordBody.of({ide: typ.bod}), TT)
            case n.ExpandRecordTyp(base, ide, addition):
                typ = self.eval_type_exp(base, sta)
                if isinstance(typ, AbstractError):
                    return typ
                if not isinstance(typ.bod, RecordBody):
                    return NOT_A_RECORD_TYPE
                if typ.bod.has(ide):
                    return ATTRIBUTE_ALREADY_PRESENT
                added = self.eval_type_exp(addition, sta)
                if isinstance(added, AbstractError):
                    return added
                return LangType(typ.bod.with_added(ide, added.bod), typ.tra)
            case n.ReplaceTransferTyp(base, tre):
                typ = self.eval_type_exp(base, sta)
                if isinstance(typ, AbstractError):
                    return typ
                tra = self.eval_transfer_exp(tre, sta)
                if isinstance(tra, AbstractError):
                    return tra
                return LangType(typ.bod, tra)
        raise TypeError(f"not a type expression: {tex!r}")

    # -- instructions ----------------------------------------------------------

    def exec_instruction(self, ins: n.Instruction, sta: State) -> State:
        if self.trace is not None:
            self.trace(ins)
        match ins:
            case n.SkipIns():
                return sta
            case n.SeqIns(first, second):
                return self.exec_instruction(second, self.exec_instruction(first, sta))
            case n.AssignIns(ide, dae):
                return self._exec_assign(ide, dae, sta)
            case n.YokeIns(ide, tre):
                return self._exec_yoke(ide, tre, sta)
            case n.CallIns(ide, ref_args, val_args):
                return self.call_imperative_procedure(ide, ref_args, val_args, sta)
            case n.IfIns(guard, then_branch, else_branch):
                if is_error(sta):
                    return sta
                com = self.eval_data_exp(guard, sta)
                if isinstance(com, AbstractError):
                    return load_error(sta, com)
                if com.bod != BOOLEAN:
                    return load_error(sta, BOOLEAN_EXPECTED)
                branch = then_branch if com.dat.value else else_branch
                return self.exec_instruction(branch, sta)
            case n.IfErrorIns(guard, handler):
                return self._exec_if_error(guard, handler, sta)
            case n.WhileIns(guard, body):
                while True:
                    if is_error(sta):
                        return sta
                    com = self.eval_data_exp(guard, sta)
                    if isinstance(com, AbstractError):
                        return load_error(sta, com)
                    if com.bod != BOOLEAN:
                        return load_error(sta, BOOLEAN_EXPECTED)
                    if not com.dat.value:
                        return sta
                    self.fuel.spend()
                    sta = self.exec_instruction(body, sta)
        raise TypeError(f"not an instruction: {ins!r}")

    def _exec_assign(self, ide: str, dae: n.DatExp, sta: State) -> State:
        # The nine-step ladder: error state, declaredness, expression error,
        # yoke error, coherence, yoke shape, yoke satisfaction, then rebind
        # with the new composite and the unchanged transfer.
        if is_error(sta):
            return sta
        val = lookup_variable(sta, ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        new = self.eval_data_exp(dae, sta)
        if isinstance(new, AbstractError):
            return load_error(sta, new)
        com = apply_transfer(val.typ.tra, new)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if not coherent(new.bod, val.typ.bod):
            return load_error(sta, NO_COHERENCE)
        if not is_boo_composite(com):
            return load_error(sta, A_YOKE_EXPECTED)
        if com == FALSE_COMPOSITE:
            return load_error(sta, YOKE_NOT_SATISFIED)
        return bind_variable(sta, ide, Value(new.dat, LangType(new.bod, val.typ.tra), new))

    def _exec_yoke(self, ide: str, tre: n.TraExp, sta: State) -> State:
        # Symmetric to assignment: the old composite is kept, the transfer
        # is replaced, and the new transfer must accept the old composite.
        if is_error(sta):
            return sta
        val = lookup_variable(sta, ide)
        if val is None:
            return load_error(sta, IDENTIFIER_NOT_DECLARED)
        tra = self.eval_transfer_exp(tre, sta)
        if val.content is OMEGA:
            return load_error(sta, VARIABLE_NOT_INITIALIZED)
        old = val.composite()
        com = apply_transfer(tra, old)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if not is_boo_composite(com):
            return load_error(sta, A_YOKE_EXPECTED)
        if com == FALSE_COMPOSITE:
            return load_error(sta, YOKE_NOT_SATISFIED)
        return bind_variable(sta, ide, Value(val.content, LangType(val.typ.bod, tra), old))

    def _exec_if_error(self, guard: n.DatExp, handler: n.Instruction, sta: State) -> State:
        if not is_error(sta):
            return sta
        # The handled word is evaluated with the register cleared; otherwise
        # transparency would poison the evaluation.
        cleared = clear_error(sta)
        com = self.eval_data_exp(guard, cleared)
        if isinstance(com, AbstractError):
            return load_error(sta, com)
        if com.bod != WORD:
            return load_error(sta, WORD_EXPECTED)
        if com.dat.text != sta.store.register.word:
            return sta
        return self.exec_instruction(handler, cleared)

    # -- declarations and definitions -----------------------------------------

    def exec_variable_declaration(self, vde, sta: State) -> State:
        match vde:
            case n.VarDec(ide, tex):
                if is_error(sta):
                    return sta
                if lookup_variable(sta, ide) is not None:
                    return load_error(sta, IDENTIFIER_NOT_FREE)
                typ = self.eval_type_exp(tex, sta)
                if isinstance(typ, AbstractError):
                    return load_error(sta, typ)
                return bind_variable(sta, ide, Value(OMEGA, typ))
            case n.VarDecSeq(first, second):
                return self.exec_variable_declaration(
                    second, self.exec_variable_declaration(first, sta)
                )
        raise TypeError(f"not a variable declaration: {vde!r}")

    def exec_type_definition(self, tde, sta: State) -> State:
        match tde:
            case n.TypDef(ide, tex):
                if is_error(sta):
                    return sta
                if lookup_type(sta, ide) is not None:
                    return load_error(sta, IDENTIFIER_NOT_FREE)
                typ = self.eval_type_exp(tex, sta)
                if isinstance(typ, AbstractError):
                    return load_error(sta, typ)
                return bind_type(sta, ide, typ)
            case n.TypDefSeq(first, second):
                return self.exec_type_definition(
                    second, self.exec_type_definition(first, sta)
                )
        raise TypeError(f"not a type definition: {tde!r}")

    def declare_procedures(self, dec, sta: State) -> State:
        if is_error(sta):
            return sta
        match dec:
            case n.ImpProcDec(ide):
                if lookup_procedure(sta, ide) is not None:
                    return load_error(sta, IDENTIFIER_NOT_FREE)
                return bind_procedure(
                    sta, ide, ImperativeProc(ide, dec, (dec,), sta.env)
                )
            case n.MultiProcDec(decs):
                names = [d.ide for d in decs]
                if len(set(names)) != len(names):
                    return load_error(sta, IDENTIFIER_NOT_FREE)
                if any(lookup_procedure(sta, name) is not None for name in names):
                    return load_error(sta, IDENTIFIER_NOT_FREE)
                out = sta
                for d in decs:
                    out = bind_procedure(
                        out, d.ide, ImperativeProc(d.ide, d, decs, sta.env)
                    )
                return out
            case n.FunProcDec(ide):
                if lookup_procedure(sta, ide) is not None:
                    return load_error(sta, IDENTIFIER_NOT_FREE)
                return bind_procedure(sta, ide, FunctionalProc(ide, dec, sta.env))
        raise TypeError(f"not a procedure declaration: {dec!r}")

    def exec_preamble(self, pam, sta: State) -> State:
        match pam:
            case n.PreSeq(first, second):
                return self.exec_preamble(second, self.exec_preamble(first, sta))
            case n.SkipIns():
                return sta
            case n.VarDec() | n.VarDecSeq():
                return self.exec_variable_declaration(pam, sta)
            case n.TypDef() | n.TypDefSeq():
                return self.exec_type_definition(pam, sta)
            case n.ImpProcDec() | n.MultiProcDec() | n.FunProcDec():
                return self.declare_procedures(pam, sta)
        raise TypeError(f"not a preamble item: {pam!r}")

    # -- procedure calls ----------------------------------------------------

    def _nest_group(self, pro: ImperativeProc) -> Env:
        """Declaration-time environment with the whole group nested back in,
        so every member (including the callee itself) resolves recursively."""
        procs = dict(pro.env.procs)
        for dec in pro.group:
            procs[dec.ide] = ImperativeProc(dec.ide, dec, pro.group, pro.env)
        return Env(pro.env.types, procs)

    def _bind_parameters(
        self,
        formals: tuple[n.FormalParam, ...],
        actuals: tuple[str, ...],
        sta: State,
        type_state: State,
        valuation: dict[str, Value],
    ) -> Optional[AbstractError]:
        for formal, actual in zip(formals, actuals):
            actual_value = lookup_variable(sta, actual)
            if actual_value is None:
                return IDENTIFIER_NOT_DECLARED
            formal_type = self.eval_type_exp(formal.tex, type_state)
            if isinstance(formal_type, AbstractError):
                return formal_type
            if actual_value.content is OMEGA:
                valuation[formal.ide] = Value(OMEGA, formal_type)
            else:
                com = actual_value.composite()
                if not clan_ty_member(com, formal_type):
                    return PARAMETER_TYPE_MISMATCH
                valuation[formal.ide] = Value(com.dat, formal_type, com)
        return None

    def call_imperative_procedure(
        self,
        ide: str,
        ref_args: tuple[str, ...],
        val_args: tuple[str, ...],
        sta: State,
    ) -> State:
        # Stage 1: an error-carrying initial global state is the terminal one.
        if is_error(sta):
            return sta
        pro = lookup_procedure(sta, ide)
        if not isinstance(pro, ImperativeProc):
            return load_error(sta, PROCEDURE_NOT_DECLARED)
        self.fuel.spend()
        dec = pro.dec
        if len(ref_args) != len(dec.ref_params) or len(val_args) != len(dec.val_params):
            return load_error(sta, PARAMETER_LIST_MISMATCH)
        # Stage 2: local environment from declaration time, local valuation
        # holding only the formal parameters.
        local_env = self._nest_group(pro)
        type_state = State(local_env, Store({}, None))
        valuation: dict[str, Value] = {}
        failure = self._bind_parameters(dec.ref_params, ref_args, sta, type_state, valuation)
        if failure is None:
            failure = self._bind_parameters(dec.val_params, val_args, sta, type_state, valuation)
        if failure is not None:
            return load_error(sta, failure)
        # Stage 3: run the body on the local state.
        terminal = self.run_program(dec.prg, State(local_env, Store(valuation, None)))
        if is_error(terminal):
            return load_error(sta, terminal.store.register)
        # Stage 4: local environment is abandoned; reference parameters are
        # copied back onto their actuals.
        new_valuation = dict(sta.store.valuation)
        for formal, actual in zip(dec.ref_params, ref_args):
            new_valuation[actual] = terminal.store.valuation[formal.ide]
        return State(sta.env, Store(new_valuation, None))

    def call_functional_procedure(
        self, ide: str, val_args: tuple[str, ...], sta: State
    ) -> EvalResult:
        if is_error(sta):
            return sta.store.register
        pro = lookup_procedure(sta, ide)
        if not isinstance(pro, FunctionalProc):
            return PROCEDURE_NOT_DECLARED
        self.fuel.spend()
        dec = pro.dec
        if len(val_args) != len(dec.params):
            return PARAMETER_LIST_MISMATCH
        local_env = Env(pro.env.types, {**pro.env.procs, pro.name: pro})
        type_state = State(local_env, Store({}, None))
        valuation: dict[str, Value] = {}
        failure = self._bind_parameters(dec.params, val_args, sta, type_state, valuation)
        if failure is not None:
            return failure
        local = State(local_env, Store(valuation, None))
        terminal = self.run_program(dec.prg, local) if dec.prg is not None else local
        if is_error(terminal):
            return terminal.store.register
        result = self.eval_data_exp(dec.dae, terminal)
        if isinstance(result, AbstractError):
            return result
        if dec.tex is not None:
            return_type = self.eval_type_exp(dec.tex, terminal)
            if isinstance(return_type, AbstractError):
                return return_type
            if not clan_ty_member(result, return_type):
                return RETURN_TYPE_MISMATCH
        return result

    # -- programs ----------------------------------------------------------

    def run_program(self, prg: n.Program, sta: State) -> State:
        if prg.pam is not None:
            sta = self.exec_preamble(prg.pam, sta)
        return self.exec_instruction(prg.ins, sta)


# ---------------------------------------------------------------------------
# convenience wrappers


def run_program(
    prg: n.Program,
    sta: Optional[State] = None,
    fuel: Optional[int] = None,
    limits: Limits = Limits(),
    trace: Optional[Callable[[n.Instruction], None]] = None,
) -> State:
    evaluator = Evaluator(limits=limits, fuel=fuel, trace=trace)
    return evaluator.run_program(prg, sta if sta is not None else empty_state())


def run_source(
    text: str,
    sta: Optional[State] = None,
    fuel: Optional[int] = None,
    limits: Limits = Limits(),
) -> State:
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
