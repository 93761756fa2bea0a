"""Compilation: the rule tables, the call sites, shared literals and
variable reads, and the paused collector."""

import gc
import sys
import types
import weakref
from itertools import pairwise

import pytest

from lingua import nodes as n
from lingua import semantics
from lingua.kernel import NUMBER, OVERFLOW, Composite, Limits, num
from lingua.parser import (
    parse_data_expression,
    parse_instruction,
    parse_program,
    parse_transfer_expression,
    parse_type_expression,
)
from lingua.printer import print_concrete
from lingua.semantics import (
    _EXPRESSION_RULES,
    _INSTRUCTION_RULES,
    _PREAMBLE_RULES,
    _TYPE_RULES,
    Evaluator,
    OutOfFuel,
    eval_source_expression,
    run_program,
    run_source,
)
from lingua.state import empty_state, register_word

from util import number_var

LOOP = "begin-program while true do skip od end-program"
SPIN = (
    "begin-program fun f (n as number) begin-program while true do skip od end-program "
    "return n as number end fun ; skip end-program"
)
SMALL = Limits(max_significant_digits=3)


class TestRuleTable:
    def test_keys_are_the_expression_classes(self):
        expressions = {
            cls
            for cls in vars(n).values()
            if isinstance(cls, type)
            and issubclass(cls, (n.DatExp, n.TraExp))
            and cls not in (n.DatExp, n.TraExp)
        }
        assert set(_EXPRESSION_RULES) == expressions

    @pytest.mark.parametrize(
        "rules, sorts",
        [
            (_INSTRUCTION_RULES, (n.Instruction,)),
            (_PREAMBLE_RULES, (n.Declaration, n.SkipIns, n.PreSeq)),
            (_TYPE_RULES, (n.TypExp,)),
        ],
        ids=["instruction", "preamble", "type"],
    )
    def test_keys_are_the_classes_of_each_sort(self, rules, sorts):
        classes = {
            cls
            for cls in vars(n).values()
            if isinstance(cls, type)
            and issubclass(cls, sorts)
            and cls not in (n.Instruction, n.Declaration, n.TypExp)
        }
        assert set(rules) == classes

    def test_a_type_node_is_not_an_expression(self):
        tex = parse_type_expression("number")
        with pytest.raises(TypeError, match=r"^not a data or transfer expression: NumberTyp\(\)$"):
            Evaluator().compile_expression(tex)

    @pytest.mark.parametrize(
        "compile_node, node, message",
        [
            (Evaluator.compile_type_exp, n.SkipIns(), "not a type expression: SkipIns()"),
            (Evaluator.compile_instruction, n.NumberTyp(), "not an instruction: NumberTyp()"),
            (Evaluator.compile_preamble, n.NumberTyp(), "not a preamble: NumberTyp()"),
        ],
        ids=["type", "instruction", "preamble"],
    )
    def test_a_node_of_another_sort_is_rejected(self, compile_node, node, message):
        with pytest.raises(TypeError) as exc:
            compile_node(Evaluator(), node)
        assert str(exc.value) == message


class TestCallSites:
    @pytest.mark.parametrize(
        "compile_call_site",
        [
            lambda ev: ev.compile_expression(parse_data_expression("f(x)")),
            lambda ev: ev.compile_instruction(parse_instruction("call p (ref x val empty-ap)")),
        ],
        ids=["function", "procedure"],
    )
    def test_a_call_site_is_a_python_function(self, compile_call_site):
        # A C-level callable, such as a `functools.partial`, would spend C
        # stack on every Lingua call, so deep recursion would crash the host.
        assert type(compile_call_site(Evaluator())) is types.FunctionType

    @pytest.mark.parametrize(
        "body, frames",
        [
            ("if (k < 1) then r := 0 else m := (k - 1) ; r := (1 + f(m)) fi", 6),
            ("m := (k - 1) ; if (k < 1) then r := 0 else r := (k + f(m)) fi", 5),
        ],
        ids=["cnt", "tri"],
    )
    def test_python_frames_per_lingua_call(self, body, frames):
        """Between two calls of a recursive function run the call method,
        the closures of the body instruction that holds the call, and the
        call site.  `cnt`'s body is one `if` with a `;` branch; `tri`'s is
        a `;` sequence, whose items the call method runs itself."""
        depths = []

        class Counting(Evaluator):
            def call_functional_procedure(self, *args):
                frame, depth = sys._getframe(), 0
                while frame is not None:
                    frame, depth = frame.f_back, depth + 1
                depths.append(depth)
                return super().call_functional_procedure(*args)

        prg = parse_program(
            "begin-program fun f (k as number) begin-program let m be number tel ; "
            f"let r be number tel ; {body} end-program return r as number end fun ; "
            "let x be number tel ; x := 4 ; x := f(x) end-program"
        )
        sta = Counting().run_program(prg, empty_state())
        assert register_word(sta) == "OK"
        # Each entry is one frame deeper for the override itself.
        assert [deeper - depth - 1 for depth, deeper in pairwise(depths)] == [frames] * 4

    def test_the_trace_sees_each_body_instruction_on_every_call(self):
        traced = []
        prg = parse_program(
            "begin-program proc p (val n as number ref r as number) begin-program "
            "let m be number tel ; m := (n + 1) ; r := (m + 1) end-program end proc ; "
            "let x be number tel ; let y be number tel ; "
            "x := 1 ; call p (ref y val x) ; call p (ref x val y) end-program"
        )
        sta = Evaluator(trace=traced.append).run_program(prg, empty_state())
        assert sta.store.valuation["x"].com == Composite(num(5), NUMBER)
        body = ["m := (n + 1)", "r := (m + 1)"]
        assert [print_concrete(ins) for ins in traced] == [
            "x := 1",
            "call p (ref y val x)",
            *body,
            "call p (ref x val y)",
            *body,
        ]


def entry_points():
    """Every library entry point, each returning normally."""
    sta = number_var(empty_state(), "x", num(1))
    prg = parse_program("begin-program let y be number tel ; y := (x + 2) end-program")
    dae, tre = parse_data_expression("(x + 1)"), parse_transfer_expression("(value < 3)")
    tex, ins = parse_type_expression("list-type number ee"), parse_instruction("x := 5")
    calls = {
        "eval_data_exp": lambda: Evaluator().eval_data_exp(dae, sta),
        "eval_transfer_exp": lambda: Evaluator().eval_transfer_exp(tre, sta),
        "eval_type_exp": lambda: Evaluator().eval_type_exp(tex, sta),
        "exec_instruction": lambda: Evaluator().exec_instruction(ins, sta),
        "exec_preamble": lambda: Evaluator().exec_preamble(prg.pam, sta),
        "Evaluator.run_program": lambda: Evaluator().run_program(prg, sta),
        "run_program": lambda: run_program(prg, sta),
        "run_source": lambda: run_source("begin-program x := 2 end-program", sta),
        "eval_source_expression": lambda: eval_source_expression("(x + 1)", sta),
    }
    return [pytest.param(call, id=name) for name, call in calls.items()]


def running_out():
    """Every library entry point that runs out of fuel: a loop, or a call
    of a function whose body loops.  The calling evaluator compiles the
    function's body, so its loop spends the caller's fuel."""
    loop, prg = parse_instruction("while true do skip od"), parse_program(LOOP)
    call, sta = parse_data_expression("f(x)"), empty_state()

    def spinning():
        return number_var(run_source(SPIN, fuel=3), "x", num(1))

    calls = {
        "exec_instruction": lambda: Evaluator(fuel=3).exec_instruction(loop, sta),
        "Evaluator.run_program": lambda: Evaluator(fuel=3).run_program(prg, sta),
        "run_program": lambda: run_program(prg, fuel=3),
        "run_source": lambda: run_source(LOOP, fuel=3),
        "eval_data_exp": lambda: Evaluator(fuel=3).eval_data_exp(call, spinning()),
        "eval_source_expression": lambda: eval_source_expression("f(x)", spinning(), fuel=3),
    }
    return [pytest.param(call, id=name) for name, call in calls.items()]


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """The collector switched on or off for the test, and put back after."""
    enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if enabled else gc.disable)()


def assert_left_as_found(enabled, frozen):
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


class TestCollectorLeftAsFound:
    @pytest.mark.parametrize("call", entry_points())
    def test_normal_return(self, collector, call):
        frozen = gc.get_freeze_count()
        call()
        assert_left_as_found(collector, frozen)

    @pytest.mark.parametrize("call", running_out())
    def test_out_of_fuel(self, collector, call):
        frozen = gc.get_freeze_count()
        with pytest.raises(OutOfFuel):
            call()
        assert_left_as_found(collector, frozen)

    def test_compile_raises(self, collector):
        frozen = gc.get_freeze_count()
        with pytest.raises(TypeError):
            Evaluator().eval_data_exp(parse_type_expression("number"), empty_state())
        assert_left_as_found(collector, frozen)

    def test_the_collector_is_paused_while_compiling(self, collector):
        seen = []

        class Watching(Evaluator):
            def compile_expression(self, exp):
                seen.append(gc.isenabled())
                return super().compile_expression(exp)

        Watching().eval_data_exp(parse_data_expression("(1 + 2)"), empty_state())
        assert seen == [False, False, False]
        assert gc.isenabled() is collector


class Recording(Evaluator):
    """Keeps a weak reference to the code of every numeral it compiles."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.numerals = []

    def compile_expression(self, exp):
        code = super().compile_expression(exp)
        if isinstance(exp, (n.NumLit, n.TraNumLit)):
            self.numerals.append(weakref.ref(code))
        return code


class TestSharedLiterals:
    def test_equal_numerals_share_one_composite(self):
        sta = run_source(
            "begin-program let x be number tel ; let y be number tel ; "
            "x := 7 ; y := (7 + 0) ; y := 7 end-program"
        )
        valuation = sta.store.valuation
        assert valuation["x"].com == Composite(num(7), NUMBER)
        assert valuation["x"].com is valuation["y"].com

    def test_one_size_check_per_distinct_literal(self, monkeypatch):
        """Literals are size-checked through `semantics.oversized`, the name
        the tracer counts, once per distinct literal in a compile."""
        checked = []

        def counting(dat, limits):
            checked.append(dat)
            return oversized(dat, limits)

        oversized = semantics.oversized
        monkeypatch.setattr(semantics, "oversized", counting)
        ins = parse_instruction("x := 'ab' ; x := 12 ; x := 'ab' ; x := 12 ; x := 13")
        Evaluator().exec_instruction(ins, empty_state())
        assert checked == ["ab", num(12), num(13)]

    def test_an_oversized_literal_overflows_at_each_occurrence(self):
        sta = run_source(
            "begin-program let x be number tel ; x := 1234 ; "
            "if-error 'overflow' then x := 5 ; x := 1234 fi end-program",
            limits=SMALL,
        )
        assert register_word(sta) == "overflow"
        assert sta.store.valuation["x"].com == Composite(num(5), NUMBER)

    def test_evaluators_with_different_limits_share_nothing(self):
        dae = parse_data_expression("(1234 = 1234)")
        small, default = Evaluator(limits=SMALL), Evaluator()
        for _ in range(2):
            assert small.eval_data_exp(dae, empty_state()) is OVERFLOW
            assert default.eval_data_exp(dae, empty_state()).dat is True

    def test_a_reused_evaluator_keeps_no_literal(self):
        evaluator = Recording()
        sta = number_var(empty_state(), "x", num(1))
        sta = evaluator.exec_instruction(parse_instruction("x := (x + 1234)"), sta)
        assert evaluator.numerals and all(ref() is None for ref in evaluator.numerals)
        evaluator.eval_data_exp(parse_data_expression("(x + 1234)"), sta)
        evaluator.eval_transfer_exp(parse_transfer_expression("(value < 1234)"), sta)
        assert len(evaluator.numerals) == 3
        assert all(ref() is None for ref in evaluator.numerals)


class Reading(Evaluator):
    """Keeps, for every variable read it compiles, the name, the identity
    of its code and a weak reference to that code."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reads = []

    def compile_expression(self, exp):
        code = super().compile_expression(exp)
        if isinstance(exp, n.IdeExp):
            self.reads.append((exp.ide, id(code), weakref.ref(code)))
        return code


class TestSharedReads:
    def test_one_read_closure_per_name_and_none_kept(self):
        """Every read compiled in one entry point is alive until it
        returns, so equal identities are one closure."""
        evaluator = Reading()
        sta = number_var(number_var(empty_state(), "x", num(1)), "y", num(2))
        ins = parse_instruction("x := (x + y) ; y := (y * x) ; x := (x - 1)")
        sta = evaluator.exec_instruction(ins, sta)
        evaluator.eval_data_exp(parse_data_expression("(x + x)"), sta)
        first, second = evaluator.reads[:5], evaluator.reads[5:]
        for reads in (first, second):
            codes = {ide: {code for name, code, _ in reads if name == ide} for ide, _, _ in reads}
            assert all(len(same) == 1 for same in codes.values())
        assert [ide for ide, _, _ in evaluator.reads] == ["x", "y", "y", "x", "x", "x", "x"]
        assert all(ref() is None for _, _, ref in evaluator.reads)

    @pytest.mark.parametrize(
        "declaration, word",
        [("", "identifier-not-declared"), ("let u be number tel ; ", "variable-not-initialized")],
        ids=["undeclared", "uninitialized"],
    )
    def test_a_failing_read_fails_at_each_site(self, declaration, word):
        sta = run_source(
            f"begin-program {declaration}let x be number tel ; x := u ; "
            f"if-error '{word}' then x := 5 ; x := (u + 1) fi end-program"
        )
        assert register_word(sta) == word
        assert sta.store.valuation["x"].com == Composite(num(5), NUMBER)
