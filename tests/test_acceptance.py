"""Acceptance criteria.

Each test prints one criterion PASS/FAIL line (run pytest with -s to see
them all).  Expected values are either table lookups, hand-derived oracles
documented inline, or independent recomputations.
"""

import itertools
import random
import time

from astgen import AstGen
from lingua.kernel import (
    NUMBER,
    TT,
    AbstractError,
    Composite,
    LangType,
    ListBody,
    ListData,
    RecordBody,
    RecordData,
    apply_transfer,
    boo_composite,
    num,
)
from mccarthy import EE, FF, TT as M_TT, and_m, not_m, or_m
from lingua.parser import (
    parse_data_expression,
    parse_instruction,
    parse_program,
    parse_transfer_expression,
    parse_type_expression,
)
from lingua import nodes as n
from lingua.printer import print_concrete
from lingua.semantics import Evaluator, OutOfFuel
from lingua.state import (
    empty_state,
    is_error,
    load_error,
    lookup_variable,
    register_word,
)

from util import eval_text, number_var, run_text


def report(criterion, name):
    """Print the per-criterion verdict even when the assertion fails."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {criterion} ({name}): {verdict}")
            return False

    return _Reporter()


# ---------------------------------------------------------------------------
# 1. McCarthy suite


def test_criterion_1_mccarthy_suite():
    with report(1, "McCarthy suite"):
        started = time.perf_counter()
        values = (M_TT, FF, EE)
        or_table = {
            M_TT: (M_TT, M_TT, M_TT),
            FF: (M_TT, FF, EE),
            EE: (EE, EE, EE),
        }
        and_table = {
            M_TT: (M_TT, FF, EE),
            FF: (FF, FF, FF),
            EE: (EE, EE, EE),
        }
        not_table = {M_TT: FF, FF: M_TT, EE: EE}
        for row in values:
            for col, expected in zip(values, or_table[row]):
                assert or_m(row, col) == expected
            for col, expected in zip(values, and_table[row]):
                assert and_m(row, col) == expected
            assert not_m(row) == not_table[row]
        # associativity over all 27 triples, both operators
        for a, b, c in itertools.product(values, repeat=3):
            assert and_m(a, and_m(b, c)) == and_m(and_m(a, b), c)
            assert or_m(a, or_m(b, c)) == or_m(or_m(a, b), c)
        # De Morgan over all 9 pairs
        for a, b in itertools.product(values, repeat=2):
            assert not_m(and_m(a, b)) == or_m(not_m(a), not_m(b))
            assert not_m(or_m(a, b)) == and_m(not_m(a), not_m(b))
        # right-hand distributivity over all 27 triples
        for p, q, s in itertools.product(values, repeat=3):
            assert and_m(p, or_m(q, s)) == or_m(and_m(p, q), and_m(p, s))
        # the non-commutativity and left-distributivity counterexamples
        assert and_m(FF, EE) == FF and and_m(EE, FF) == EE
        assert and_m(or_m(M_TT, EE), FF) == FF
        assert or_m(and_m(M_TT, FF), and_m(EE, FF)) == EE
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 2. paper golden tests


def test_criterion_2_golden_values():
    with report(2, "golden evaluation values"):
        # numeric and Boolean expression meanings
        assert eval_text("(1 + (1 + 0))") == Composite(num(2), NUMBER)
        assert eval_text("((1 + (1 + 0)) < 0)") == boo_composite(False)
        # division by zero
        assert eval_text("(1 / 0)") == AbstractError("division-by-zero")
        # the all-list transfer demands a list
        evaluator = Evaluator()
        all_list = evaluator.eval_transfer_exp(
            parse_transfer_expression("all-list true ee"), empty_state()
        )
        assert apply_transfer(all_list, Composite(num(5), NUMBER)) == AbstractError(
            "list-expected"
        )
        assert apply_transfer(
            all_list,
            Composite(ListData((num(1), num(2), num(3))), ListBody(NUMBER)),
        ) == boo_composite(True)
        # the price+vat yoke holds at 900 < 1000
        yoke = evaluator.eval_transfer_exp(
            parse_transfer_expression("record.price + record.vat < 1000"),
            empty_state(),
        )
        rec = Composite(
            RecordData.of({"price": num(800), "vat": num(100)}),
            RecordBody.of({"price": NUMBER, "vat": NUMBER}),
        )
        assert apply_transfer(yoke, rec) == boo_composite(True)
        # a one-attribute record type
        one_attr = evaluator.eval_type_exp(
            parse_type_expression("record-type a as number ee"), empty_state()
        )
        assert one_attr == LangType(RecordBody.of({"a": NUMBER}), TT)
        # the four assignment error words, each from a dedicated program
        programs = {
            "identifier-not-declared": "begin-program x := 1 end-program",
            "no-coherence": (
                "begin-program let x be number tel ; x := 'a' end-program"
            ),
            "a-yoke-expected": (
                "begin-program let x be replace-transfer-in number by 273 ee tel ; "
                "x := 1 end-program"
            ),
            "yoke-not-satisfied": (
                "begin-program "
                "let x be replace-transfer-in number by (value < 10) ee tel ; "
                "x := 11 end-program"
            ),
        }
        for expected_word, text in programs.items():
            assert register_word(run_text(text)) == expected_word


# ---------------------------------------------------------------------------
# 3. restoration golden tests


def test_criterion_3_restoration_goldens():
    with report(3, "restoration goldens"):
        x, y, z, s, p = (n.IdeExp(i) for i in ("x", "y", "z", "s", "p"))

        # array literal unfolding
        expected = n.AddToArrExp(
            n.AddToArrExp(n.ArrayExp(x), n.AddExp(x, y)),
            n.MulExp(n.NumLit(num(3)), y),
        )
        restored = parse_data_expression("array [x, x+y, 3*y]")
        assert restored == expected
        assert print_concrete(restored) == print_concrete(expected)
        assert (
            print_concrete(restored)
            == "add-to-arr add-to-arr array x ee new (x + y) ee new (3 * y) ee"
        )

        # chained array selection
        m = n.IdeExp("measurement-data")
        expected = n.ArrAtExp(
            n.ArrAtExp(m, n.AddExp(x, n.NumLit(num(1)))),
            n.SubExp(y, n.NumLit(num(1))),
        )
        restored = parse_data_expression("measurement-data.[x+1].[y-1]")
        assert restored == expected
        assert (
            print_concrete(restored)
            == "arr arr measurement-data at (x + 1) ee at (y - 1) ee"
        )

        # array modification list
        one = n.NumLit(num(1))
        three = n.NumLit(num(3))
        expected = n.ChangeArrExp(
            n.ChangeArrExp(
                n.ChangeArrExp(m, s, x),
                n.AddExp(s, one),
                n.AddExp(x, y),
            ),
            n.MulExp(three, p),
            n.SubExp(z, one),
        )
        restored = parse_data_expression(
            "change-arr measurement-data by s <= x, s+1 <= x+y, 3*p <= z-1 ee"
        )
        assert restored == expected
        assert print_concrete(restored) == (
            "change-arr change-arr change-arr measurement-data at s by x ee "
            "at (s + 1) by (x + y) ee at (3 * p) by (z - 1) ee"
        )

        # parenthesis restoration (with x * y read as written)
        restored = parse_data_expression("x + y + z + x * y")
        assert print_concrete(restored) == "(((x + y) + z) + (x * y))"


# ---------------------------------------------------------------------------
# 4. round-trip property


def test_criterion_4_roundtrip_property():
    with report(4, "round-trip property"):
        started = time.perf_counter()
        parsers = {
            "data": parse_data_expression,
            "transfer": parse_transfer_expression,
            "type": parse_type_expression,
            "instruction": parse_instruction,
            "program": parse_program,
        }
        gen = AstGen(seed=1311)
        for _ in range(1000):
            kind, ast = gen.any_sort(depth=3)
            text = print_concrete(ast)
            reparsed = parsers[kind](text)
            assert reparsed == ast, f"{kind}: {text}"
            # restoring already-concrete text is the identity
            assert print_concrete(reparsed) == text
        assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 5. grammar coverage

COVERAGE_CORPUS = [
    # one large program driving most clauses
    """
    begin-program
    set money as number tes ;
    set tags as list-type word ee tes ;
    set flag as boolean tes ;
    set person as record-type name as word ee tes ;
    set person2 as expand-record-type person at age by money ee tes ;
    set bounded as replace-transfer-in number by (value < 1000) ee tes ;
    set prices as array-type number ee tes ;
    let x be number tel ;
    let w be word tel ;
    skip ;
    proc p (val a as number ref b as word)
      begin-program skip end-program
    end proc ;
    begin multiproc
      proc q (val empty-fp ref empty-fp) begin-program skip end-program end proc
      proc s (val c as money, d as money ref empty-fp)
        begin-program skip end-program end proc
    end multiproc ;
    fun f (m as number) (m + 1) endfun ;
    fun g (m as number) begin-program skip end-program
      return (m / 2) as number end fun ;
    fun h (empty-fp) (((1 - 2) * 3) = 4) endfun ; fun k (a as number, b as number) a endfun ;
    let r be person tel ;
    x := 3 ;
    x := f(x) ;
    x := f2(x, x) ;
    x := f3(empty-ap) ;
    w := ('a' glue 'b') ;
    x := if ((x < 2) and ((not false) or true)) then (x + 1) else (x / 2) fi ;
    w := top (push 'c' on list 'd' ee ee) ;
    x := pop (x) ;
    x := arr change-arr add-to-arr array 1 ee new 2 ee at 1 by 7 ee at 2 ee ;
    r := record name of-value 'Ann' ee ;
    r := change-rec add-attr age of-value 30 to r ee at age by 31 ee ;
    x := rec r at age ee ;
    r := remove-attr age from r ee ;
    call p (ref w val x) ;
    call q (ref empty-ap val empty-ap) ;
    call s (ref empty-ap val x, x) ;
    yoke x := ((sum (array[1]) + max (value)) < small-number (3)) ;
    yoke w := (('a' glue 'b') = value) ;
    yoke x := (false = 273) ;
    yoke x := (increasing (value) and (not (top = 273)) or all-list true ee) ;
    yoke x := all-array (record.price / 2) ee ;
    if (x < 9) then skip else x := 0 fi ;
    if-error 'overflow' then skip fi ;
    while false do skip od
    end-program
    """,
    # the plain no-preamble program form
    "begin-program skip end-program",
]


# Every clause is a concrete class of `lingua.nodes`.
CLAUSES = frozenset(
    cls
    for cls in vars(n).values()
    if isinstance(cls, type) and issubclass(cls, n.Node) and not cls.__subclasses__()
)

# The shapes of a clause that its class alone does not show
SHAPES = frozenset(
    {
        *(f"{cls} {value}" for cls in ("BoolLit", "TraBoolLit") for value in (True, False)),
        *(
            f"{cls} with {length} parameters"
            for cls in ("FunCallExp", "CallIns", "ImpProcDec", "FunProcDec")
            for length in ("0", "1", "2+")
        ),
        "FunProcDec with expression",
        "FunProcDec with program",
        "Program without preamble",
        "Program with preamble",
        *(
            f"preamble item {cls}"
            for cls in ("ImpProcDec", "MultiProcDec", "FunProcDec", "TypDef", "VarDec", "SkipIns")
        ),
    }
)


def _parameters(cls, *lists):
    return {f"{cls.__name__} with {('0', '1', '2+')[min(len(l), 2)]} parameters" for l in lists}


def _preamble_items(pam):
    for item in pam.items if isinstance(pam, n.PreSeq) else (pam,):
        yield from item.items if isinstance(item, (n.VarDecSeq, n.TypDefSeq)) else (item,)


def coverage(tree):
    """The class of every node in `tree`, and the shapes it shows of them."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack += node
            continue
        if not isinstance(node, n.Node):
            continue
        cls = type(node)
        found.add(cls)
        match node:
            case n.BoolLit(value) | n.TraBoolLit(value):
                found.add(f"{cls.__name__} {value}")
            case n.FunCallExp(_, apar):
                found |= _parameters(cls, apar)
            case n.CallIns(_, ref_args, val_args):
                found |= _parameters(cls, ref_args, val_args)
            case n.ImpProcDec(_, val_params, ref_params, _):
                found |= _parameters(cls, val_params, ref_params)
            case n.FunProcDec(_, params, prg, _, _):
                found |= _parameters(cls, params)
                found.add(f"FunProcDec with {'expression' if prg is None else 'program'}")
            case n.Program(None, _):
                found.add("Program without preamble")
            case n.Program(pam, _):
                found.add("Program with preamble")
                found |= {f"preamble item {type(item).__name__}" for item in _preamble_items(pam)}
        stack += [getattr(node, name) for name in cls.__match_args__]
    return found


def test_criterion_5_grammar_coverage():
    with report(5, "grammar coverage"):
        found = set()
        for text in COVERAGE_CORPUS:
            found |= coverage(parse_program(text))
        missing = [cls.__name__ for cls in CLAUSES - found] + list(SHAPES - found)
        assert not missing, f"not covered: {sorted(missing)}"


# ---------------------------------------------------------------------------
# 6. interpreter programs

FACT_PROGRAM = (
    "begin-program "
    "fun fact (m as number) "
    "begin-program let k be number tel ; let r be number tel ; "
    "if (m < 1) then r := 1 else k := (m - 1) ; r := (m * fact(k)) fi "
    "end-program return r as number end fun ; "
    "let x be number tel ; let y be number tel ; "
    "x := 6 ; y := fact(x) end-program"
)

PARITY_PROGRAM = (
    "begin-program "
    "begin multiproc "
    "proc even (val m as number ref r as word) "
    "begin-program let k be number tel ; "
    "if (m < 1) then r := 'yes' else k := (m - 1) ; call odd (ref r val k) fi "
    "end-program end proc "
    "proc odd (val m as number ref r as word) "
    "begin-program let k be number tel ; "
    "if (m < 1) then r := 'no' else k := (m - 1) ; call even (ref r val k) fi "
    "end-program end proc "
    "end multiproc ; "
    "let res be word tel ; let k be number tel ; "
    "k := {value} ; call even (ref res val k) end-program"
)

SWAP_PROGRAM = (
    "begin-program "
    "proc swap (val empty-fp ref a as number, b as number) "
    "begin-program let t be number tel ; t := a ; a := b ; b := t end-program "
    "end proc ; "
    "let x be number tel ; let y be number tel ; "
    "x := 1 ; y := 2 ; call swap (ref x, y val empty-ap) end-program"
)

YOKE_PROGRAM = (
    "begin-program let x be number tel ; x := 50 ; "
    "yoke x := (value < 10) end-program"
)


def test_criterion_6_interpreter_programs():
    with report(6, "interpreter programs"):
        # factorial: 6! = 720 by hand (6*5*4*3*2*1)
        started = time.perf_counter()
        sta = run_text(FACT_PROGRAM)
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "y").content == num(720)
        assert time.perf_counter() - started < 1.0

        # parity by mutual recursion over 0..6; hand oracle: even iff n % 2 == 0
        started = time.perf_counter()
        for value in range(7):
            sta = run_text(PARITY_PROGRAM.replace("{value}", str(value)))
            assert register_word(sta) == "OK"
            expected = "yes" if value % 2 == 0 else "no"
            assert lookup_variable(sta, "res").content == expected
        assert time.perf_counter() - started < 1.0

        # reference-parameter swap: (1, 2) becomes (2, 1)
        started = time.perf_counter()
        sta = run_text(SWAP_PROGRAM)
        assert register_word(sta) == "OK"
        assert lookup_variable(sta, "x").content == num(2)
        assert lookup_variable(sta, "y").content == num(1)
        assert time.perf_counter() - started < 1.0

        # yoke replacement rejects the violating composite (50 >= 10)
        started = time.perf_counter()
        sta = run_text(YOKE_PROGRAM)
        assert register_word(sta) == "yoke-not-satisfied"
        assert lookup_variable(sta, "x").content == num(50)
        assert lookup_variable(sta, "x").typ.tra == TT
        assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# 7. transparency sweep


def test_criterion_7_transparency_sweep():
    with report(7, "transparency sweep"):
        base = number_var(empty_state(), "x", num(1))
        poisoned = load_error(base, AbstractError("overflow"))
        evaluator = Evaluator()
        alternatives = [
            "x := 2",
            "yoke x := true",
            "skip",
            "call p (ref empty-ap val empty-ap)",
            "if true then x := 2 else x := 3 fi",
            "while true do skip od",
            "x := 2 ; x := 3",
        ]
        for text in alternatives:
            out = evaluator.exec_instruction(parse_instruction(text), poisoned)
            assert out == poisoned, f"not transparent: {text}"


# ---------------------------------------------------------------------------
# 8. procedure frame law


def _random_frame_program(rng: random.Random):
    """A program declaring globals and a procedure, plus the call to make."""
    n_val = rng.randrange(0, 3)
    n_ref = rng.randrange(0, 3)
    val_formals = [f"v{i}" for i in range(n_val)]
    ref_formals = [f"r{i}" for i in range(n_ref)]
    formals = val_formals + ref_formals
    body_lines = ["let loc be number tel", "loc := 1"]
    targets = ["loc"] + ref_formals + val_formals
    sources = ["loc", "7"] + formals
    for _ in range(rng.randrange(1, 4)):
        target = rng.choice(targets)
        left, right = rng.choice(sources), rng.choice(sources)
        op = rng.choice(["+", "-", "*"])
        body_lines.append(f"{target} := ({left} {op} {right})")
    if rng.randrange(4) == 0:
        body_lines.append("loc := (loc / 0)")  # an erroring body now and then
    val_sig = ", ".join(f"{f} as number" for f in val_formals) or "empty-fp"
    ref_sig = ", ".join(f"{f} as number" for f in ref_formals) or "empty-fp"
    globals_ = ["g0", "g1", "g2", "g3"]
    decls = " ; ".join(f"let {g} be number tel" for g in globals_)
    inits = " ; ".join(f"{g} := {rng.randrange(0, 9)}" for g in globals_)
    ref_actuals = rng.sample(globals_, n_ref)
    val_actuals = [rng.choice(globals_) for _ in range(n_val)]
    call = (
        f"call p (ref {', '.join(ref_actuals) or 'empty-ap'} "
        f"val {', '.join(val_actuals) or 'empty-ap'})"
    )
    prelude = (
        "begin-program "
        f"proc p (val {val_sig} ref {ref_sig}) "
        f"begin-program {' ; '.join(body_lines)} end-program end proc ; "
        f"{decls} ; {inits} end-program"
    )
    return prelude, call, set(ref_actuals)


def test_criterion_8_frame_law():
    with report(8, "procedure frame law"):
        rng = random.Random(93)
        evaluator = Evaluator()
        for case in range(100):
            prelude_text, call_text, ref_actuals = _random_frame_program(rng)
            before = run_text(prelude_text)
            assert not is_error(before), f"case {case} prelude failed"
            # a snapshot: `after` may share its valuation with `before`
            valuation = dict(before.store.valuation)
            after = evaluator.exec_instruction(parse_instruction(call_text), before)
            assert before.store.valuation == valuation, f"case {case} wrote the caller's state"
            assert after.env == before.env, f"case {case} environment changed"
            assert (
                after.store.valuation.keys() == valuation.keys()
            ), f"case {case} introduced or dropped variables"
            for name, value in valuation.items():
                if name not in ref_actuals:
                    assert (
                        after.store.valuation[name] == value
                    ), f"case {case} modified non-ref actual {name}"


# ---------------------------------------------------------------------------
# 9. fuel determinism

FUEL_CORPUS = [
    FACT_PROGRAM,
    PARITY_PROGRAM.replace("{value}", "5"),
    SWAP_PROGRAM,
    (
        "begin-program let x be number tel ; let s be number tel ; "
        "x := 5 ; s := 0 ; "
        "while (0 < x) do s := (s + x) ; x := (x - 1) od end-program"
    ),
    "begin-program skip end-program",
]


def _run_with_fuel(text, fuel):
    return run_text(text, fuel=fuel)


def test_criterion_9_fuel_determinism():
    with report(9, "fuel determinism"):
        for text in FUEL_CORPUS:
            unlimited = _run_with_fuel(text, None)
            minimal = None
            for budget in range(0, 200):
                try:
                    candidate = _run_with_fuel(text, budget)
                except OutOfFuel:
                    continue
                minimal = budget
                at_minimal = candidate
                break
            assert minimal is not None, "no terminating budget under 200"
            assert at_minimal == unlimited
            assert _run_with_fuel(text, minimal + 1) == unlimited
