import copy
import pickle
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from lingua import kernel, nodes as n
from lingua.cli import format_body, format_data
from lingua.kernel import (
    ARRAY_EXPECTED,
    BOOLEAN,
    NUMBER,
    OMEGA,
    TRUE_COMPOSITE,
    TT,
    WORD,
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
    SimpleBody,
    Transfer,
    Value,
    _power_of_ten,
    apply_transfer,
    body_of,
    boo_composite,
    clan_bo_member,
    clan_ty_member,
    coherent,
    is_boo_composite,
    num,
    oversized,
)
from lingua.parser import parse_data_expression
from lingua.printer import print_concrete
from lingua.semantics import OVERFLOW, Evaluator, _fold, _value
from lingua.state import empty_state


# ---------------------------------------------------------------------------
# numbers


def as_fraction(x: Number) -> Fraction:
    """The exact value of `x`."""
    if x.exp >= 0:
        return Fraction(x.coeff * 10**x.exp)
    return Fraction(x.coeff, 10**-x.exp)


class TestNumber:
    def test_parse_and_text(self):
        assert Number.parse("3").text() == "3"
        assert Number.parse("3.00").text() == "3"
        assert Number.parse("0.5").text() == "0.5"
        assert Number.parse("-4").text() == "-4"
        assert Number.parse("123.45").text() == "123.45"
        assert Number.parse("0.0005").text() == "0.0005"

    def test_normalized(self):
        assert Number.parse("10") == Number(1, 1)
        assert Number.parse("0.0") == Number(0, 0)
        with pytest.raises(ValueError):
            Number(10, 0)

    def test_arithmetic_exact(self):
        a, b = Number.parse("0.1"), Number.parse("0.2")
        assert a.add(b) == Number.parse("0.3")
        assert a.mul(b) == Number.parse("0.02")
        assert Number.parse("7").sub(Number.parse("9")) == Number.parse("-2")

    def test_divide_finite_decimal(self):
        assert Number.parse("1").divide(Number.parse("8")) == Number.parse("0.125")
        assert Number.parse("10").divide(Number.parse("4")) == Number.parse("2.5")

    def test_divide_non_decimal_is_none(self):
        assert Number.parse("1").divide(Number.parse("3")) is None

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Number.parse("1").divide(Number.parse("0"))

    def test_digit_count(self):
        assert Number.make(1, 30).digits() == 31
        assert Number.parse("0").digits() == 1
        assert Number.parse("0.5").digits() == 1
        assert Number.parse("123.45").digits() == 5
        assert Number.parse("0.0005").digits() == 4

    def test_comparison(self):
        assert Number.parse("0.5").lt(Number.parse("0.6"))
        assert not Number.parse("2").lt(Number.parse("2"))
        assert Number.parse("-4").lt(Number.parse("0"))

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        st.tuples(st.integers(-(10**25), 10**25), st.integers(-60, 60)),
        st.tuples(st.integers(-(10**25), 10**25), st.integers(-60, 60)),
    )
    @example((0, 0), (0, 0))
    @example((0, 0), (-1, -60))
    @example((1, -60), (0, 0))
    @example((-3, 60), (-3, -60))
    @example((7, 40), (7000, 37))
    def test_lt_orders_like_fractions(self, a, b):
        x, y = Number.make(*a), Number.make(*b)
        assert x.lt(y) == (as_fraction(x) < as_fraction(y))
        assert y.lt(x) == (as_fraction(y) < as_fraction(x))


class TestPastTheDigitLimit:
    """Python converts between int and str only up to a digit limit, 4,300
    digits by default; a number of any length parses and prints."""

    WIDTH = 5_000

    @pytest.mark.parametrize(
        "text, digits",
        [
            ("1" * WIDTH, WIDTH),
            ("-" + "9" * WIDTH + ".25", WIDTH + 2),
            ("0.00" + "7" * WIDTH, WIDTH + 2),
            ("4" + "0" * WIDTH, WIDTH + 1),
        ],
        ids=["integer", "negative", "fraction", "trailing-zeros"],
    )
    def test_parse_text_and_digits(self, text, digits):
        x = Number.parse(text)
        assert x.text() == text
        assert x.digits() == digits

    def test_results_print_in_full(self):
        nines = Number.make(10**self.WIDTH - 1)
        assert nines.text() == "9" * self.WIDTH and nines.digits() == self.WIDTH
        small = Number.make(-(10**self.WIDTH - 1), -self.WIDTH - 3)
        assert small.text() == "-0.000" + "9" * self.WIDTH
        assert small.digits() == self.WIDTH + 3

    def test_data_expression_parses(self):
        text = "1" * self.WIDTH
        assert print_concrete(parse_data_expression(text)) == text

    def test_long_non_decimal_text_is_still_rejected(self):
        with pytest.raises(ValueError):
            Number.parse("\u00b2" * self.WIDTH)

    def test_long_runs_of_trailing_zeros_normalize(self):
        # One zero at a time, each of these took seconds.
        zeros = 10 * self.WIDTH
        assert Number.parse("1" + "0" * zeros) == Number(1, zeros)
        assert Number.make(10**zeros) == Number(1, zeros)


# ---------------------------------------------------------------------------
# lean numbers: the unchecked and fast paths against exact fractions

EXACT = settings(max_examples=500, deadline=None, derandomize=True, database=None)
# Small exponents make equal ones, and so the same-exponent paths, common.
EXPONENTS = st.one_of(st.integers(-2, 2), st.integers(-40, 40))
NUMBERS = st.builds(Number.make, st.integers(-(10**25), 10**25), EXPONENTS)


def finite_decimal(q: Fraction) -> bool:
    den = q.denominator
    for prime in (2, 5):
        while den % prime == 0:
            den //= prime
    return den == 1


def checked(x: Number) -> Number:
    """`x` rebuilt by the checking constructor, which rejects a non-normal form."""
    assert type(x) is Number
    return Number(x.coeff, x.exp)


class TestLeanNumbers:
    @EXACT
    @given(NUMBERS, NUMBERS)
    @example(Number.make(0), Number.make(0))
    @example(Number.make(5, -1), Number.make(5, -1))  # 0.5 + 0.5 renormalizes
    @example(Number.make(-3, 2), Number.make(3, 2))  # cancels to zero
    @example(Number.make(7, 40), Number.make(-7, -40))
    @example(Number.make(3), Number.make(-4))  # a negative divisor: -0.75
    @example(Number.make(-6, -1), Number.make(-8))  # both negative: 0.075
    @example(Number.make(15), Number.make(5))  # 15 - 5 ends in 0
    @example(Number.make(2), Number.make(-5))  # 2 * -5 ends in 0
    @example(Number.make(7, -2), Number.make(7, -2))  # 0.07 - 0.07 is zero
    @example(Number.make(0), Number.make(3, -2))  # 0 * 0.03 is zero
    def test_arithmetic_matches_fractions(self, x, y):
        fx, fy = as_fraction(x), as_fraction(y)
        for result, exact in ((x.add(y), fx + fy), (x.sub(y), fx - fy), (x.mul(y), fx * fy)):
            assert checked(result) == result
            assert as_fraction(result) == exact
        assert x.lt(y) == (fx < fy)
        assert as_fraction(x.neg()) == -fx and checked(x.neg()) == x.neg()
        assert as_fraction(x.abs()) == abs(fx) and checked(x.abs()) == x.abs()
        if not y.is_zero():
            quotient = x.divide(y)
            if finite_decimal(fx / fy):
                assert as_fraction(checked(quotient)) == fx / fy
            else:
                assert quotient is None

    @EXACT
    @given(
        st.lists(NUMBERS, min_size=1, max_size=12),
        st.sampled_from([(ListData, ListBody), (ArrayData, ArrayBody)]),
        st.sampled_from([1, 20, 1000]),
    )
    @example([Number.make(5, -1), Number.make(5, -1)], (ArrayData, ArrayBody), 20)
    @example([Number.make(0), Number.make(-1, -3)], (ListData, ListBody), 1)
    def test_sum_and_max_match_a_fold(self, numbers, shape, limit):
        data, body = shape
        com = Composite(data(tuple(numbers)), body(NUMBER))
        lim = Limits(max_significant_digits=limit)

        def expected(x):
            return OVERFLOW if x.digits() > limit else Composite(x, NUMBER)

        total = reduce(Number.add, numbers, Number.make(0))
        best = reduce(lambda a, b: b if a.lt(b) else a, numbers)
        assert checked(Number.sum(numbers)) == total and Number.max(numbers) == best
        assert _fold(Number.sum)(Evaluator(lim), _value)(com) == expected(total)
        assert _fold(Number.max)(Evaluator(lim), _value)(com) == expected(best)

    @EXACT
    @given(st.integers(-(10**45), 10**45), st.integers(-1002, 1002), st.sampled_from([1, 20, 1000]))
    def test_size_rule_counts_digits(self, coeff, exp, limit):
        x = Number.make(coeff, exp)
        assert oversized(x, Limits(max_significant_digits=limit)) == (
            x.digits() > limit
        )

    @pytest.mark.parametrize("limit", [1, 20, 1000])
    def test_size_rule_at_its_boundaries(self, limit):
        lim = Limits(max_significant_digits=limit)
        widths = {1, 2, 3, limit // 2, limit - 1, limit, limit + 1} - {0}
        for k in sorted(widths):
            for base in (Number.make(10**k - 1), Number.make(10**k), Number.make(1 - 10**k)):
                for exp in range(-limit - 1, limit + 2):
                    x = Number(base.coeff, base.exp + exp)
                    assert oversized(x, lim) == (x.digits() > limit), (k, x)

    @EXACT
    @given(st.integers(-(10**30), 10**30), st.integers(-60, 60))
    def test_make_is_the_checked_number(self, coeff, exp):
        x = Number.make(coeff, exp)
        assert x == checked(x) and hash(x) == hash(checked(x))
        assert as_fraction(x) == coeff * Fraction(10) ** exp
        with pytest.raises(FrozenInstanceError):
            x.coeff = 1
        # The number is its own datum: it pairs with NUMBER alone, and the
        # composite survives pickling and deep copying.
        com = Composite(x, NUMBER)
        for twin in (pickle.loads(pickle.dumps(com)), copy.deepcopy(com)):
            assert twin == com and hash(twin) == hash(com)
        with pytest.raises(ValueError):
            Composite(x, WORD)
        with pytest.raises(ValueError):
            Value(x, LangType(WORD, TT))
        assert num(3) == Number.from_int(3)

    @EXACT
    @given(st.integers(-(10**30), 10**30), st.integers(0, 300), st.integers(-60, 60))
    @example(1, 0, 0)
    @example(-7, 255, -3)  # every chunk of 128, 64, ..., 1 zeros strips
    @example(25, 256, 0)
    def test_runs_of_trailing_zeros_strip_exactly(self, coeff, zeros, exp):
        x = Number.make(coeff * 10**zeros, exp)
        assert x == checked(x)
        assert as_fraction(x) == coeff * 10**zeros * Fraction(10) ** exp
        text = f"{coeff * 10**zeros}." + "0" * (zeros % 7)
        assert Number.parse(text) == Number.make(coeff * 10**zeros)

    def test_checked_constructor_still_rejects(self):
        for coeff, exp in ((10, 0), (-20, 3), (0, 1)):
            with pytest.raises(ValueError):
                Number(coeff, exp)


class TestDatumUniverse:
    SAMPLES = (
        True,
        num(7),
        "w",
        ListData((num(1),)),
        ArrayData((num(1),)),
        RecordData.of({"a": num(1)}),
    )

    def test_every_datum_class_has_an_arm(self):
        def descendants(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from descendants(sub)

        classes = {Number, ListData, ArrayData, RecordData}
        # A slotted dataclass replaces the class it decorates, and the
        # replaced class stays among the subclasses under the same name.
        assert {cls.__name__ for cls in descendants(Data)} == {cls.__name__ for cls in classes}
        # Truth values and words are the plain `bool` and `str` themselves.
        assert {type(d) for d in self.SAMPLES} == classes | {bool, str}
        for d in self.SAMPLES:
            bod = body_of(d)
            assert bod is not None and clan_bo_member(d, bod)
            assert Composite(d, bod).dat is d
            assert isinstance(format_data(d), str)

    @pytest.mark.parametrize("thing", [None, 1.5, ListBody(NUMBER)], ids=repr)
    def test_a_non_datum_has_no_body_and_no_text(self, thing):
        with pytest.raises(TypeError, match="^not a datum"):
            body_of(thing)
        assert not clan_bo_member(thing, NUMBER)
        with pytest.raises(TypeError, match="^not a datum"):
            format_data(thing)

    def test_a_non_body_has_no_text(self):
        with pytest.raises(TypeError, match="^not a body"):
            format_body(num(1))

    def test_a_boolean_composite_copies_and_pickles_with_its_body(self):
        com = Composite(True, BOOLEAN)
        for twin in (copy.deepcopy(com), pickle.loads(pickle.dumps(com))):
            assert twin.dat is True and twin.bod is BOOLEAN


class TestSimpleBodies:
    def test_every_simple_body_is_canonical(self):
        for body, name in ((BOOLEAN, "Boolean"), (NUMBER, "number"), (WORD, "word")):
            assert SimpleBody(name) is body
            assert copy.copy(body) is body
            assert copy.deepcopy(body) is body
            assert pickle.loads(pickle.dumps(body)) is body
            assert copy.deepcopy(ListBody(body)).element is body
            assert copy.deepcopy(Composite(True, BOOLEAN)).bod is BOOLEAN

    def test_no_other_simple_body(self):
        with pytest.raises(ValueError):
            SimpleBody("text")


# ---------------------------------------------------------------------------
# interned bodies

# A body's shape: a simple body's name, a ("list" | "array", shape) pair,
# or a record's {attribute: shape} dict.
SHAPES = st.recursive(
    st.sampled_from(["Boolean", "number", "word"]),
    lambda inner: st.tuples(st.sampled_from(["list", "array"]), inner)
    | st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, min_size=1, max_size=3),
    max_leaves=6,
)
COLLECTION_BODIES = {"list": ListBody, "array": ArrayBody}


def build(shape, draw):
    """A body of `shape`, each part built along a path `draw` picks."""
    return draw(st.sampled_from(BODY_PATHS))(shape, draw)


def by_position(shape, draw):
    if isinstance(shape, str):
        return SimpleBody(shape)
    if isinstance(shape, dict):
        return RecordBody(tuple((name, build(shape[name], draw)) for name in sorted(shape)))
    return COLLECTION_BODIES[shape[0]](build(shape[1], draw))


def by_keyword(shape, draw):
    if isinstance(shape, str):
        return SimpleBody(name=shape)
    if isinstance(shape, dict):
        return RecordBody(fields=tuple((name, build(shape[name], draw)) for name in sorted(shape)))
    return COLLECTION_BODIES[shape[0]](element=build(shape[1], draw))


def by_mapping(shape, draw):
    """`RecordBody.of` a dict written in a drawn attribute order."""
    if not isinstance(shape, dict):
        return by_position(shape, draw)
    names = draw(st.permutations(sorted(shape)))
    return RecordBody.of({name: build(shape[name], draw) for name in names})


def datum(shape):
    """Certified data of `shape`: every collection holds one element."""
    if isinstance(shape, str):
        return {"Boolean": True, "number": num(1), "word": "w"}[shape]
    if isinstance(shape, dict):
        return RecordData.of({name: datum(inner) for name, inner in shape.items()})
    return (ListData if shape[0] == "list" else ArrayData)((datum(shape[1]),))


def type_expression(shape, draw):
    """A type expression of `shape`; a record's attributes are added one by
    one, in a drawn order."""
    if isinstance(shape, str):
        return {"Boolean": n.BooleanTyp, "number": n.NumberTyp, "word": n.WordTyp}[shape]()
    if isinstance(shape, dict):
        first, *rest = draw(st.permutations(sorted(shape)))
        tex = n.RecordTyp(first, type_expression(shape[first], draw))
        for name in rest:
            tex = n.ExpandRecordTyp(tex, name, type_expression(shape[name], draw))
        return tex
    return (n.ListTyp if shape[0] == "list" else n.ArrayTyp)(type_expression(shape[1], draw))


BODY_PATHS = [
    by_position,
    by_keyword,
    by_mapping,
    lambda shape, draw: body_of(Composite(datum(shape), build(shape, draw)).dat),
    lambda shape, draw: Evaluator().eval_type_exp(type_expression(shape, draw), empty_state()).bod,
    lambda shape, draw: pickle.loads(pickle.dumps(build(shape, draw))),
    lambda shape, draw: copy.deepcopy(build(shape, draw)),
]


def shape_text(shape):
    """The text `format_body` writes for a body of `shape`."""
    if isinstance(shape, str):
        return shape
    if isinstance(shape, dict):
        return "{" + ", ".join(f"{name}: {shape_text(shape[name])}" for name in sorted(shape)) + "}"
    return f"{shape[0]} of {shape_text(shape[1])}"


def deep_array_body(leaf, depth):
    """`array of` written `depth` times before `leaf`, built bottom up."""
    body = leaf
    for _ in range(depth):
        body = ArrayBody(body)
    return body


class TestInternedBodies:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(SHAPES, SHAPES, st.booleans(), st.data())
    def test_equal_structure_is_one_object(self, first, second, same, data):
        if same:
            second = first
        b1, b2 = build(first, data.draw), build(second, data.draw)
        assert format_body(b1) == shape_text(first) and format_body(b2) == shape_text(second)
        equal = format_body(b1) == format_body(b2)
        assert (b1 is b2) is equal
        assert (b1 == b2) is equal and (b1 != b2) is not equal
        assert (hash(b1) == hash(b2)) is equal

    def test_deep_bodies_compare_without_recursing(self):
        """Equality, hashing, coherence and clan membership of two bodies
        5,000 deep, which differ only at the leaf, never visit their parts."""
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            numbers, words = deep_array_body(NUMBER, 5000), deep_array_body(WORD, 5000)
            assert numbers != words and not numbers == words
            assert hash(numbers) != hash(words)
            assert not coherent(numbers, words)
            assert not clan_ty_member(Composite(ArrayData(()), numbers), LangType(words, TT))
            assert clan_ty_member(Composite(ArrayData(()), numbers), LangType(numbers, TT))
            assert deep_array_body(NUMBER, 5000) is numbers
        finally:
            sys.setrecursionlimit(previous)


# ---------------------------------------------------------------------------
# clans of bodies

EMPLOYEE_BODY = RecordBody.of(
    {
        "ch-name": WORD,
        "fa-name": WORD,
        "birth-year": NUMBER,
        "award-years": ArrayBody(NUMBER),
        "salary": NUMBER,
        "bonus": NUMBER,
    }
)


class TestClanBo:
    def test_simple_match(self):
        assert clan_bo_member(num(5), NUMBER)
        assert not clan_bo_member(True, NUMBER)
        assert clan_bo_member("abc", WORD)
        assert clan_bo_member(False, BOOLEAN)

    def test_employee_record(self):
        employee = RecordData.of(
            {
                "salary": num(2000),
                "bonus": num(100),
                "ch-name": "Ann",
                "fa-name": "Lee",
                "birth-year": num(1968),
                "award-years": ArrayData((num(1999),)),
            }
        )
        assert clan_bo_member(employee, EMPLOYEE_BODY)

    def test_record_attribute_set_must_match(self):
        short = RecordData.of({"salary": num(2000)})
        assert not clan_bo_member(short, EMPLOYEE_BODY)

    def test_empty_collections_match_any_element_body(self):
        assert clan_bo_member(ListData(()), ListBody(NUMBER))
        assert clan_bo_member(ListData(()), ListBody(WORD))
        assert clan_bo_member(ArrayData(()), ArrayBody(RecordBody.of({"a": NUMBER})))

    def test_collection_elements_checked(self):
        assert clan_bo_member(ListData((num(1), num(2))), ListBody(NUMBER))
        assert not clan_bo_member(ListData((num(1), num(2))), ListBody(WORD))
        assert not clan_bo_member(ListData((num(1),)), ArrayBody(NUMBER))


class TestConstructors:
    def test_composite_requires_clan_membership(self):
        with pytest.raises(ValueError):
            Composite(num(7), WORD)
        Composite(num(7), NUMBER)  # fine

    def test_heterogeneous_list_rejected(self):
        with pytest.raises(ValueError):
            ListData((num(1), "a"))
        with pytest.raises(ValueError):
            ArrayData((True, num(0)))

    def test_body_of_empty_is_open(self):
        assert body_of(ListData(())) is None
        assert body_of(ListData((num(1),))) == ListBody(NUMBER)
        assert body_of(RecordData.of({"a": num(1), "b": ListData(())})) is None


def deep_array(leaf, depth):
    """`leaf` wrapped in `depth` one-element arrays, built unchecked."""
    dat = leaf
    for _ in range(depth):
        dat = kernel._unchecked_array((dat,))
    return dat


class TestDeepCertification:
    """The public constructors certify data nested deeper than the
    recursion limit, and still reject a heterogeneous collection there."""

    @pytest.fixture(autouse=True)
    def default_limit(self):
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        yield
        sys.setrecursionlimit(previous)

    def test_data_5000_deep_is_certified(self):
        dat, bod = deep_array(num(1), 5000), deep_array_body(NUMBER, 5000)
        assert Composite(dat, bod).dat is dat
        assert Value(dat, LangType(bod, TT)).com.bod is bod
        assert body_of(ArrayData((dat,))) is ArrayBody(bod)
        assert body_of(dat) is bod

    def test_heterogeneous_collection_5000_deep_is_rejected(self):
        dat = deep_array(kernel._unchecked_array((num(1), "a")), 5000)
        bod = deep_array_body(NUMBER, 5001)
        for construct in (
            lambda: Composite(dat, bod),
            lambda: Value(dat, LangType(bod, TT)),
            lambda: ArrayData((dat,)),
            lambda: body_of(dat),
        ):
            with pytest.raises(ValueError):
                construct()


# ---------------------------------------------------------------------------
# transfers and types


class TestTransfers:
    def test_tt_on_any_composite(self):
        assert apply_transfer(TT, Composite(num(5), NUMBER)) == TRUE_COMPOSITE

    def test_error_passes_through(self):
        overflow = AbstractError("overflow")
        assert apply_transfer(TT, overflow) is overflow

    def test_error_transparency_for_arbitrary_transfer(self):
        broken = Transfer("broken", lambda com: ARRAY_EXPECTED)
        e = AbstractError("division-by-zero")
        assert apply_transfer(broken, e) is e

    def test_transfer_equality_by_source(self):
        t1 = Transfer("x", lambda com: TRUE_COMPOSITE)
        t2 = Transfer("x", lambda com: ARRAY_EXPECTED)
        assert t1 == t2

    def test_boo_composite_shapes(self):
        assert is_boo_composite(boo_composite(True))
        assert not is_boo_composite(Composite(num(0), NUMBER))
        assert not is_boo_composite(ARRAY_EXPECTED)


class TestClanTy:
    def test_tt_imposes_no_constraint(self):
        typ = LangType(NUMBER, TT)
        assert clan_ty_member(Composite(num(7), NUMBER), typ)

    def test_tt_is_not_applied(self, monkeypatch):
        # Its verdict is known, so binding a parameter or checking a return
        # type under a type without `with` applies no transfer.
        applied = []
        monkeypatch.setattr(kernel, "apply_transfer", lambda tra, com: applied.append(tra))
        assert clan_ty_member(Composite(num(7), NUMBER), LangType(NUMBER, TT))
        assert applied == []
        accepts = Transfer("accepts", lambda com: TRUE_COMPOSITE)
        clan_ty_member(Composite(num(7), NUMBER), LangType(NUMBER, accepts))
        assert applied == [accepts]

    def test_body_mismatch(self):
        typ = LangType(NUMBER, TT)
        assert not clan_ty_member(Composite("7", WORD), typ)

    def test_yoke_checked(self):
        below_ten = Transfer(
            "(value < 10)",
            lambda com: boo_composite(com.dat.lt(Number.parse("10"))),
        )
        typ = LangType(NUMBER, below_ten)
        assert clan_ty_member(Composite(num(7), NUMBER), typ)
        assert not clan_ty_member(Composite(num(12), NUMBER), typ)

    def test_record_yoke(self):
        body = RecordBody.of({"price": NUMBER, "vat": NUMBER})

        def sum_below_1000(com):
            total = com.dat.get("price").add(com.dat.get("vat"))
            return boo_composite(total.lt(Number.parse("1000")))

        typ = LangType(body, Transfer("price-vat", sum_below_1000))
        rec = Composite(RecordData.of({"price": num(800), "vat": num(100)}), body)
        assert clan_ty_member(rec, typ)

    def test_error_from_transfer_means_not_member(self):
        failing = Transfer("fails", lambda com: ARRAY_EXPECTED)
        assert not clan_ty_member(Composite(num(1), NUMBER), LangType(NUMBER, failing))


# ---------------------------------------------------------------------------
# coherence


class TestCoherent:
    def test_equal_bodies(self):
        assert coherent(NUMBER, NUMBER)
        assert not coherent(NUMBER, WORD)

    def test_record_submap(self):
        small = RecordBody.of({"a": NUMBER})
        big = RecordBody.of({"a": NUMBER, "b": WORD})
        assert coherent(small, big)
        assert coherent(big, small)

    def test_shared_attributes_must_agree(self):
        small = RecordBody.of({"a": NUMBER})
        big = RecordBody.of({"a": WORD, "b": WORD})
        assert not coherent(small, big)

    def test_reflexive_and_symmetric(self):
        bodies = [
            NUMBER,
            ListBody(WORD),
            RecordBody.of({"a": NUMBER}),
            RecordBody.of({"a": NUMBER, "b": WORD}),
        ]
        for b1 in bodies:
            assert coherent(b1, b1)
            for b2 in bodies:
                assert coherent(b1, b2) == coherent(b2, b1)

    def test_not_transitive(self):
        only_a = RecordBody.of({"a": NUMBER})
        a_and_b = RecordBody.of({"a": NUMBER, "b": WORD})
        only_b = RecordBody.of({"b": WORD})
        assert coherent(only_a, a_and_b)
        assert coherent(a_and_b, only_b)
        assert not coherent(only_a, only_b)


# ---------------------------------------------------------------------------
# oversized


class TestOversized:
    def test_big_number(self):
        lim = Limits(max_significant_digits=20)
        assert oversized(Number.make(1, 30), lim)

    def test_far_from_a_large_limit_computes_no_power(self):
        lim = Limits(max_significant_digits=1_000_000)
        misses = _power_of_ten.cache_info().misses
        for exp in range(-500, 500, 10):
            for k in range(1, 21):
                x = Number.make(-int("7" * k) if k % 2 else int("7" * k), exp)
                assert not oversized(x, lim)
        assert _power_of_ten.cache_info().misses == misses

    def test_zero_never_oversized(self):
        assert not oversized(num(0), Limits(max_significant_digits=1))

    def test_word_length(self):
        assert oversized("abc", Limits(max_word_length=2))
        assert not oversized("ab", Limits(max_word_length=2))

    def test_collection_size_top_level_only(self):
        lim = Limits(max_collection_size=2)
        assert oversized(ListData((num(1), num(2), num(3))), lim)
        assert not oversized(ListData((num(1), num(2))), lim)
        assert oversized(
            RecordData.of({"a": num(1), "b": num(2), "c": num(3)}), lim
        )

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            Limits(max_significant_digits=0)

    def test_truth_values_never_oversized(self):
        # bool is an int subclass, but no Number, word or collection.
        lim = Limits(max_significant_digits=1, max_word_length=1, max_collection_size=1)
        assert not oversized(True, lim)
        assert not oversized(False, lim)

    def test_array_at_the_collection_bound(self):
        lim = Limits(max_collection_size=3)
        assert not oversized(ArrayData((num(1), num(2), num(3))), lim)
        assert oversized(ArrayData((num(1), num(2), num(3), num(4))), lim)

    def test_word_of_exactly_the_length_bound(self):
        lim = Limits()
        assert not oversized("w" * lim.max_word_length, lim)
        assert oversized("w" * (lim.max_word_length + 1), lim)


# ---------------------------------------------------------------------------
# values and records


class TestValuesAndRecords:
    def test_record_equality_ignores_order(self):
        r1 = RecordData.of({"a": num(1), "b": num(2)})
        r2 = RecordData.of({"b": num(2), "a": num(1)})
        assert r1 == r2
        assert RecordBody.of({"a": NUMBER, "b": WORD}) == RecordBody.of(
            {"b": WORD, "a": NUMBER}
        )

    def test_get_of_a_missing_attribute_raises(self):
        record = RecordData.of({"a": num(1)})
        assert record.get("a") == num(1)
        with pytest.raises(KeyError):
            record.get("b")
        with pytest.raises(KeyError):
            RecordBody.of({"a": NUMBER}).get("b")

    def test_find_has_and_get_of_a_false_item(self):
        record = RecordData.of({"flag": False, "xs": ListData(())})
        assert record.find("flag") is False
        assert record.has("flag") and record.get("flag") is False
        assert record.find("xs") == ListData(())
        assert record.find("other") is None and not record.has("other")
        with pytest.raises(KeyError):
            record.get("other")
        body = RecordBody.of({"flag": BOOLEAN})
        assert body.find("flag") is BOOLEAN and body.find("other") is None
        with pytest.raises(KeyError):
            body.get("other")

    def test_omega_is_a_singleton(self):
        assert Value(OMEGA, LangType(NUMBER, TT)).content is OMEGA

    def test_value_composite(self):
        val = Value(num(3), LangType(NUMBER, TT))
        assert val.composite() == Composite(num(3), NUMBER)
        with pytest.raises(ValueError):
            Value(OMEGA, LangType(NUMBER, TT)).composite()

    def test_abstract_error_word_restrictions(self):
        with pytest.raises(ValueError):
            AbstractError("")
        with pytest.raises(ValueError):
            AbstractError("OK")
