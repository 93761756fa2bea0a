"""Runtime value universe: data, bodies, composites, transfers, types, values.

Every datum travels together with a structural descriptor (its body) inside a
composite.  A type pairs a body with a transfer; transfers whose results are
Boolean composites act as integrity constraints (yokes).  Everything here is
immutable and freely shareable.

Certification rule: the public constructors of `Composite`, `ListData` and
`ArrayData` are the trust boundary and check the datum/body pairing (and the
homogeneity of a collection) on every call.  The evaluator, which derives a
result's body from parts that are already certified, builds those results
with the `_unchecked_*` constructors instead, so a value is certified once
and not on every touch.  `Value` keeps the composite it was bound from for
the same reason.

Lean numbers: the values every operation builds are cheap.  Numbers,
composites and number, list and array data are slotted.  `Number(coeff,
exp)` checks the normal form, but `Number.make`, which normalizes, builds
its result unchecked, as the evaluator does the data and composites it
derives.  `Number.sum` and `Number.max` fold a sequence in one pass over
its coefficients.  The size rule in `oversized` never writes a number
out: a coefficient's bit length decides it, and only a coefficient within
a bit per digit of the bound is compared with a cached power of ten.
There are exactly three simple bodies, `BOOLEAN`, `NUMBER` and `WORD`:
`SimpleBody(name)`, `copy` and `pickle` all return the canonical instance,
so the evaluator tests a body with `is`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Mapping, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# abstract errors


@dataclass(frozen=True)
class AbstractError:
    """An error word, stored in state registers and returned by evaluation."""

    word: str

    def __post_init__(self) -> None:
        if not self.word or self.word == "OK":
            raise ValueError("an abstract error needs a non-'OK' word")

    def __str__(self) -> str:
        return self.word


DIVISION_BY_ZERO = AbstractError("division-by-zero")
OVERFLOW = AbstractError("overflow")
NUMBER_EXPECTED = AbstractError("number-expected")
WORD_EXPECTED = AbstractError("word-expected")
BOOLEAN_EXPECTED = AbstractError("Boolean-expected")
LIST_EXPECTED = AbstractError("list-expected")
ARRAY_EXPECTED = AbstractError("array-expected")
RECORD_EXPECTED = AbstractError("record-expected")
INDEX_OUT_OF_RANGE = AbstractError("index-out-of-range")
ATTRIBUTE_NOT_PRESENT = AbstractError("attribute-not-present")
ATTRIBUTE_ALREADY_PRESENT = AbstractError("attribute-already-present")
IDENTIFIER_NOT_DECLARED = AbstractError("identifier-not-declared")
IDENTIFIER_NOT_FREE = AbstractError("identifier-not-free")
VARIABLE_NOT_INITIALIZED = AbstractError("variable-not-initialized")
TYPE_NOT_DEFINED = AbstractError("type-not-defined")
NOT_A_RECORD_TYPE = AbstractError("not-a-record-type")
NO_COHERENCE = AbstractError("no-coherence")
A_YOKE_EXPECTED = AbstractError("a-yoke-expected")
YOKE_NOT_SATISFIED = AbstractError("yoke-not-satisfied")
PARAMETER_TYPE_MISMATCH = AbstractError("parameter-type-mismatch")
PARAMETER_LIST_MISMATCH = AbstractError("parameter-list-mismatch")
PROCEDURE_NOT_DECLARED = AbstractError("procedure-not-declared")
RETURN_TYPE_MISMATCH = AbstractError("return-type-mismatch")
EMPTY_LIST = AbstractError("empty-list")


# ---------------------------------------------------------------------------
# exact decimal numbers


@dataclass(frozen=True, slots=True)
class Number:
    """An exact decimal number coeff * 10**exp.

    Normalized so that zero is (0, 0) and a nonzero coeff is never divisible
    by 10.  Arithmetic is exact; a quotient that has no finite decimal
    representation is reported as None and surfaces as an overflow.
    """

    coeff: int
    exp: int

    def __post_init__(self) -> None:
        if self.coeff == 0:
            if self.exp != 0:
                raise ValueError("zero must be Number(0, 0)")
        elif self.coeff % 10 == 0:
            raise ValueError("coefficient not normalized")

    @staticmethod
    def make(coeff: int, exp: int = 0) -> "Number":
        """The number coeff * 10**exp in normal form."""
        if coeff == 0:
            return ZERO
        while coeff % 10 == 0:
            coeff //= 10
            exp += 1
        return _unchecked_number(coeff, exp)

    @staticmethod
    def parse(text: str) -> "Number":
        negative = text.startswith("-")
        body = text[1:] if negative else text
        if "." in body:
            whole, frac = body.split(".", 1)
        else:
            whole, frac = body, ""
        if not (whole + frac).isdigit():
            raise ValueError(f"not a decimal literal: {text!r}")
        coeff = int(whole + frac) if whole + frac else 0
        return Number.make(-coeff if negative else coeff, -len(frac))

    @staticmethod
    def from_int(value: int) -> "Number":
        return Number.make(value, 0)

    def as_fraction(self) -> Fraction:
        if self.exp >= 0:
            return Fraction(self.coeff * 10**self.exp)
        return Fraction(self.coeff, 10 ** -self.exp)

    def digits(self) -> int:
        """Decimal digit positions needed to write the number out in full."""
        if self.coeff == 0:
            return 1
        n = len(str(abs(self.coeff)))
        if self.exp >= 0:
            return n + self.exp
        return max(n, -self.exp)

    def text(self) -> str:
        sign = "-" if self.coeff < 0 else ""
        magnitude = abs(self.coeff)
        if self.exp >= 0:
            return sign + str(magnitude) + "0" * self.exp
        s = str(magnitude)
        point = len(s) + self.exp
        if point <= 0:
            return sign + "0." + "0" * (-point) + s
        return sign + s[:point] + "." + s[point:]

    def add(self, other: "Number") -> "Number":
        a, x, b, y = self.coeff, self.exp, other.coeff, other.exp
        if x == y:
            return Number.make(a + b, x)
        if x > y:
            return Number.make(a * 10 ** (x - y) + b, y)
        return Number.make(a + b * 10 ** (y - x), x)

    def sub(self, other: "Number") -> "Number":
        return self.add(other.neg())

    def mul(self, other: "Number") -> "Number":
        return Number.make(self.coeff * other.coeff, self.exp + other.exp)

    def divide(self, other: "Number") -> Optional["Number"]:
        """Exact quotient, or None when it is not a finite decimal."""
        if other.coeff == 0:
            raise ZeroDivisionError("division of Number by zero")
        quotient = Fraction(self.coeff, other.coeff)
        den = quotient.denominator
        twos = 0
        while den % 2 == 0:
            den //= 2
            twos += 1
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den != 1:
            return None
        shift = max(twos, fives)
        coeff = quotient.numerator * 2 ** (shift - twos) * 5 ** (shift - fives)
        return Number.make(coeff, self.exp - other.exp - shift)

    def neg(self) -> "Number":
        return _unchecked_number(-self.coeff, self.exp)

    def abs(self) -> "Number":
        return _unchecked_number(abs(self.coeff), self.exp)

    def lt(self, other: "Number") -> bool:
        a, x, b, y = self.coeff, self.exp, other.coeff, other.exp
        if x == y:
            return a < b
        if x > y:
            return a * 10 ** (x - y) < b
        return a < b * 10 ** (y - x)

    @staticmethod
    def sum(numbers: Sequence["Number"]) -> "Number":
        """The sum of a non-empty sequence, in one pass: each coefficient is
        scaled to the least exponent seen so far, and the total is
        normalized once at the end."""
        total, exp = 0, numbers[0].exp
        for number in numbers:
            coeff, e = number.coeff, number.exp
            if e == exp:
                total += coeff
            elif e > exp:
                total += coeff * 10 ** (e - exp)
            else:
                total = total * 10 ** (exp - e) + coeff
                exp = e
        return Number.make(total, exp)

    @staticmethod
    def max(numbers: Sequence["Number"]) -> "Number":
        """The largest number of a non-empty sequence, in one pass over
        the coefficients, as `sum` scales them."""
        best = numbers[0]
        top, exp = best.coeff, best.exp
        for number in numbers:
            coeff, e = number.coeff, number.exp
            if e > exp:
                coeff *= 10 ** (e - exp)
            elif e < exp:
                top *= 10 ** (exp - e)
                exp = e
            if coeff > top:
                best, top = number, coeff
        return best

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_integer(self) -> bool:
        return self.exp >= 0

    def to_int(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self.text()} is not an integer")
        return self.coeff * 10**self.exp

    def __str__(self) -> str:
        return self.text()


_new = object.__new__
_set_coeff, _set_exp = Number.coeff.__set__, Number.exp.__set__


def _unchecked_number(coeff: int, exp: int) -> Number:
    """`Number(coeff, exp)` for a pair already in normal form."""
    number = _new(Number)
    _set_coeff(number, coeff)
    _set_exp(number, exp)
    return number


ZERO = Number(0, 0)


# ---------------------------------------------------------------------------
# bodies


class Body:
    """Structural descriptor of a datum."""


_SIMPLE_BODIES: dict[str, "SimpleBody"] = {}


@dataclass(frozen=True)
class SimpleBody(Body):
    """One of exactly three instances, one per name, so `is` decides equality."""

    name: str  # 'Boolean' | 'number' | 'word'

    def __new__(cls, name: str) -> "SimpleBody":
        body = _SIMPLE_BODIES.get(name)
        if body is None:
            if name not in ("Boolean", "number", "word"):
                raise ValueError(f"no simple body is called {name!r}")
            body = _SIMPLE_BODIES[name] = _new(cls)
        return body

    def __reduce__(self):
        return SimpleBody, (self.name,)


@dataclass(frozen=True)
class ListBody(Body):
    element: Body


@dataclass(frozen=True)
class ArrayBody(Body):
    element: Body


class _Attributes:
    """A record's attribute map, the `fields` of a record body or datum:
    (name, item) pairs stored sorted by name, so equality ignores written
    order."""

    __slots__ = ()

    @classmethod
    def of(cls, mapping: Mapping[str, Any]):
        return cls(tuple(sorted(mapping.items())))

    def attributes(self) -> dict[str, Any]:
        return dict(self.fields)

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.fields)

    def get(self, name: str):
        for n, item in self.fields:
            if n == name:
                return item
        raise KeyError(name)


@dataclass(frozen=True)
class RecordBody(_Attributes, Body):
    fields: tuple[tuple[str, Body], ...]

    def with_added(self, name: str, body: Body) -> "RecordBody":
        return RecordBody.of({**self.attributes(), name: body})

    def with_removed(self, name: str) -> "RecordBody":
        remaining = self.attributes()
        del remaining[name]
        return RecordBody.of(remaining)


BOOLEAN = SimpleBody("Boolean")
NUMBER = SimpleBody("number")
WORD = SimpleBody("word")


# ---------------------------------------------------------------------------
# data


class Data:
    """A runtime datum: boolean, number, word, list, array or record."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolData(Data):
    value: bool


@dataclass(frozen=True, slots=True)
class NumberData(Data):
    value: Number


@dataclass(frozen=True)
class WordData(Data):
    text: str


@dataclass(frozen=True, slots=True)
class ListData(Data):
    items: tuple[Data, ...]

    def __post_init__(self) -> None:
        body_of(self)  # raises on a provably heterogeneous collection


@dataclass(frozen=True, slots=True)
class ArrayData(Data):
    """Array indexed 1..n; item with index i sits at items[i - 1]."""

    items: tuple[Data, ...]

    def __post_init__(self) -> None:
        body_of(self)


@dataclass(frozen=True)
class RecordData(_Attributes, Data):
    fields: tuple[tuple[str, Data], ...]


# Unchecked construction, for results whose pairing the caller has derived
# from certified parts; everything else goes through the checking
# constructors.  A slot is set through its descriptor, which also skips the
# frozen dataclass's `object.__setattr__` per field.
_set_value = NumberData.value.__set__
_set_list_items = ListData.items.__set__
_set_array_items = ArrayData.items.__set__


def _number_data(value: Number) -> NumberData:
    dat = _new(NumberData)
    _set_value(dat, value)
    return dat


def _unchecked_list(items: tuple) -> ListData:
    dat = _new(ListData)
    _set_list_items(dat, items)
    return dat


def _unchecked_array(items: tuple) -> ArrayData:
    dat = _new(ArrayData)
    _set_array_items(dat, items)
    return dat


def num(value: Union[int, str]) -> NumberData:
    if isinstance(value, int):
        return NumberData(Number.from_int(value))
    return NumberData(Number.parse(value))


def word(text: str) -> WordData:
    return WordData(text)


def body_of(dat: Data) -> Optional[Body]:
    """Best-effort descriptor; None when empty collections leave it open.

    Raises ValueError for a collection whose elements provably disagree.
    """
    match dat:
        case BoolData():
            return BOOLEAN
        case NumberData():
            return NUMBER
        case WordData():
            return WORD
        case ListData(items) | ArrayData(items):
            element: Optional[Body] = None
            for item in items:
                b = body_of(item)
                if b is None:
                    continue
                if element is None:
                    element = b
                elif element != b:
                    raise ValueError("collection elements have different bodies")
            if element is None:
                return None
            return ListBody(element) if isinstance(dat, ListData) else ArrayBody(element)
        case RecordData(fields):
            out: dict[str, Body] = {}
            for name, d in fields:
                b = body_of(d)
                if b is None:
                    return None
                out[name] = b
            return RecordBody.of(out)
    raise TypeError(f"not a datum: {dat!r}")


def clan_bo_member(dat: Data, bod: Body) -> bool:
    """Does the datum structurally match the body?

    Empty lists and arrays match any element body.
    """
    match dat:
        case BoolData():
            return bod is BOOLEAN
        case NumberData():
            return bod is NUMBER
        case WordData():
            return bod is WORD
        case ListData(items):
            return isinstance(bod, ListBody) and all(
                clan_bo_member(item, bod.element) for item in items
            )
        case ArrayData(items):
            return isinstance(bod, ArrayBody) and all(
                clan_bo_member(item, bod.element) for item in items
            )
        case RecordData(fields):
            if not isinstance(bod, RecordBody):
                return False
            attrs = bod.attributes()
            if set(attrs) != {name for name, _ in fields}:
                return False
            return all(clan_bo_member(d, attrs[name]) for name, d in fields)
    return False


# ---------------------------------------------------------------------------
# composites, transfers, types, values


@dataclass(frozen=True, slots=True)
class Composite:
    """A certified datum/body pair: construction checks the pairing."""

    dat: Data
    bod: Body

    def __post_init__(self) -> None:
        if not clan_bo_member(self.dat, self.bod):
            raise ValueError("data does not match body")


_set_dat, _set_bod = Composite.dat.__set__, Composite.bod.__set__


def _unchecked_composite(dat: Data, bod: Body) -> Composite:
    com = _new(Composite)
    _set_dat(com, dat)
    _set_bod(com, bod)
    return com


@dataclass(frozen=True)
class Transfer:
    """A total map over composites-or-errors, tagged with its source text.

    Two transfers compare equal when their source texts do: the text of a
    transfer expression determines its behaviour.
    """

    source: str
    fn: Callable[[Composite], Union[Composite, AbstractError]] = field(
        compare=False, repr=False
    )
    # True for `all-list T` and `all-array T`: their verdict on a collection
    # of the right kind is T's on every element, so on a collection of one
    # element it is T's verdict on that element.
    elementwise: bool = field(default=False, compare=False, repr=False)

    def apply(self, x: Union[Composite, AbstractError]) -> Union[Composite, AbstractError]:
        return apply_transfer(self, x)


def apply_transfer(
    tra: Transfer, x: Union[Composite, AbstractError]
) -> Union[Composite, AbstractError]:
    """Errors pass through untouched; composites go through the transfer."""
    if isinstance(x, AbstractError):
        return x
    return tra.fn(x)


TRUE_COMPOSITE = Composite(BoolData(True), BOOLEAN)
FALSE_COMPOSITE = Composite(BoolData(False), BOOLEAN)

TT = Transfer("true", lambda com: TRUE_COMPOSITE)


def boo_composite(value: bool) -> Composite:
    return TRUE_COMPOSITE if value else FALSE_COMPOSITE


def is_boo_composite(com: Union[Composite, AbstractError]) -> bool:
    return (
        isinstance(com, Composite)
        and com.bod is BOOLEAN
        and isinstance(com.dat, BoolData)
    )


@dataclass(frozen=True, slots=True)
class LangType:
    """A (body, transfer) pair; its clan holds the composites it admits."""

    bod: Body
    tra: Transfer


def clan_tr_member(com: Composite, tra: Transfer) -> bool:
    verdict = apply_transfer(tra, com)
    return is_boo_composite(verdict) and verdict.dat.value


def clan_ty_member(com: Composite, typ: LangType) -> bool:
    """A composite is certified against its own body, so with an equal body
    it is in the type's clan exactly when the transfer accepts it."""
    return (com.bod is typ.bod or com.bod == typ.bod) and clan_tr_member(com, typ.tra)


class _Omega:
    """The pseudo-datum marking a declared but uninitialized variable."""

    _instance: Optional["_Omega"] = None

    def __new__(cls) -> "_Omega":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Ω"


OMEGA = _Omega()


@dataclass(frozen=True, slots=True)
class Value:
    """What a variable is bound to: a datum (or Ω) together with its type.

    `com` is the composite the value was bound from, when the binder already
    holds one pairing `content` with `typ.bod`; without it `composite()`
    builds, and so checks, a fresh one.
    """

    content: Union[Data, _Omega]
    typ: LangType
    com: Optional[Composite] = field(default=None, compare=False, repr=False)

    def composite(self) -> Composite:
        if self.content is OMEGA:
            raise ValueError("uninitialized value has no composite")
        if self.com is not None:
            return self.com
        return Composite(self.content, self.typ.bod)


_set_content, _set_typ, _set_com = Value.content.__set__, Value.typ.__set__, Value.com.__set__


def _unchecked_value(
    content: Union[Data, _Omega], typ: LangType, com: Optional[Composite]
) -> Value:
    """`Value(content, typ, com)` without the frozen dataclass's per-field
    `object.__setattr__`; `com`, if given, pairs `content` with `typ.bod`."""
    val = _new(Value)
    _set_content(val, content)
    _set_typ(val, typ)
    _set_com(val, com)
    return val


# ---------------------------------------------------------------------------
# coherence and size limits


def coherent(b1: Body, b2: Body) -> bool:
    """Equal bodies, or record bodies where one attribute map extends the other."""
    if b1 is b2 or b1 == b2:
        return True
    if isinstance(b1, RecordBody) and isinstance(b2, RecordBody):
        a1, a2 = b1.attributes(), b2.attributes()
        if set(a1) <= set(a2):
            return all(a2[name] == body for name, body in a1.items())
        if set(a2) <= set(a1):
            return all(a1[name] == body for name, body in a2.items())
    return False


@dataclass(frozen=True)
class Limits:
    """Size bounds applied to freshly computed data (top level only)."""

    max_significant_digits: int = 20
    max_word_length: int = 10_000
    max_collection_size: int = 100_000

    def __post_init__(self) -> None:
        if min(self.max_significant_digits, self.max_word_length, self.max_collection_size) < 1:
            raise ValueError("limits must be strictly positive")


@lru_cache(maxsize=64)
def _power_of_ten(k: int) -> int:
    return 10**k


def oversized(dat: Data, lim: Limits) -> bool:
    """Does a freshly computed datum exceed the limits?  A number does when
    `digits()` exceeds `max_significant_digits`."""
    match dat:
        case NumberData(value):
            coeff, exp, limit = value.coeff, value.exp, lim.max_significant_digits
            # The digit positions left for the coefficient; zero has exponent 0.
            room = limit - exp if exp > 0 else limit
            if exp < -limit or room <= 0:
                return True
            # 8**room < 10**room < 16**room, so the bit length decides unless
            # the coefficient has between 3 and 4 bits per digit of room.
            bits = coeff.bit_length()
            if bits <= 3 * room:
                return False
            return bits > 4 * room or abs(coeff) >= _power_of_ten(room)
        case WordData(text):
            return len(text) > lim.max_word_length
        case ListData(items) | ArrayData(items):
            return len(items) > lim.max_collection_size
        case RecordData(fields):
            return len(fields) > lim.max_collection_size
    return False
