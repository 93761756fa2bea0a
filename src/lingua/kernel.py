"""Runtime value universe: data, bodies, composites, transfers, types, values.

Every datum travels together with a structural descriptor (its body) inside a
composite.  A type pairs a body with a transfer; transfers whose results are
Boolean composites act as integrity constraints (yokes).  Everything here is
immutable and freely shareable.

Certification rule: the public constructors of `Composite`, `ListData`,
`ArrayData` and `Value` are the trust boundary and check, on every call,
the datum/body pairing, the homogeneity of a collection and a value's
transfer.  The evaluator, which derives a result's body from parts that
are already certified, builds those results with the `_unchecked_*`
constructors instead, so a value is certified once and not on every
touch.

Lean numbers: the values every operation builds are cheap.  A simple
datum is its own value: a truth value is the Python `bool` itself, a
word the `str` itself, and a `Number` the number datum itself.  Every
datum, body, composite, transfer, type and value class is a frozen
slotted record (`lingua.record`).  `Number(coeff, exp)`
checks the normal form, but `Number.make`, which normalizes, builds its
result unchecked, as the evaluator does the data and composites it
derives.  `Number.add`, `sub` and `mul` build their result in their own
frame, and call `make` only for a coefficient that ends in 0;
`Number.divide` reduces the coefficients' quotient with `math.gcd`, with
no `Fraction`; `Number.sum` and `Number.max` fold a sequence in one pass
over its coefficients.  `decimal` is imported only where a number has
more digits than Python converts between int and str.  The
size rule in `oversized` never writes a number out: a coefficient's bit
length decides it, and only a coefficient within a bit per digit of the
bound is compared with a cached power of ten.
Bodies are interned: every body is built through one table keyed by its
class and parts, so equal bodies are one object.  `ListBody(NUMBER)`,
`copy` and `pickle` all return the canonical instance, there are exactly
three simple bodies, `BOOLEAN`, `NUMBER` and `WORD`, and the kernel and
evaluator test bodies with `is`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import gcd
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .record import record


# ---------------------------------------------------------------------------
# abstract errors


class AbstractError(metaclass=record):
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
# data; a truth value, number or word is its own datum


class Data:
    """A runtime datum that is not a plain Python value: a number, list,
    array or record.  A truth value is a `bool` and a word a `str`."""

    __slots__ = ()


class Number(Data, metaclass=record):
    """An exact decimal number coeff * 10**exp, and the number datum itself.

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
            # Strip the largest chunk of 10**(2**j) that divides: a run of
            # k zeros goes in O(log k) chunks, not in k divisions by 10.
            step = 1
            while coeff % 10 ** (2 * step) == 0:
                step *= 2
            coeff //= 10**step
            exp += step
        return _unchecked_number(coeff, exp)

    @staticmethod
    def parse(text: str) -> "Number":
        negative = text.startswith("-")
        body = text[1:] if negative else text
        whole, _, frac = body.partition(".")
        digits = whole + frac
        if not digits.isdecimal():
            raise ValueError(f"not a decimal literal: {text!r}")
        significant = digits.rstrip("0")  # the normal form, read off the text
        if not significant:
            return ZERO
        try:
            coeff = int(significant)
        except ValueError:  # more digits than Python converts from str
            from decimal import Decimal

            coeff = int(Decimal(significant))
        exp = len(digits) - len(significant) - len(frac)
        return _unchecked_number(-coeff if negative else coeff, exp)

    @staticmethod
    def from_int(value: int) -> "Number":
        return Number.make(value, 0)

    def digits(self) -> int:
        """Decimal digit positions needed to write the number out in full."""
        if self.coeff == 0:
            return 1
        n = len(_digit_string(abs(self.coeff)))
        if self.exp >= 0:
            return n + self.exp
        return max(n, -self.exp)

    def text(self) -> str:
        sign = "-" if self.coeff < 0 else ""
        s = _digit_string(abs(self.coeff))
        if self.exp >= 0:
            return sign + s + "0" * self.exp
        point = len(s) + self.exp
        if point <= 0:
            return sign + "0." + "0" * (-point) + s
        return sign + s[:point] + "." + s[point:]

    def add(self, other: "Number") -> "Number":
        a, x, b, y = self.coeff, self.exp, other.coeff, other.exp
        if x == y:
            coeff, exp = a + b, x
        elif x > y:
            coeff, exp = a * 10 ** (x - y) + b, y
        else:
            coeff, exp = a + b * 10 ** (y - x), x
        if coeff % 10 == 0:
            return Number.make(coeff, exp)
        number = _new(Number)
        _set_coeff(number, coeff)
        _set_exp(number, exp)
        return number

    def sub(self, other: "Number") -> "Number":
        a, x, b, y = self.coeff, self.exp, other.coeff, other.exp
        if x == y:
            coeff, exp = a - b, x
        elif x > y:
            coeff, exp = a * 10 ** (x - y) - b, y
        else:
            coeff, exp = a - b * 10 ** (y - x), x
        if coeff % 10 == 0:
            return Number.make(coeff, exp)
        number = _new(Number)
        _set_coeff(number, coeff)
        _set_exp(number, exp)
        return number

    def mul(self, other: "Number") -> "Number":
        coeff = self.coeff * other.coeff
        if coeff % 10 == 0:
            return Number.make(coeff, self.exp + other.exp)
        number = _new(Number)
        _set_coeff(number, coeff)
        _set_exp(number, self.exp + other.exp)
        return number

    def divide(self, other: "Number") -> Optional["Number"]:
        """Exact quotient, or None when it is not a finite decimal: the
        fraction of the coefficients in lowest terms, its sign on the
        numerator, must have a denominator of twos and fives only."""
        if other.coeff == 0:
            raise ZeroDivisionError("division of Number by zero")
        common = gcd(self.coeff, other.coeff)
        numerator, den = self.coeff // common, other.coeff // common
        if den < 0:
            numerator, den = -numerator, -den
        twos = (den & -den).bit_length() - 1  # the lowest set bit's place
        den >>= twos
        fives = 0
        while den % 5 == 0:
            den //= 5
            fives += 1
        if den != 1:
            return None
        shift = max(twos, fives)
        coeff = numerator * 2 ** (shift - twos) * 5 ** (shift - fives)
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

    def __str__(self) -> str:
        return self.text()


def _digit_string(magnitude: int) -> str:
    """`str(magnitude)`, also past Python's limit on int-to-str digits."""
    try:
        return str(magnitude)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(magnitude))


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


# Every body is interned in this table, keyed by its class and parts, so
# equal bodies are one object and `is` decides body equality.  The table is
# strong: a body is never freed.  New shapes come only from new source text,
# or from recursion whose depth fuel bounds, so it grows only with what the
# programs run in a process write (21 bodies after all four benchmark
# corpora).  A weak table would need a `__weakref__` slot on every body and
# a slower lookup on every construction.
_BODIES: dict[tuple, "Body"] = {}


class Body:
    """Structural descriptor of a datum, interned: constructing a body
    whose class and parts are those of an existing one returns that one,
    and pickling and copying construct it again.  Each body class has one
    field, so its key is the same whether that part is given by position
    or by keyword.  Equality and hashing go by identity, so they never
    recurse through a body's parts."""

    __slots__ = ()
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, *parts, **named) -> "Body":
        key = (cls, *parts, *named.values())
        body = _BODIES.get(key)
        if body is None:
            body = _BODIES[key] = _new(cls)
        return body


class SimpleBody(Body, metaclass=record):
    name: str  # 'Boolean' | 'number' | 'word'

    def __post_init__(self) -> None:
        if self.name not in ("Boolean", "number", "word"):
            raise ValueError(f"no simple body is called {self.name!r}")


class ListBody(Body, metaclass=record):
    element: Body


class ArrayBody(Body, metaclass=record):
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

    def find(self, name: str):
        """The item named `name`, or None: no body or datum is None."""
        for n, item in self.fields:
            if n == name:
                return item
        return None

    def has(self, name: str) -> bool:
        return self.find(name) is not None

    def get(self, name: str):
        item = self.find(name)
        if item is None:
            raise KeyError(name)
        return item


class RecordBody(_Attributes, Body, metaclass=record):
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
# collection and record data


class ListData(Data, metaclass=record):
    """A list; the constructor keeps its items as a tuple, so no caller can
    change a list after it is certified."""

    items: tuple[Data, ...]

    def __post_init__(self) -> None:
        _set_list_items(self, tuple(self.items))
        body_of(self)  # raises on a provably heterogeneous collection


class ArrayData(Data, metaclass=record):
    """Array indexed 1..n; item with index i sits at items[i - 1].  Its
    items are a tuple, as a list's are."""

    items: tuple[Data, ...]

    def __post_init__(self) -> None:
        _set_array_items(self, tuple(self.items))
        body_of(self)


class RecordData(_Attributes, Data, metaclass=record):
    fields: tuple[tuple[str, Data], ...]


# Unchecked construction, for results whose pairing the caller has derived
# from certified parts; everything else goes through the checking
# constructors.  A slot is set through its descriptor, as the checking
# constructor sets it, but `__post_init__`'s check is skipped.
_set_list_items = ListData.items.__set__
_set_array_items = ArrayData.items.__set__


def _unchecked_list(items: tuple) -> ListData:
    dat = _new(ListData)
    _set_list_items(dat, items)
    return dat


def _unchecked_array(items: tuple) -> ArrayData:
    dat = _new(ArrayData)
    _set_array_items(dat, items)
    return dat


def num(value: Union[int, str]) -> Number:
    if isinstance(value, int):
        return Number.from_int(value)
    return Number.parse(value)


def _simple_body(dat: Data) -> Optional[Body]:
    """The body of a truth value, number or word; None for anything else."""
    for cls, bod in ((bool, BOOLEAN), (Number, NUMBER), (str, WORD)):
        if isinstance(dat, cls):
            return bod
    return None


_END = object()  # past a collection's last part; or no part left yet, in `body_of`


def body_of(dat: Data) -> Optional[Body]:
    """Best-effort descriptor; None when empty collections leave it open.

    Raises ValueError for a collection whose elements provably disagree.
    The walk keeps the collections it is inside on an explicit stack, so
    any depth costs no Python frame per level; it visits the parts in
    order, and raises, or gives up on a record, where a recursive walk
    would.
    """
    frames: list = []  # per collection entered: (datum, parts left, bodies found)
    while True:
        if isinstance(dat, (ListData, ArrayData, RecordData)):
            parts = [d for _, d in dat.fields] if isinstance(dat, RecordData) else dat.items
            frames.append((dat, iter(parts), []))
            bod = _END
        elif (bod := _simple_body(dat)) is None:
            raise TypeError(f"not a datum: {dat!r}")
        while frames:  # `bod`: the body of the part just left, if any
            col, parts, found = frames[-1]
            if bod is None and isinstance(col, RecordData):
                frames.pop()  # an open attribute leaves the record open
                continue
            if bod is not None and bod is not _END:
                if isinstance(col, RecordData) or not found:
                    found.append(bod)
                elif found[0] is not bod:
                    raise ValueError("collection elements have different bodies")
            dat = next(parts, _END)
            if dat is not _END:
                break
            frames.pop()
            if isinstance(col, RecordData):
                bod = RecordBody.of(dict(zip([name for name, _ in col.fields], found)))
            elif found:
                bod = (ListBody if isinstance(col, ListData) else ArrayBody)(found[0])
            else:
                bod = None
        else:
            return bod


def clan_bo_member(dat: Data, bod: Body) -> bool:
    """Does the datum structurally match the body?

    Empty lists and arrays match any element body.  The parts are matched
    from an explicit stack, so any depth costs no Python frame per level.
    """
    todo = [(dat, bod)]
    while todo:
        dat, bod = todo.pop()
        if isinstance(dat, (ListData, ArrayData)):
            if not isinstance(bod, ListBody if isinstance(dat, ListData) else ArrayBody):
                return False
            todo += zip(dat.items, repeat(bod.element))
        elif isinstance(dat, RecordData):
            if not isinstance(bod, RecordBody):
                return False
            attrs = bod.attributes()
            if set(attrs) != {name for name, _ in dat.fields}:
                return False
            todo += [(d, attrs[name]) for name, d in dat.fields]
        elif bod is None or _simple_body(dat) is not bod:
            return False
    return True


# ---------------------------------------------------------------------------
# composites, transfers, types, values


class Composite(metaclass=record):
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


class Transfer(metaclass=record):
    """A total map over composites-or-errors, tagged with its source text.

    Two transfers compare equal when their source texts do: the text of a
    transfer expression determines its behaviour.
    """

    source: str
    fn: Callable[[Composite], Union[Composite, AbstractError]]
    # True for `all-list T` and `all-array T`: their verdict on a collection
    # of the right kind is T's on every element, so on a collection of one
    # element it is T's verdict on that element.
    elementwise: bool = False

    def __eq__(self, other: object) -> bool:
        return self.source == other.source if other.__class__ is Transfer else NotImplemented

    def __hash__(self) -> int:
        return hash(self.source)

    def __repr__(self) -> str:
        return f"Transfer(source={self.source!r})"

    def apply(self, x: Union[Composite, AbstractError]) -> Union[Composite, AbstractError]:
        return apply_transfer(self, x)


def apply_transfer(
    tra: Transfer, x: Union[Composite, AbstractError]
) -> Union[Composite, AbstractError]:
    """Errors pass through untouched; composites go through the transfer."""
    if isinstance(x, AbstractError):
        return x
    return tra.fn(x)


TRUE_COMPOSITE = Composite(True, BOOLEAN)
FALSE_COMPOSITE = Composite(False, BOOLEAN)

TT = Transfer("true", lambda com: TRUE_COMPOSITE)


def boo_composite(value: bool) -> Composite:
    return TRUE_COMPOSITE if value else FALSE_COMPOSITE


def is_boo_composite(com: Union[Composite, AbstractError]) -> bool:
    return isinstance(com, Composite) and com.bod is BOOLEAN


class LangType(metaclass=record):
    """A (body, transfer) pair; its clan holds the composites it admits."""

    bod: Body
    tra: Transfer


def clan_tr_member(com: Composite, tra: Transfer) -> bool:
    if tra is TT:  # its verdict is true for every composite
        return True
    verdict = apply_transfer(tra, com)
    return isinstance(verdict, Composite) and verdict.bod is BOOLEAN and verdict.dat


def clan_ty_member(com: Composite, typ: LangType) -> bool:
    """A composite is certified against its own body, so with the type's
    body it is in the type's clan exactly when the transfer accepts it."""
    return com.bod is typ.bod and clan_tr_member(com, typ.tra)


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


class Value(metaclass=record):
    """What a variable is bound to: a datum (or Ω) together with its type.

    Construction certifies the value: the datum must pair with the type's
    body and satisfy its transfer.  `com`, a slot beside the two fields,
    is that composite, and None exactly for Ω.
    """

    __slots__ = ("com",)
    content: Union[Data, _Omega]
    typ: LangType

    def __post_init__(self) -> None:
        com = None
        if self.content is not OMEGA:
            com = Composite(self.content, self.typ.bod)
            if not clan_tr_member(com, self.typ.tra):
                raise ValueError("value does not satisfy its transfer")
        _set_com(self, com)

    def composite(self) -> Composite:
        if self.com is None:
            raise ValueError("uninitialized value has no composite")
        return self.com


_set_content, _set_typ, _set_com = Value.content.__set__, Value.typ.__set__, Value.com.__set__


def _unchecked_value(
    content: Union[Data, _Omega], typ: LangType, com: Optional[Composite]
) -> Value:
    """`Value(content, typ)` unchecked, for a binder that holds `com`: the
    certified composite of `content` that satisfies `typ`, or None for Ω."""
    val = _new(Value)
    _set_content(val, content)
    _set_typ(val, typ)
    _set_com(val, com)
    return val


# ---------------------------------------------------------------------------
# coherence and size limits


def coherent(b1: Body, b2: Body) -> bool:
    """The same body, or record bodies where one attribute map extends the
    other: its (name, body) pairs, which hash by identity, include the
    other's."""
    if b1 is b2:
        return True
    if isinstance(b1, RecordBody) and isinstance(b2, RecordBody):
        f1, f2 = set(b1.fields), set(b2.fields)
        return f1 <= f2 or f2 <= f1
    return False


class Limits(metaclass=record):
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
    """Does a freshly computed datum exceed the limits?  A number, which
    is its own datum, does when `digits()` would exceed
    `max_significant_digits`; its coefficient and exponent decide that.
    It tests `isinstance`, the number first: a `match` class pattern took
    about five times as long per number."""
    if isinstance(dat, Number):
        coeff, exp = dat.coeff, dat.exp
        limit = lim.max_significant_digits
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
    if isinstance(dat, str):
        return len(dat) > lim.max_word_length
    if isinstance(dat, (ListData, ArrayData)):
        return len(dat.items) > lim.max_collection_size
    if isinstance(dat, RecordData):
        return len(dat.fields) > lim.max_collection_size
    return False
