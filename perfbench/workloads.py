"""Seeded program generators, one per workload.

Every generator builds programs from the reference model in `oracle`, so
each program carries its own expected exit code and state report.  Sizes
are stratified rather than drawn independently: each run holds the same
share of small, middle and large programs, and the seed only chooses the
constants, the statement mix and the order.  That keeps the latency
quantiles of one seed close to those of another.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import (
    ArrAt,
    ArrayLit,
    Assign,
    AddAttr,
    AddToArr,
    BOOLEAN_T,
    Bin,
    Bool,
    CallProc,
    ChangeArr,
    ChangeRec,
    FunCall,
    FunDef,
    If,
    IfError,
    ListLit,
    NUMBER,
    NUMBER_T,
    Not,
    Num,
    ProcDef,
    Program,
    Push,
    RecAt,
    RecordLit,
    TAllArray,
    TFold,
    TLess,
    TNum,
    TRecAt,
    TValue,
    Top,
    Type,
    Var,
    While,
    WORD,
    WORD_T,
    Word,
    Yoke,
    array_of,
    below,
    list_of,
    record_of,
)


@dataclass
class Case:
    name: str
    size: str  # the size class the program was drawn from
    text: str
    exit_code: int
    report: list
    steps: int

    @property
    def lines(self) -> int:
        return self.text.count("\n")


def case(name: str, size: str, prg: Program) -> Case:
    code, report, steps = prg.expect()
    return Case(name, size, prg.source(), code, report, steps)


def corpus_hash(texts: list) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(text.encode())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def dec(rng: random.Random, choices) -> Fraction:
    return Fraction(rng.choice(choices))


# -- scalar-loops ----------------------------------------------------------------

SMALL_BOUND = 1_000_000
SMALL_T = Type("small", NUMBER, below(SMALL_BOUND))


def _tri() -> FunDef:
    """Recursive functional procedure: 0 + 1 + ... + k."""
    tri = FunDef("tri", [("k", NUMBER_T)], [("m", NUMBER_T), ("r", NUMBER_T)], [], Var("r"), SMALL_T)
    tri.body = [
        Assign("m", Bin("-", Var("k"), Num(1))),
        If(
            Bin("<", Var("k"), Num(1)),
            [Assign("r", Num(0))],
            [Assign("r", Bin("+", Var("k"), FunCall(tri, ["m"])))],
        ),
    ]
    return tri


def scalar_program(rng: random.Random, iterations: int) -> Program:
    tri = _tri()
    acc = ProcDef(
        "acc", [("d", SMALL_T)], [("t", SMALL_T)], [],
        [Assign("t", Bin("+", Var("t"), Var("d")))],
    )
    s1 = dec(rng, ["0.25", "0.5", "0.75", "1.25", "1.5", "2"])
    m1 = dec(rng, ["0.5", "1.5", "2.5", "0.2"])
    zero_at = rng.randint(1, 8)
    grow = rng.choice([7, 9, 11])
    step = dec(rng, ["1", "2.5", "7", "12.25"])
    last_divisor = rng.choice([0, 3, 4, 8])
    v = Var
    body = [
        Assign("i", Num(0)), Assign("a", Num(0)), Assign("b", Num(rng.randint(0, 9))),
        Assign("q", Num(0)), Assign("z", Num(0)), Assign("g", Num(1)),
        Assign("h", Num(0)), Assign("d", Num(1)), Assign("k", Num(0)),
        Assign("t", Num(0)), Assign("total", Num(0)), Assign("step", Num(step)),
        While(Bin("<", v("i"), Num(iterations)), [
            Assign("i", Bin("+", v("i"), Num(1))),
            Assign("a", Bin("+", v("a"), Num(s1))),
            Assign("b", Bin("-", Bin("*", v("a"), Num(m1)), v("b"))),
            # b / d has no finite decimal form when d is 3, 6 or 7
            Assign("q", Bin("/", v("b"), v("d"))),
            IfError("overflow", [Assign("q", Num(0))]),
            Assign("z", Bin("/", v("a"), Bin("-", v("d"), Num(zero_at)))),
            IfError("division-by-zero", [Assign("z", Num(-1))]),
            # g runs past 20 digits every couple of dozen iterations
            Assign("g", Bin("*", v("g"), Num(grow))),
            IfError("overflow", [Assign("g", Num(1))]),
            # the right operands would fail; the left ones decide
            Assign("c", Bin("and", Bin("<", v("i"), Num(0)), Bin("<", Bin("/", Num(1), Num(0)), Num(1)))),
            Assign("e", Bin("or", Bin("<", Num(0), v("i")), Bin("<", Bin("/", v("q"), Num(0)), Num(1)))),
            If(Bin("<", v("a"), v("b")),
               [Assign("h", Bin("+", v("h"), Num(1)))],
               [Assign("h", Bin("-", v("h"), Num(1)))]),
            If(Bin("<", v("d"), Num(8)),
               [Assign("d", Bin("+", v("d"), Num(1)))],
               [Assign("d", Num(1))]),
            If(Bin("<", v("k"), Num(2)),
               [Assign("k", Bin("+", v("k"), Num(1)))],
               [Assign("k", Num(0))]),
            Assign("t", Bin("+", v("t"), FunCall(tri, ["k"]))),
            CallProc(acc, ["total"], ["step"]),
        ]),
        Assign("last", Bin("/", v("total"), Num(last_divisor))),
    ]
    names = ["i", "a", "b", "q", "z", "g", "h", "d", "k", "t", "total", "last"]
    declared = [(name, NUMBER_T) for name in names]
    declared += [("c", BOOLEAN_T), ("e", BOOLEAN_T), ("step", SMALL_T)]
    type_defs = [("small", f"replace-transfer-in number by value < {SMALL_BOUND} ee")]
    return Program(type_defs, [tri, acc], declared, body)


# -- collection-build --------------------------------------------------------------

BIG_BOUND = 10_000_000
# One call per program, so that the call path is measured on every workload.
SCALE = FunDef("scale", [("p", NUMBER_T)], [], [], Bin("*", Var("p"), Num(2)))


def build_program(rng: random.Random, size: int) -> Program:
    c0 = rng.randint(0, 9)
    c1 = dec(rng, ["1", "2", "3", "0.5", "1.25"])
    c2 = rng.randint(0, 5)
    c3 = dec(rng, ["1", "0.5", "2", "0.25"])
    attrs = 4 + size // 16
    arr_t = Type(
        f"replace-transfer-in array-type number ee by all-array value < {BIG_BOUND} ee ee",
        array_of(NUMBER), TAllArray(below(BIG_BOUND)),
    )
    rec_t = Type(
        f"record-type id as number with value < {BIG_BOUND}, tag as word ee",
        record_of({"id": NUMBER, "tag": WORD}), TLess(TRecAt("id"), TNum(BIG_BOUND)),
    )
    declared = [
        ("a", arr_t), ("l", Type("list-type number ee", list_of(NUMBER))),
        ("r", rec_t), ("i", NUMBER_T), ("x", NUMBER_T),
    ]
    a, l, r, i = Var("a"), Var("l"), Var("r"), Var("i")
    body = [
        Assign("a", ArrayLit([Num(c0)])),
        Assign("l", ListLit(Num(c0))),
        Assign("r", RecordLit([("id", Num(0)), ("tag", Word(f"w{c2}"))])),
        Assign("i", Num(1)),
        While(Bin("<", i, Num(size)), [
            Assign("a", AddToArr(a, Bin("*", i, Num(c1)))),
            Assign("l", Push(Bin("+", i, Num(c2)), l)),
            Assign("i", Bin("+", i, Num(1))),
        ]),
        Assign("i", Num(1)),
        While(Bin("<", i, Num(size // 2)), [
            Assign("a", ChangeArr(a, i, Bin("+", ArrAt(a, i), Num(c3)))),
            Assign("r", ChangeRec(r, "id", Bin("+", RecAt(r, "id"), i))),
            Assign("i", Bin("+", i, Num(1))),
        ]),
    ]
    for j in range(1, attrs + 1):
        body.append(Assign("r", AddAttr(f"f{j}", Bin("*", i, Num(j)), r)))
    body.append(Assign("x", Bin("+", ArrAt(a, Num(size)), Top(l))))
    body.append(Assign("x", FunCall(SCALE, ["x"])))
    return Program([], [SCALE], declared, body)


# -- collection-scan ----------------------------------------------------------------

SCAN_FIELDS = 6


def scan_program(rng: random.Random, size: int) -> Program:
    items = [Num(Fraction(rng.randint(1, 999), rng.choice([1, 2, 4]))) for _ in range(size)]
    fields = [(f"f{j}", Num(rng.randint(0, 99))) for j in range(1, SCAN_FIELDS + 1)]
    picked = rng.sample([name for name, _ in fields], 2)
    rec_text = ", ".join(f"{name} as number" for name, _ in fields)
    declared = [
        ("a", Type("array-type number ee", array_of(NUMBER))),
        ("l", Type("list-type number ee", list_of(NUMBER))),
        ("r", Type(f"record-type {rec_text} ee", record_of({k: NUMBER for k, _ in fields}))),
        ("x", NUMBER_T), ("y", NUMBER_T), ("t", NUMBER_T), ("i", NUMBER_T),
        ("f", BOOLEAN_T),
    ]
    a, r, i = Var("a"), Var("r"), Var("i")
    lst = ListLit(Num(rng.randint(0, 9)))
    for _ in range(3):
        lst = Push(Num(rng.randint(0, 9)), lst)
    body = [
        Assign("a", ArrayLit(items)),
        Assign("l", lst),
        Assign("r", RecordLit(fields)),
        Assign("x", Num(0)), Assign("y", Num(0)), Assign("t", Num(0)),
        Assign("i", Num(1)), Assign("f", Bool(True)),
        While(Bin("<", i, Num(size + 1)), [
            Assign("x", Bin("-", Bin("+", Var("x"), ArrAt(a, i)), ArrAt(a, Bin("-", Num(size + 1), i)))),
            Assign("y", Bin("+", Var("y"), Bin("-", RecAt(r, picked[0]), RecAt(r, picked[1])))),
            Assign("t", Bin("+", Var("t"), Top(Var("l")))),
            If(Var("f"),
               [Yoke("a", TLess(TFold("sum", TValue()), TNum(BIG_BOUND)))],
               [Yoke("a", TLess(TFold("max", TValue()), TNum(BIG_BOUND)))]),
            Assign("f", Not(Var("f"))),
            Assign("i", Bin("+", i, Num(1))),
        ]),
        Assign("x", FunCall(SCALE, ["x"])),
    ]
    return Program([], [SCALE], declared, body)


# -- frontend-bulk --------------------------------------------------------------------

ARRAY_LEN = 8


class _Lines:
    """Straight-line colloquial statements over v1..vN, a, b and w.

    At most one variable term enters each numeric expression and products
    and quotients take literals only, so values drift additively and no
    chain of a thousand lines can reach the 20-digit limit.
    """

    def __init__(self, rng: random.Random, nvars: int, mix: ProcDef):
        self.rng, self.nvars, self.mix = rng, nvars, mix

    def var(self) -> Var:
        return Var(f"v{self.rng.randint(1, self.nvars)}")

    def literal(self) -> Num:
        rng = self.rng
        if rng.random() < 0.7:
            return Num(rng.randint(0, 40))
        return Num(Fraction(rng.randint(-99, 999), rng.choice([10, 100, 4])))

    def constant(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.5:
            return self.literal()
        if roll < 0.8:
            return Bin("*", self.literal(), self.literal())
        return Bin("/", self.literal(), Num(rng.choice([2, 4, 5, 8])))

    def numeric(self):
        rng = self.rng
        if rng.random() < 0.3:
            head = ArrAt(Var("a"), Num(rng.randint(1, ARRAY_LEN)))
        else:
            head = self.var()
        expr = head
        for _ in range(rng.randint(1, 3)):
            term = self.constant()
            if rng.random() < 0.25:
                term = Bin(rng.choice("+-"), term, self.constant())  # parenthesized
            expr = Bin(rng.choice("+-"), expr, term)
        return expr

    def boolean(self):
        rng = self.rng
        left = Bin(rng.choice("<="), self.var(), self.numeric())
        roll = rng.random()
        if roll < 0.4:
            return Bin("and", left, Not(Var("b")))
        if roll < 0.8:
            return Bin("or", Bin("<", self.literal(), self.var()), left)
        return Not(Bin("<", self.var(), self.literal()))

    def statement(self):
        rng = self.rng
        roll = rng.random()
        if roll < 0.70:
            return Assign(self.var().name, self.numeric())
        if roll < 0.80:
            return Assign("b", self.boolean())
        if roll < 0.85:
            return Assign("w", Bin("glue", Word(rng.choice(["ab", "cd", "x"])), Word(rng.choice(["ef", "y", "gh"]))))
        if roll < 0.93:
            return CallProc(self.mix, [self.var().name], [self.var().name, "k1", "k2"])
        index = Num(rng.randint(1, ARRAY_LEN))
        return Assign("a", ChangeArr(Var("a"), index, self.numeric()))


FRONTEND_HEADER_LINES = 16  # lines a program spends before its first statement


def frontend_program(rng: random.Random, lines: int) -> Program:
    huge = 1_000_000_000
    big_t = Type("big", NUMBER, below(huge))
    mix = ProcDef(
        "mix", [("p", NUMBER_T), ("q", NUMBER_T), ("s", big_t)], [("out", NUMBER_T)], [],
        [Assign("out", Bin("-", Bin("+", Var("p"), Var("q")), Var("s")))],
    )
    nvars = 4 + lines // 60
    gen = _Lines(rng, nvars, mix)
    declared = [("a", Type("array-type number ee", array_of(NUMBER))), ("b", BOOLEAN_T), ("w", WORD_T)]
    declared += [(f"v{j}", NUMBER_T) for j in range(1, nvars + 1)]
    declared += [("k1", NUMBER_T), ("k2", big_t)]
    body = [
        Assign("a", ArrayLit([gen.literal() for _ in range(ARRAY_LEN)])),
        Assign("b", Bool(True)),
        Assign("w", Word("")),
        Assign("k1", Num(rng.randint(1, 9))),
        Assign("k2", Num(rng.randint(1, 9))),
    ]
    body += [Assign(f"v{j}", gen.literal()) for j in range(1, nvars + 1)]
    fixed = FRONTEND_HEADER_LINES + 2 * nvars
    body += [gen.statement() for _ in range(max(1, lines - fixed))]
    type_defs = [("big", f"replace-transfer-in number by value < {huge} ee")]
    return Program(type_defs, [mix], declared, body)


# -- workloads ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (rng, size) -> Program
    unit: int  # n, the smallest size
    count: int  # programs per corpus
    sweep_unit: int = 0  # n of the sweep, when it differs from `unit`

    def sizes(self, rng: random.Random) -> list:
        """Equal thirds of n, 2n and 4n, in seeded order."""
        sizes = [self.unit * m for m in (1, 2, 4) for _ in range(self.count // 3)]
        rng.shuffle(sizes)
        return sizes

    def label(self, size: int) -> str:
        return f"{size // self.unit}n"

    def programs(self, seed: int) -> list:
        """(name, size class, program) triples; the seed fixes them all."""
        rng = random.Random(f"{self.name}:{seed}")
        return [
            (f"{self.name}-{k:03d}", self.label(size), self.make(rng, size))
            for k, size in enumerate(self.sizes(rng))
        ]

    def corpus(self, seed: int) -> list:
        return [case(*triple) for triple in self.programs(seed)]

    def sweep(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:sweep:{seed}")
        unit = self.sweep_unit or self.unit
        return [
            case(f"{self.name}-sweep-{m}n", f"{m}n", self.make(rng, unit * m))
            for m in (1, 2, 4)
        ]


@dataclass(frozen=True)
class FrontendWorkload(Workload):
    """Lengths log-uniform from `unit` to 100 * `unit` lines, one per stratum."""

    def sizes(self, rng: random.Random) -> list:
        lo, hi = math.log(self.unit), math.log(self.unit * 100)
        k = self.count
        sizes = [round(math.exp(lo + (hi - lo) * (j + rng.random()) / k)) for j in range(k)]
        rng.shuffle(sizes)
        return sizes

    def label(self, size: int) -> str:
        return f"{size}lines"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scalar-loops", scalar_program, 25, 102),
        Workload("collection-build", build_program, 16, 102),
        Workload("collection-scan", scan_program, 32, 102),
        FrontendWorkload("frontend-bulk", frontend_program, 13, 100, sweep_unit=150),
    )
}
