"""Reference model of the Lingua subset that the benchmark programs use.

Each generated program is built from the objects below.  The same objects
render the program's colloquial source text and compute, in plain Python,
the exit code and state report that `lingua run` must print for it: exact
arithmetic on `Fraction`, the 20-digit size rule, left-to-right first-error
evaluation, lazy connectives, yoke and coherence checks on every write, and
the four-stage procedure call.  Nothing here imports lingua.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

MAX_DIGITS = 20
MAX_WORD = 10_000
MAX_ITEMS = 100_000

NUMBER = "number"
BOOLEAN = "Boolean"
WORD = "word"


class Fail(Exception):
    """Evaluation produced an error word."""

    def __init__(self, word: str):
        super().__init__(word)
        self.word = word


def array_of(bod):
    return ("array", bod)


def list_of(bod):
    return ("list", bod)


def record_of(fields: dict):
    return ("record", tuple(sorted(fields.items())))


def _kind(bod) -> str:
    return bod if isinstance(bod, str) else bod[0]


# -- exact decimals -----------------------------------------------------------


def fraction_digits(q: Fraction) -> Optional[int]:
    """Digits after the point needed to write q exactly; None if infinite."""
    den, twos, fives = q.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den == 1 else None


def digit_count(q: Fraction) -> int:
    whole = abs(q.numerator) // q.denominator
    return max(1, (len(str(whole)) if whole else 0) + fraction_digits(q))


def number_text(q: Fraction) -> str:
    k = fraction_digits(q)
    magnitude = str(abs(q.numerator) * 10**k // q.denominator)
    if k:
        magnitude = magnitude.rjust(k + 1, "0")
        magnitude = magnitude[:-k] + "." + magnitude[-k:]
    return ("-" if q < 0 else "") + magnitude


def sized_number(q: Fraction):
    if fraction_digits(q) is None or digit_count(q) > MAX_DIGITS:
        raise Fail("overflow")
    return (q, NUMBER)


def _sized(dat, bod):
    kind = _kind(bod)
    if kind == WORD and len(dat) > MAX_WORD:
        raise Fail("overflow")
    if kind in ("array", "list", "record") and len(dat) > MAX_ITEMS:
        raise Fail("overflow")
    return (dat, bod)


def coherent(b1, b2) -> bool:
    if b1 == b2:
        return True
    if _kind(b1) == "record" and _kind(b2) == "record":
        a1, a2 = dict(b1[1]), dict(b2[1])
        small, big = (a1, a2) if set(a1) <= set(a2) else (a2, a1)
        return set(small) <= set(big) and all(big[k] == v for k, v in small.items())
    return False


# -- report formatting ----------------------------------------------------------


def format_data(dat, bod) -> str:
    kind = _kind(bod)
    if kind == BOOLEAN:
        return "true" if dat else "false"
    if kind == NUMBER:
        return number_text(dat)
    if kind == WORD:
        return f"'{dat}'"
    if kind == "list":
        return "(" + ", ".join(format_data(d, bod[1]) for d in dat) + ")"
    if kind == "array":
        return "[" + ", ".join(format_data(d, bod[1]) for d in dat) + "]"
    fields = dict(bod[1])
    return "{" + ", ".join(f"{k}: {format_data(d, fields[k])}" for k, d in dat) + "}"


def format_body(bod) -> str:
    kind = _kind(bod)
    if kind in ("list", "array"):
        return f"{kind} of {format_body(bod[1])}"
    if kind == "record":
        return "{" + ", ".join(f"{k}: {format_body(b)}" for k, b in bod[1]) + "}"
    return bod


# -- transfers -------------------------------------------------------------------


class Transfer:
    """`src` is the canonical form the state report prints."""

    src: str

    def apply(self, com):
        raise NotImplementedError


class TValue(Transfer):
    src = "value"

    def apply(self, com):
        return com


class TNum(Transfer):
    def __init__(self, q):
        self.q = Fraction(q)
        self.src = number_text(self.q)

    def apply(self, com):
        return sized_number(self.q)


class TRecAt(Transfer):
    def __init__(self, attr: str):
        self.attr = attr
        self.src = f"record.{attr}"

    def apply(self, com):
        dat, bod = com
        if _kind(bod) != "record":
            raise Fail("record-expected")
        fields = dict(bod[1])
        if self.attr not in fields:
            raise Fail("attribute-not-present")
        return (dict(dat)[self.attr], fields[self.attr])


class TLess(Transfer):
    def __init__(self, a: Transfer, b: Transfer):
        self.a, self.b = a, b
        self.src = f"({a.src} < {b.src})"

    def apply(self, com):
        x, y = self.a.apply(com), self.b.apply(com)
        if x[1] != NUMBER or y[1] != NUMBER:
            raise Fail("number-expected")
        return (x[0] < y[0], BOOLEAN)


class TFold(Transfer):
    """`sum (inner)` or `max (inner)` over a numeric list or array."""

    def __init__(self, name: str, inner: Transfer):
        self.name, self.inner = name, inner
        self.src = f"{name} ({inner.src})"

    def apply(self, com):
        dat, bod = self.inner.apply(com)
        if _kind(bod) not in ("list", "array") or bod[1] != NUMBER:
            raise Fail("array-expected")
        if not dat:
            raise Fail("empty-list")
        return sized_number(sum(dat, Fraction(0)) if self.name == "sum" else max(dat))


class TAllArray(Transfer):
    def __init__(self, inner: Transfer):
        self.inner = inner
        self.src = f"all-array {inner.src} ee"

    def apply(self, com):
        dat, bod = com
        if _kind(bod) != "array":
            raise Fail("array-expected")
        verdict = True
        for item in dat:
            r = self.inner.apply((item, bod[1]))
            if r[1] != BOOLEAN:
                raise Fail("a-yoke-expected")
            verdict = verdict and r[0]
        return (verdict, BOOLEAN)


class TTrue(Transfer):
    src = "true"

    def apply(self, com):
        return (True, BOOLEAN)


TT = TTrue()


def below(bound) -> Transfer:
    """The yoke `(value < bound)`."""
    return TLess(TValue(), TNum(bound))


class Type:
    """A type as written in the source, with its body and transfer."""

    def __init__(self, text: str, bod, tra: Transfer = TT):
        self.text, self.bod, self.tra = text, bod, tra


NUMBER_T = Type("number", NUMBER)
BOOLEAN_T = Type("boolean", BOOLEAN)
WORD_T = Type("word", WORD)


def member(com, typ: Type) -> bool:
    if com[1] != typ.bod:
        return False
    try:
        r = typ.tra.apply(com)
    except Fail:
        return False
    return r == (True, BOOLEAN)


# -- data expressions ------------------------------------------------------------

ATOM = 10
NOT_PREC = 7
_PREC = {"or": 1, "and": 2, "<": 3, "=": 3, "glue": 4, "+": 5, "-": 5, "*": 6, "/": 6}


class Expr:
    prec = ATOM

    def src(self) -> str:
        raise NotImplementedError

    def ev(self, m: "Model"):
        raise NotImplementedError


def _operands(m: "Model", *exprs: Expr) -> list:
    return [e.ev(m) for e in exprs]  # left to right; the first Fail wins


class Num(Expr):
    def __init__(self, q):
        self.q = Fraction(q)

    def src(self):
        return number_text(self.q)

    def ev(self, m):
        return sized_number(self.q)


class Bool(Expr):
    def __init__(self, value: bool):
        self.value = value

    def src(self):
        return "true" if self.value else "false"

    def ev(self, m):
        return (self.value, BOOLEAN)


class Word(Expr):
    def __init__(self, text: str):
        self.text = text

    def src(self):
        return f"'{self.text}'"

    def ev(self, m):
        return _sized(self.text, WORD)


class Var(Expr):
    def __init__(self, name: str):
        self.name = name

    def src(self):
        return self.name

    def ev(self, m):
        cell = m.vars.get(self.name)
        if cell is None:
            raise Fail("identifier-not-declared")
        if cell[0] is OMEGA:
            raise Fail("variable-not-initialized")
        return (cell[0], cell[1])


class Bin(Expr):
    def __init__(self, op: str, a: Expr, b: Expr):
        self.op, self.a, self.b = op, a, b
        self.prec = _PREC[op]

    def src(self):
        left = self.a.src() if self.a.prec >= self.prec else f"({self.a.src()})"
        right = self.b.src() if self.b.prec > self.prec else f"({self.b.src()})"
        return f"{left} {self.op} {right}"

    def ev(self, m):
        op = self.op
        if op in ("and", "or"):
            short_on = op == "or"
            for part in (self.a, self.b):
                dat, bod = part.ev(m)
                if bod != BOOLEAN:
                    raise Fail("Boolean-expected")
                if dat == short_on:
                    return (dat, BOOLEAN)
            return (dat, BOOLEAN)
        (x, bx), (y, by) = _operands(m, self.a, self.b)
        if op == "=":
            return (bx == by and x == y, BOOLEAN)
        if op == "glue":
            if bx != WORD or by != WORD:
                raise Fail("word-expected")
            return _sized(x + y, WORD)
        if bx != NUMBER or by != NUMBER:
            raise Fail("number-expected")
        if op == "<":
            return (x < y, BOOLEAN)
        if op == "/":
            if y == 0:
                raise Fail("division-by-zero")
            return sized_number(x / y)
        return sized_number(x + y if op == "+" else x - y if op == "-" else x * y)


class Not(Expr):
    prec = NOT_PREC

    def __init__(self, a: Expr):
        self.a = a

    def src(self):
        inner = self.a.src() if self.a.prec >= NOT_PREC else f"({self.a.src()})"
        return f"not {inner}"

    def ev(self, m):
        dat, bod = self.a.ev(m)
        if bod != BOOLEAN:
            raise Fail("Boolean-expected")
        return (not dat, BOOLEAN)


def _index(idx, length: int) -> int:
    if idx.denominator != 1 or not 1 <= idx <= length:
        raise Fail("index-out-of-range")
    return int(idx)


class ArrAt(Expr):
    """Colloquial `a.[i]`."""

    def __init__(self, a: Var, i: Expr):
        self.a, self.i = a, i

    def src(self):
        return f"{self.a.src()}.[{self.i.src()}]"

    def ev(self, m):
        (dat, bod), (idx, ibod) = _operands(m, self.a, self.i)
        if _kind(bod) != "array":
            raise Fail("array-expected")
        if ibod != NUMBER:
            raise Fail("number-expected")
        return (dat[_index(idx, len(dat)) - 1], bod[1])


class RecAt(Expr):
    """Colloquial `r.(attr)`."""

    def __init__(self, r: Var, attr: str):
        self.r, self.attr = r, attr

    def src(self):
        return f"{self.r.src()}.({self.attr})"

    def ev(self, m):
        return TRecAt(self.attr).apply(self.r.ev(m))


class Top(Expr):
    def __init__(self, a: Expr):
        self.a = a

    def src(self):
        return f"top({self.a.src()})"

    def ev(self, m):
        dat, bod = self.a.ev(m)
        if _kind(bod) != "list":
            raise Fail("list-expected")
        if not dat:
            raise Fail("empty-list")
        return (dat[0], bod[1])


class ListLit(Expr):
    def __init__(self, a: Expr):
        self.a = a

    def src(self):
        return f"list {self.a.src()} ee"

    def ev(self, m):
        dat, bod = self.a.ev(m)
        return _sized((dat,), list_of(bod))


class Push(Expr):
    def __init__(self, e: Expr, target: Expr):
        self.e, self.target = e, target

    def src(self):
        return f"push {self.e.src()} on {self.target.src()} ee"

    def ev(self, m):
        (new, nbod), (dat, bod) = _operands(m, self.e, self.target)
        if _kind(bod) != "list":
            raise Fail("list-expected")
        if nbod != bod[1]:
            raise Fail("no-coherence")
        return _sized((new, *dat), bod)


def _add_to_array(arr, new):
    (dat, bod), (ndat, nbod) = arr, new
    if _kind(bod) != "array":
        raise Fail("array-expected")
    if nbod != bod[1]:
        raise Fail("no-coherence")
    return _sized((*dat, ndat), bod)


class ArrayLit(Expr):
    """Colloquial `array [e1, ..., en]`: one `array` then n-1 `add-to-arr`."""

    def __init__(self, items: list):
        self.items = items

    def src(self):
        return "array [" + ", ".join(e.src() for e in self.items) + "]"

    def ev(self, m):
        dat, bod = self.items[0].ev(m)
        com = _sized((dat,), array_of(bod))
        for e in self.items[1:]:
            com = _add_to_array(com, e.ev(m))
        return com


class AddToArr(Expr):
    def __init__(self, a: Expr, e: Expr):
        self.a, self.e = a, e

    def src(self):
        return f"add-to-arr {self.a.src()} new {self.e.src()} ee"

    def ev(self, m):
        return _add_to_array(*_operands(m, self.a, self.e))


class ChangeArr(Expr):
    """Colloquial `change-arr a by i <= e ee`."""

    def __init__(self, a: Expr, i: Expr, e: Expr):
        self.a, self.i, self.e = a, i, e

    def src(self):
        return f"change-arr {self.a.src()} by {self.i.src()} <= {self.e.src()} ee"

    def ev(self, m):
        (dat, bod), (idx, ibod), (new, nbod) = _operands(m, self.a, self.i, self.e)
        if _kind(bod) != "array":
            raise Fail("array-expected")
        if ibod != NUMBER:
            raise Fail("number-expected")
        k = _index(idx, len(dat))
        if nbod != bod[1]:
            raise Fail("no-coherence")
        return (dat[: k - 1] + (new,) + dat[k:], bod)


def _add_attr(name, new, rec):
    (ndat, nbod), (dat, bod) = new, rec
    if _kind(bod) != "record":
        raise Fail("record-expected")
    if name in dict(bod[1]):
        raise Fail("attribute-already-present")
    return _sized(
        tuple(sorted({**dict(dat), name: ndat}.items())),
        record_of({**dict(bod[1]), name: nbod}),
    )


class RecordLit(Expr):
    """Colloquial `record f1 <= e1, f2 <= e2 ee`: `record` then `add-attr`s.

    The restored tree nests the first field innermost and `add-attr`
    evaluates its value before its target, so values evaluate last first.
    """

    def __init__(self, fields: list):
        self.fields = fields

    def src(self):
        return "record " + ", ".join(f"{k} <= {e.src()}" for k, e in self.fields) + " ee"

    def ev(self, m):
        values = [e.ev(m) for _, e in reversed(self.fields)][::-1]
        (name, _), (dat, bod) = self.fields[0], values[0]
        com = _sized(((name, dat),), record_of({name: bod}))
        for (name, _), new in zip(self.fields[1:], values[1:]):
            com = _add_attr(name, new, com)
        return com


class AddAttr(Expr):
    def __init__(self, name: str, e: Expr, target: Expr):
        self.name, self.e, self.target = name, e, target

    def src(self):
        return f"add-attr {self.name} of-value {self.e.src()} to {self.target.src()} ee"

    def ev(self, m):
        return _add_attr(self.name, *_operands(m, self.e, self.target))


class ChangeRec(Expr):
    def __init__(self, target: Expr, name: str, e: Expr):
        self.target, self.name, self.e = target, name, e

    def src(self):
        return f"change-rec {self.target.src()} at {self.name} by {self.e.src()} ee"

    def ev(self, m):
        (dat, bod), (new, nbod) = _operands(m, self.target, self.e)
        if _kind(bod) != "record":
            raise Fail("record-expected")
        if self.name not in dict(bod[1]):
            raise Fail("attribute-not-present")
        return (
            tuple(sorted({**dict(dat), self.name: new}.items())),
            record_of({**dict(bod[1]), self.name: nbod}),
        )


class FunCall(Expr):
    def __init__(self, fun: "FunDef", args: list):
        self.fun, self.args = fun, args

    def src(self):
        return f"{self.fun.name}({', '.join(self.args)})"

    def ev(self, m):
        fun = self.fun
        m.steps += 1
        if len(self.args) != len(fun.params):
            raise Fail("parameter-list-mismatch")
        local = m.child()
        failure = local.bind_params(fun.params, self.args, m)
        if failure is not None:
            raise Fail(failure)
        local.declare(fun.locals)
        local.run(fun.body)
        m.steps = local.steps
        if local.register is not None:
            raise Fail(local.register)
        result = fun.result.ev(local)
        if fun.result_type is not None and not member(result, fun.result_type):
            raise Fail("return-type-mismatch")
        return result


# -- instructions -------------------------------------------------------------------


class _Omega:
    def __repr__(self):
        return "Ω"


OMEGA = _Omega()


class Ins:
    def src(self, indent: str) -> str:
        raise NotImplementedError


def render_seq(items: list, indent: str) -> str:
    return " ;\n".join(i.src(indent) for i in items)


class Assign(Ins):
    def __init__(self, name: str, e: Expr):
        self.name, self.e = name, e

    def src(self, indent):
        return f"{indent}{self.name} := {self.e.src()}"


class Yoke(Ins):
    def __init__(self, name: str, tra: Transfer):
        self.name, self.tra = name, tra

    def src(self, indent):
        return f"{indent}yoke {self.name} := {self.tra.src}"


class If(Ins):
    def __init__(self, guard: Expr, then: list, orelse: list):
        self.guard, self.then, self.orelse = guard, then, orelse

    def src(self, indent):
        return (
            f"{indent}if {self.guard.src()} then\n{render_seq(self.then, indent + '  ')}\n"
            f"{indent}else\n{render_seq(self.orelse, indent + '  ')}\n{indent}fi"
        )


class While(Ins):
    def __init__(self, guard: Expr, body: list):
        self.guard, self.body = guard, body

    def src(self, indent):
        return (
            f"{indent}while {self.guard.src()} do\n"
            f"{render_seq(self.body, indent + '  ')}\n{indent}od"
        )


class IfError(Ins):
    def __init__(self, word: str, handler: list):
        self.word, self.handler = word, handler

    def src(self, indent):
        return f"{indent}if-error '{self.word}' then {render_seq(self.handler, '')} fi"


class CallProc(Ins):
    def __init__(self, proc: "ProcDef", refs: list, vals: list):
        self.proc, self.refs, self.vals = proc, refs, vals

    def src(self, indent):
        refs = ", ".join(self.refs) or "empty-ap"
        vals = ", ".join(self.vals) or "empty-ap"
        return f"{indent}call {self.proc.name} (ref {refs} val {vals})"


def _formals(params: list) -> str:
    """Consecutive parameters of one type are grouped: `p, q as number`."""
    if not params:
        return "empty-fp"
    groups: list[tuple[list, Type]] = []
    for name, typ in params:
        if groups and groups[-1][1] is typ:
            groups[-1][0].append(name)
        else:
            groups.append(([name], typ))
    return ", ".join(f"{', '.join(names)} as {typ.text}" for names, typ in groups)


def _local_block(locals_: list, body: list, indent: str) -> str:
    items = [f"{indent}let {name} be {typ.text} tel" for name, typ in locals_]
    items += [i.src(indent) for i in body]
    return f"begin-program\n" + " ;\n".join(items) + f"\n{indent[:-2]}end-program"


class ProcDef:
    def __init__(self, name, vals: list, refs: list, locals_: list, body: list):
        self.name, self.vals, self.refs = name, vals, refs
        self.locals, self.body = locals_, body

    def src(self, indent: str) -> str:
        return (
            f"{indent}proc {self.name} (val {_formals(self.vals)} ref {_formals(self.refs)})\n"
            f"{indent}  {_local_block(self.locals, self.body, indent + '    ')}\n"
            f"{indent}end proc"
        )


class FunDef:
    """A functional procedure; without a result type it is the expression form."""

    def __init__(self, name, params: list, locals_: list, body: list, result: Expr, result_type=None):
        self.name, self.params = name, params
        self.locals, self.body = locals_, body
        self.result, self.result_type = result, result_type

    def src(self, indent: str) -> str:
        if self.result_type is None:  # the expression form
            return f"{indent}fun {self.name} ({_formals(self.params)}) {self.result.src()} endfun"
        return (
            f"{indent}fun {self.name} ({_formals(self.params)})\n"
            f"{indent}  {_local_block(self.locals, self.body, indent + '    ')}\n"
            f"{indent}  return {self.result.src()} as {self.result_type.text}\n"
            f"{indent}end fun"
        )


class Model:
    """A state: variables as [datum or OMEGA, body, transfer], a register."""

    def __init__(self, declared: list):
        self.vars = {name: [OMEGA, typ.bod, typ.tra] for name, typ in declared}
        self.register: Optional[str] = None
        self.steps = 0

    def child(self) -> "Model":
        local = Model([])
        local.steps = self.steps
        return local

    def declare(self, declared: list) -> None:
        for name, typ in declared:
            if self.register is not None:
                return
            if name in self.vars:
                self.fail("identifier-not-free")
            else:
                self.vars[name] = [OMEGA, typ.bod, typ.tra]

    def bind_params(self, formals: list, actuals: list, caller: "Model") -> Optional[str]:
        for (name, typ), actual in zip(formals, actuals):
            cell = caller.vars.get(actual)
            if cell is None:
                return "identifier-not-declared"
            if cell[0] is OMEGA:
                self.vars[name] = [OMEGA, typ.bod, typ.tra]
            elif not member((cell[0], cell[1]), typ):
                return "parameter-type-mismatch"
            else:
                self.vars[name] = [cell[0], typ.bod, typ.tra]
        return None

    def fail(self, word: str) -> None:
        self.register = word

    def run(self, items: list) -> None:
        for ins in items:
            self.execute(ins)

    def _write(self, name: str, new, tra: Optional[Transfer] = None) -> None:
        cell = self.vars.get(name)
        if cell is None:
            return self.fail("identifier-not-declared")
        keep = tra is None
        tra = cell[2] if keep else tra
        try:
            verdict = tra.apply(new)
        except Fail as exc:
            return self.fail(exc.word)
        if keep and not coherent(new[1], cell[1]):
            return self.fail("no-coherence")
        if verdict[1] != BOOLEAN:
            return self.fail("a-yoke-expected")
        if not verdict[0]:
            return self.fail("yoke-not-satisfied")
        self.vars[name] = [new[0], new[1], tra]

    def execute(self, ins: Ins) -> None:
        if isinstance(ins, IfError):
            if self.register == ins.word:
                self.register = None
                self.run(ins.handler)
            return
        if self.register is not None:
            return
        if isinstance(ins, Assign):
            if ins.name not in self.vars:
                return self.fail("identifier-not-declared")
            try:
                new = ins.e.ev(self)
            except Fail as exc:
                return self.fail(exc.word)
            self._write(ins.name, new)
        elif isinstance(ins, Yoke):
            cell = self.vars.get(ins.name)
            if cell is None:
                return self.fail("identifier-not-declared")
            if cell[0] is OMEGA:
                return self.fail("variable-not-initialized")
            self._write(ins.name, (cell[0], cell[1]), ins.tra)
        elif isinstance(ins, (If, While)):
            while self.register is None:
                try:
                    dat, bod = ins.guard.ev(self)
                except Fail as exc:
                    return self.fail(exc.word)
                if bod != BOOLEAN:
                    return self.fail("Boolean-expected")
                if isinstance(ins, If):
                    return self.run(ins.then if dat else ins.orelse)
                if not dat:
                    return
                self.steps += 1
                self.run(ins.body)
        elif isinstance(ins, CallProc):
            self._call(ins)
        else:
            raise TypeError(f"not an instruction: {ins!r}")

    def _call(self, ins: CallProc) -> None:
        proc = ins.proc
        self.steps += 1
        if len(ins.refs) != len(proc.refs) or len(ins.vals) != len(proc.vals):
            return self.fail("parameter-list-mismatch")
        local = self.child()
        failure = local.bind_params(proc.refs + proc.vals, ins.refs + ins.vals, self)
        if failure is not None:
            return self.fail(failure)
        local.declare(proc.locals)
        local.run(proc.body)
        self.steps = local.steps
        if local.register is not None:
            return self.fail(local.register)
        for (formal, _), actual in zip(proc.refs, ins.refs):
            self.vars[actual] = list(local.vars[formal])

    def report(self) -> list[str]:
        lines = []
        for name in sorted(self.vars):
            dat, bod, tra = self.vars[name]
            content = "Ω" if dat is OMEGA else format_data(dat, bod)
            lines.append(f"{name} = ({content}, {format_body(bod)}) with {tra.src}")
        lines.append(f"register = {self.register or 'OK'}")
        return lines


class Program:
    """Declarations plus an instruction list; `expect()` runs the model."""

    def __init__(self, type_defs: list, procs: list, declared: list, body: list):
        self.type_defs, self.procs = type_defs, procs
        self.declared, self.body = declared, body

    def source(self) -> str:
        items = [f"  set {name} as {text} tes" for name, text in self.type_defs]
        items += [p.src("  ") for p in self.procs]
        items += [f"  let {name} be {typ.text} tel" for name, typ in self.declared]
        items += [i.src("  ") for i in self.body]
        return "begin-program\n" + " ;\n".join(items) + "\nend-program\n"

    def expect(self) -> tuple[int, list[str], int]:
        """Exit code, state report lines and fuel spent."""
        m = Model(self.declared)
        m.run(self.body)
        return (0 if m.register is None else 1), m.report(), m.steps
