"""The record base of the kernel, diagnostics, state and evaluator classes."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from lingua.cli import RunConfig
from lingua.diagnostics import SourceSpan
from lingua.kernel import (
    NUMBER,
    TT,
    AbstractError,
    ArrayBody,
    ArrayData,
    Composite,
    LangType,
    Limits,
    ListBody,
    ListData,
    Transfer,
    Value,
    num,
)
from lingua import record as record_module
from lingua.record import record
from lingua.state import empty_state


class Fieldless(metaclass=record):
    pass


def test_a_frozen_record_refuses_writes_and_deletes():
    span = SourceSpan(0, 1, 1, 1)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'line'"):
        span.line = 2
    with pytest.raises(FrozenInstanceError, match="cannot delete field 'line'"):
        del span.line
    with pytest.raises(FrozenInstanceError):
        span.extra = 1
    assert span == SourceSpan(begin=0, end=1, line=1, column=1)


def test_equality_hashing_and_repr_go_by_class_and_fields():
    assert ListBody(NUMBER) == ListBody(element=NUMBER)
    assert hash(ListBody(NUMBER)) == hash(ListBody(NUMBER))
    assert ListBody(NUMBER) != ArrayBody(NUMBER) and ListBody(NUMBER) != ListBody(ListBody(NUMBER))
    assert repr(ListBody(NUMBER)) == "ListBody(element=SimpleBody(name='number'))"
    assert repr(AbstractError("overflow")) == "AbstractError(word='overflow')"
    # the methods are compiled once per tuple of field names and shared
    assert ListData.__eq__.__code__ is ArrayData.__eq__.__code__
    assert ListBody.__init__.__qualname__ == "ListBody.__init__"


def test_construction_checks_and_copies_go_through_the_constructor():
    with pytest.raises(ValueError):
        AbstractError("OK")
    with pytest.raises(ValueError):
        Limits(max_word_length=0)
    assert Limits() == Limits(20, 10_000, 100_000)
    value = Value(num(3), LangType(NUMBER, TT))
    twin = copy.deepcopy(value)
    assert twin == value and twin.com == value.com == Composite(num(3), NUMBER)
    assert "com" not in repr(value)
    limits = Limits(max_significant_digits=5)
    assert pickle.loads(pickle.dumps(limits)) == limits


def test_a_class_keeps_the_methods_it_defines():
    # A transfer compares and hashes by its source text alone.
    first, second = Transfer("t", lambda com: com), Transfer("t", lambda com: com, True)
    assert first == second and hash(first) == hash(second)
    assert repr(first) == "Transfer(source='t')"
    assert not first.elementwise and second.elementwise


def test_a_mutable_record_takes_writes_and_is_not_hashable():
    config = RunConfig()
    config.trace = True
    assert config == RunConfig(trace=True) and config != RunConfig()
    sta = empty_state()
    with pytest.raises(TypeError):
        hash(sta)
    assert sta == empty_state()


def test_defaults_must_follow_the_fields_without_one():
    with pytest.raises(SyntaxError):

        class Misordered(metaclass=record):
            first: int = 0
            second: int


def test_a_record_class_is_a_plain_type():
    # `isinstance` against a class whose metaclass is a class of its own
    # takes a slower path, and the evaluator tests records on every step.
    for cls in (AbstractError, ListBody, Composite, Transfer, Value, Limits, SourceSpan, RunConfig):
        assert type(cls) is type, cls


def test_a_record_without_fields():
    first = Fieldless()
    assert first == Fieldless() and first is not Fieldless()
    assert hash(first) == hash(Fieldless()) and repr(first) == "Fieldless()"
    assert first != object()
    assert pickle.loads(pickle.dumps(first)) == first == copy.deepcopy(first)
    with pytest.raises(TypeError):
        Fieldless(1)


def test_a_method_a_base_defines_is_not_compiled():
    class Base:
        __slots__ = ()

        def __eq__(self, other):
            return self is other

        def __hash__(self):
            return id(self)

    before = set(record_module._CODES)

    class Derived(Base, metaclass=record):
        only_in_test_a_method_a_base_defines: int

    added = set(record_module._CODES) - before
    assert [source.split("(")[0] for source in added] == ["def __init__"]
    assert Derived.__eq__ is Base.__eq__ and Derived.__hash__ is Base.__hash__
