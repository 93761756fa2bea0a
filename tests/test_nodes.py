"""The record contract every syntax-tree class keeps.

A node is a frozen record of its fields: built positionally or by
keyword, compared and hashed by class and fields, printed as the
dataclass text, and copied and pickled to an equal node.
"""

import copy
import dataclasses
import pickle
import sys
import weakref

import pytest

from lingua import nodes as n
from lingua.kernel import Number
from lingua.parser import parse_program

CONCRETE = sorted(
    (
        cls
        for cls in vars(n).values()
        if isinstance(cls, type) and issubclass(cls, n.Node) and not cls.__subclasses__()
    ),
    key=lambda cls: cls.__name__,
)


def test_every_clause_is_covered():
    assert len(CONCRETE) == 77


def values(cls, tag="v"):
    """Distinct, hashable, picklable field values for `cls`, by name."""
    return {name: f"{tag}{i}" for i, name in enumerate(cls.__match_args__)}


@pytest.fixture(params=CONCRETE, ids=lambda cls: cls.__name__)
def cls(request):
    return request.param


def test_fields_are_the_match_args_in_declaration_order(cls):
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert names == cls.__match_args__
    assert names == tuple(cls.__dict__.get("__annotations__", {}))


def test_a_node_is_a_slotted_record_of_its_fields(cls):
    # No instance dict: freeing a deep tree of dicts spends C stack per level.
    node = cls(**values(cls))
    assert not hasattr(node, "__dict__")
    assert weakref.ref(node)() is node
    assert cls.__slots__ == cls.__match_args__


def test_positional_and_keyword_construction_agree(cls):
    kwargs = values(cls)
    node = cls(*kwargs.values())
    assert node == cls(**kwargs)
    assert tuple(getattr(node, name) for name in cls.__match_args__) == tuple(kwargs.values())
    with pytest.raises(TypeError):
        cls(*kwargs.values(), "extra")
    with pytest.raises(TypeError):
        cls(**kwargs, extra="extra")
    if kwargs:
        with pytest.raises(TypeError):
            cls(*list(kwargs.values())[:-1])


def test_fields_are_frozen(cls):
    kwargs = values(cls)
    node = cls(**kwargs)
    for name in (*kwargs, "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, name)
    assert node == cls(**kwargs)


def test_equal_fields_compare_and_hash_equal(cls):
    first, second = cls(**values(cls)), cls(**values(cls))
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    if cls.__match_args__:
        assert first != cls(**values(cls, tag="w"))
    assert first != object() and first != None  # noqa: E711


def test_repr_is_the_dataclass_text(cls):
    kwargs = values(cls)
    inner = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
    assert repr(cls(**kwargs)) == f"{cls.__name__}({inner})"


def test_deepcopy_and_pickle_give_equal_nodes(cls):
    node = cls(**values(cls))
    for twin in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert twin == node and twin is not node
        assert type(twin) is cls


def test_same_fields_of_different_classes_are_unequal():
    a, b = n.IdeExp("x"), n.IdeExp("y")
    add, sub, tra_add = n.AddExp(a, b), n.SubExp(a, b), n.TraAddExp(a, b)
    for first, second in ((add, sub), (add, tra_add), (sub, tra_add)):
        assert first != second and second != first
    assert len({add, sub, tra_add}) == 3


def test_repr_of_nested_nodes():
    node = n.AddExp(n.IdeExp("x"), n.NumLit(Number(1, 0)))
    assert repr(node) == (
        "AddExp(dae1=IdeExp(ide='x'), dae2=NumLit(num=Number(coeff=1, exp=0)))"
    )


def test_parsed_program_survives_deepcopy_and_pickle():
    prg = parse_program(
        "begin-program let x be number tel ; "
        "fun double (k as number) (k * 2) endfun ; "
        "x := 1 ; while (x < 5) do x := double(x) od end-program"
    )
    for twin in (copy.deepcopy(prg), pickle.loads(pickle.dumps(prg))):
        assert twin == prg and hash(twin) == hash(prg)
        assert repr(twin) == repr(prg)


def test_record_methods_are_defined_once():
    # One definition on `Node`, none generated per class; only `__init__`
    # is per class, since its parameters are the class's fields.
    for cls in CONCRETE:
        for name in ("__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
            assert getattr(cls, name) is getattr(n.Node, name), (cls, name)
        assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"


def test_deep_trees_compare_hash_and_print_at_the_default_limit():
    # A left-nested chain is as deep as it is long; comparing, hashing and
    # printing it must not cost a Python frame per level.
    def chain(first):
        return parse_program(f"begin-program x := {first}{' + 1' * 4999} end-program")

    first, second, other = chain(1), chain(1), chain(2)  # `other` differs at the deepest leaf
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert first == second and hash(first) == hash(second)
        assert first != other and not first == other
        text = repr(first)
        assert text == repr(second) and text != repr(other)
    finally:
        sys.setrecursionlimit(limit)
    assert text.count("NumLit(") == 5000
    assert text.startswith("Program(pam=None, ins=AssignIns(ide='x', dae=AddExp(dae1=AddExp(")
