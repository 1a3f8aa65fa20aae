import ast
import itertools
import pathlib
from functools import reduce

import pytest

from f2lab.core import (
    BudgetError,
    DimensionError,
    F2Set,
    SetFileError,
    bits_to_string,
    distinct_sumset_power,
    parse_set,
    serialize_set,
    string_to_bits,
    subset_sums,
)
from f2lab.bench import BoundReport
from f2lab.dissociation import FamilySpec
from f2lab.inverse import Rectangle
from f2lab.permanent import CombMatrix
from f2lab.wht import IntFunction, wht

from oracles import distinct_sums


@pytest.mark.parametrize(
    "cls, fields, others",
    [
        (F2Set, (3, ()), [(4, ()), (3, (1,))]),
        (IntFunction, (1, (2, -1)), [(1, (2, 1)), (2, (2, -1, 0, 0))]),
        (CombMatrix, (((1, 2),),), [(((2, 1),),), (((1, 2), (0, 1)),)]),
        (
            Rectangle,
            ((8,), F2Set(4, (1,)), F2Set(4, (2,))),
            [
                ((), F2Set(4, (1,)), F2Set(4, (2,))),
                ((8,), F2Set(4, (4,)), F2Set(4, (2,))),
                ((8,), F2Set(4, (1,)), F2Set(4, (2, 4))),
            ],
        ),
        (FamilySpec, (2, F2Set(3, (0,))), [(3, F2Set(3, (0,))), (2, F2Set(3, (0, 5)))]),
    ],
    ids=["F2Set", "IntFunction", "CombMatrix", "Rectangle", "FamilySpec"],
)
def test_value_classes_equal_by_fields(cls, fields, others):
    a, b = cls(*fields), cls(*fields)
    assert a == b and hash(a) == hash(b)
    for other in others:
        assert cls(*other) != a
    assert a != fields  # never equal to the tuple of its fields


def test_value_classes_repr_their_fields():
    assert repr(F2Set(3, (1,))) == "F2Set(dim=3, elems=(1,))"
    row = BoundReport("t", "i", 1, 2, "holds", 0.5, "")
    assert repr(row) == (
        "BoundReport(theorem='t', instance='i', lhs=1, rhs=2, status='holds', slack=0.5, detail='')"
    )


def test_add_is_xor():
    # spec example: 1010 + 0110 = 1100 (leftmost char = coordinate 1)
    pair = parse_set("4\n1010\n0110\n")
    assert serialize_set(distinct_sumset_power(pair, 2)) == "4\n1100\n"


def pairing(r: str, x: str) -> int:
    """<r, x> read off the transform of a point: A_hat(r) = (-1)^<r,x> for A = {x}."""
    table = wht(F2Set(len(x), (string_to_bits(x),)))
    return (1 - table.values[string_to_bits(r)]) // 2


def test_dot_examples():
    assert pairing("1100", "1000") == 1
    assert pairing("1111", "0000") == 0
    assert pairing("1111", "1111") == 0


def test_dot_bilinear():
    chars = [wht(F2Set(3, (x,))).values for x in range(8)]
    for x, y in itertools.product(range(8), repeat=2):
        assert chars[x ^ y] == tuple(a * b for a, b in zip(chars[x], chars[y]))


def test_f2set_sorted_no_duplicates():
    with pytest.raises(ValueError):
        F2Set(3, (1, 1))
    with pytest.raises(ValueError):
        F2Set(3, (2, 1))
    with pytest.raises(DimensionError):
        F2Set(3, (8,))
    s = F2Set.from_bits(3, [5, 1, 5, 2])
    assert s.elems == (1, 2, 5)
    assert 5 in s and 4 not in s


def test_distinct_sumset_pairs_of_basis():
    basis = F2Set(4, (1, 2, 4))
    got = distinct_sumset_power(basis, 2)
    assert got.elems == (3, 5, 6)  # e1+e2, e1+e3, e2+e3


def test_distinct_sumset_dissociated_cardinality():
    lam = F2Set(5, (1, 2, 4, 8))
    got = distinct_sumset_power(lam, 2)
    assert len(got) == 6  # C(4, 2): dissociated, no collisions


def test_distinct_sumset_collisions_merged():
    s = F2Set(2, (1, 2, 3))  # e1, e2, e1+e2
    got = distinct_sumset_power(s, 2)
    assert got.elems == (1, 2, 3)  # sums collapse back into the set


def test_distinct_sumset_matches_oracle_random():
    import random

    rng = random.Random(7)
    for _ in range(25):
        dim = rng.randint(2, 6)
        elems = rng.sample(range(1 << dim), k=rng.randint(1, min(6, 1 << dim)))
        d = rng.randint(1, min(3, len(elems)))
        s = F2Set.from_bits(dim, elems)
        assert set(distinct_sumset_power(s, d).elems) == distinct_sums(s.elems, d)


def test_distinct_sumset_budget():
    big = F2Set.from_bits(20, range(1, 400))
    with pytest.raises(BudgetError):
        distinct_sumset_power(big, 5)  # C(399, 5) > SUMSET_BUDGET


def test_parse_serialize_roundtrip():
    text = "2\n10\n01\n"
    s = parse_set(text)
    assert s.elems == (1, 2)
    assert serialize_set(s) == text
    # canonicalisation: unsorted input serialises sorted
    assert serialize_set(parse_set("2\n01\n10\n")) == text


def test_parse_set_errors():
    with pytest.raises(SetFileError):
        parse_set("3\n102\n")  # bad character
    with pytest.raises(SetFileError):
        parse_set("3\n10\n")  # bad length
    with pytest.raises(SetFileError):
        parse_set("2\n10\n10\n")  # duplicate is a hard error
    with pytest.raises(SetFileError):
        parse_set("x\n10\n")


@pytest.mark.parametrize(
    "line, bad", [("1_01", "_"), ("+101", "+"), ("-101", "-"), ("10 1", " "), ("0a_1", "a")]
)
def test_parse_set_refuses_what_int_base2_accepts(line, bad):
    # int(s, 2) takes underscores, a sign and surrounding spaces; set files do not
    with pytest.raises(SetFileError) as err:
        parse_set(f"4\n0001\n{line}\n")
    assert str(err.value) == f"line 3: bad character {bad!r} in element string"
    with pytest.raises(SetFileError):
        string_to_bits(line)


@pytest.mark.parametrize(
    "first, second, message",
    [
        ("10", "1_1", "length 2 != dimension 3"),
        ("1_1", "10", "bad character '_' in element string"),
        ("101", "1x1", "duplicate element (first at line 2)"),
        ("1x1", "101", "bad character 'x' in element string"),
        ("11", "101", "length 2 != dimension 3"),
        ("101", "11", "duplicate element (first at line 2)"),
        ("1_", "101", "length 2 != dimension 3"),  # within a line, length comes first
    ],
)
def test_parse_set_reports_first_fault_in_file_order(first, second, message):
    # the file is checked in bulk; the line walk that locates the fault must
    # still name the earlier of two faults, whichever kind comes first
    with pytest.raises(SetFileError) as err:
        parse_set(f"3\n101\n\n{first}\n{second}\n")
    assert str(err.value) == f"line 4: {message}"


def test_bitstring_roundtrip_exhaustive_dim4():
    for bits in range(16):
        assert string_to_bits(bits_to_string(bits, 4)) == bits


def test_subset_sums_in_combinations_order():
    elems = (3, 5, 6, 9, 12)
    for size in range(len(elems) + 1):
        got = list(subset_sums(elems, size))
        combos = list(itertools.combinations(elems, size))
        assert [c for _, c in got] == combos
        assert [x for x, _ in got] == [reduce(lambda a, b: a ^ b, c, 0) for c in combos]


def test_oracles_import_no_f2lab_module():
    tree = ast.parse((pathlib.Path(__file__).parent / "oracles.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
    assert names and not any(n.startswith(("f2lab", ".")) for n in names)
