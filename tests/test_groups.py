"""Group backends: axioms, encodings, element order, spec round trips."""

import math

import pytest

from symgrowth.errors import InvalidElementError, InvalidGroupError
from symgrowth.groups import (
    SYMMETRIC_DEGREE_LIMIT,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    HeisenbergGroup,
    SymmetricGroup,
    TableGroup,
    group_from_spec,
)
from symgrowth.serialize import elements_to_json


def relabelled_table(group, labels):
    """``group`` as a TableGroup in which ``group.element_at(i)`` is row ``labels[i]``."""
    elems = [group.element_at(i) for i in range(group.order)]
    label = {x: labels[i] for i, x in enumerate(elems)}
    table = [[0] * len(elems) for _ in elems]
    for x in elems:
        for y in elems:
            table[label[x]][label[y]] = label[group.multiply(x, y)]
    return TableGroup(table)


# S3 with its identity on row 4, not row 0
S3_TABLE = relabelled_table(SymmetricGroup(3), [4, 0, 5, 2, 1, 3])

BACKENDS = [
    CyclicGroup(1),
    CyclicGroup(12),
    CyclicGroup(31),
    DihedralGroup(1),
    DihedralGroup(7),
    SymmetricGroup(1),
    SymmetricGroup(4),
    HeisenbergGroup(2),
    HeisenbergGroup(5),
    DirectProductGroup([CyclicGroup(4), DihedralGroup(3)]),
    DirectProductGroup([CyclicGroup(2), CyclicGroup(3), CyclicGroup(5)]),
    S3_TABLE,
    DirectProductGroup([SymmetricGroup(3), S3_TABLE]),
]


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_sampled_axioms(group):
    group.check_axioms(trials=1000)


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_element_at_is_a_bijection_in_order(group):
    elems = [group.element_at(i) for i in range(group.order)]
    assert len(set(elems)) == group.order
    for x in elems:
        group.validate(x)
    # encoding order doubles as the canonical total order
    assert elems == sorted(elems)


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_spec_round_trip(group):
    clone = group_from_spec(group.describe())
    assert clone == group
    assert clone.order == group.order
    assert hash(clone) == hash(group)


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_validate_is_the_digit_rule(group):
    assert group.order == math.prod(group.radices)
    x = group.element_at(group.order - 1)
    assert x == tuple(r - 1 for r in group.radices)
    # the wire form round-trips through the one decoder
    assert [group.coerce(raw) for raw in elements_to_json([group.identity, x])] == [group.identity, x]
    for i, radix in enumerate(group.radices):
        for bad in (radix, -1, True):
            with pytest.raises(InvalidElementError):
                group.validate(x[:i] + (bad,) + x[i + 1:])
    for bad in (x + (0,), x[:-1], list(x)):
        with pytest.raises(InvalidElementError):
            group.validate(bad)


def test_table_load_decodes_each_sampled_element_once(monkeypatch):
    # the sampled axiom check draws 3000 indices but decodes each distinct one once
    table = relabelled_table(HeisenbergGroup(3), list(range(27))).table
    calls = []
    real = TableGroup.element_at

    def counting(self, index):
        calls.append(index)
        return real(self, index)

    monkeypatch.setattr(TableGroup, "element_at", counting)
    g = TableGroup(table)
    assert g.order == 27
    assert len(calls) <= 27


def test_cyclic_arithmetic():
    g = CyclicGroup(10)
    assert g.multiply((7,), (5,)) == (2,)
    assert g.inverse((3,)) == (7,)
    assert g.inverse((0,)) == (0,)
    assert g.identity == (0,)


def test_cyclic_rejects_bad_elements():
    g = CyclicGroup(10)
    for bad in [(10,), (-1,), (0, 0), "0", (0.5,)]:
        with pytest.raises(InvalidElementError):
            g.validate(bad)


def test_dihedral_relations():
    g = DihedralGroup(6)
    r, s = (1, 0), (0, 1)
    assert g.multiply(r, s) == (1, 1)          # rs
    assert g.multiply(s, r) == (5, 1)          # sr = r^-1 s
    assert g.multiply(s, s) == g.identity
    # s r s = r^-1
    assert g.multiply(g.multiply(s, r), s) == g.inverse(r)
    assert g.inverse((2, 0)) == (4, 0)
    assert g.inverse((2, 1)) == (2, 1)         # reflections are involutions


def test_symmetric_one_line_round_trip():
    g = SymmetricGroup(4)
    for i in range(g.order):
        code = g.element_at(i)
        assert g.encode_one_line(g.one_line(code)) == code


def test_symmetric_decoding_still_checks_uncached_input():
    # multiply trusts its arguments, but the decoders check what they have
    # not cached yet
    g = SymmetricGroup(3)
    g.multiply((2, 1, 0), (1, 0, 0))
    for bad in [(3, 0, 0), (0, 0), [0, 0, 0], (0, [1], 0)]:
        with pytest.raises(InvalidElementError):
            g.one_line(bad)
    for bad in [(0, 0, 1), (0, 1, 3)]:
        with pytest.raises(InvalidElementError):
            g.encode_one_line(bad)


def test_symmetric_composition_convention():
    # (p * q)(i) = p(q(i))
    g = SymmetricGroup(3)
    p = g.encode_one_line((1, 2, 0))
    q = g.encode_one_line((0, 2, 1))
    got = g.one_line(g.multiply(p, q))
    assert got == (1, 0, 2)
    # three-cycle inverse is the opposite three-cycle
    assert g.one_line(g.inverse(p)) == (2, 0, 1)


def test_symmetric_degree_guard():
    with pytest.raises(InvalidGroupError):
        SymmetricGroup(SYMMETRIC_DEGREE_LIMIT + 1)
    g = SymmetricGroup(SYMMETRIC_DEGREE_LIMIT + 1, limit=SYMMETRIC_DEGREE_LIMIT + 1)
    assert g.order == 39916800


def test_heisenberg_matrix_product():
    g = HeisenbergGroup(5)

    def as_matrix(x):
        a, b, c = x
        return ((1, a, c), (0, 1, b), (0, 0, 1))

    def mat_mul(m, k):
        return tuple(
            tuple(sum(m[i][t] * k[t][j] for t in range(3)) % 5 for j in range(3))
            for i in range(3)
        )

    for x in [(1, 2, 3), (4, 4, 0), (0, 1, 2)]:
        for y in [(2, 0, 1), (3, 3, 3)]:
            assert as_matrix(g.multiply(x, y)) == mat_mul(as_matrix(x), as_matrix(y))
        assert mat_mul(as_matrix(x), as_matrix(g.inverse(x)))[0][1:] == (0, 0)


def test_direct_product_componentwise():
    g = DirectProductGroup([CyclicGroup(4), DihedralGroup(3)])
    assert g.order == 24
    assert g.identity == (0, 0, 0)
    assert g.multiply((1, 2, 1), (3, 1, 0)) == (0, 1, 1)
    assert g.inverse((1, 2, 0)) == (3, 1, 0)


def test_table_group_from_cyclic_table():
    n = 5
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    g = TableGroup(table)
    assert g.identity == (0,)
    assert g.multiply((2,), (4,)) == (1,)
    assert g.inverse((3,)) == (2,)
    g.check_axioms()


def test_table_group_rejects_bad_tables():
    with pytest.raises(InvalidGroupError):
        TableGroup([])
    with pytest.raises(InvalidGroupError):
        TableGroup([[0, 1], [1]])
    with pytest.raises(InvalidGroupError):
        TableGroup([[0, 1], [1, 5]])
    # designated identity that is not two-sided
    with pytest.raises(InvalidGroupError):
        TableGroup([[0, 1], [1, 0]], identity_index=1)
    # latin square with no two-sided identity at all
    with pytest.raises(InvalidGroupError):
        TableGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    # non-associative magma with identity: row/col 0 is identity
    bad = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(InvalidGroupError):
        TableGroup(bad)


@pytest.mark.parametrize("table", [[["0"]], ["0"], [[0.0]], [0], [[False]]],
                         ids=["string-entry", "string-row", "float-entry", "int-row", "bool-entry"])
def test_table_spec_rows_must_be_lists_of_ints(table):
    with pytest.raises(InvalidGroupError):
        group_from_spec({"type": "table", "table": table})


def test_coerce_validates_and_normalizes():
    g = CyclicGroup(6)
    assert g.coerce([4]) == (4,)
    with pytest.raises(InvalidElementError):
        g.coerce([6])
    with pytest.raises(InvalidElementError):
        g.coerce("x")
    for loose in ([True], ["3"], [2.7], [4.0]):
        with pytest.raises(InvalidElementError):
            g.coerce(loose)


def test_group_equality_is_structural():
    assert CyclicGroup(8) == CyclicGroup(8)
    assert CyclicGroup(8) != CyclicGroup(9)
    assert CyclicGroup(2) != DihedralGroup(1)


def test_group_from_spec_errors():
    with pytest.raises(InvalidGroupError):
        group_from_spec({"n": 4})
    with pytest.raises(InvalidGroupError):
        group_from_spec({"type": "quaternion", "n": 8})
    with pytest.raises(InvalidGroupError):
        group_from_spec({"type": "direct_product", "factors": "nope"})


def test_group_from_spec_nested_product():
    spec = {
        "type": "direct_product",
        "factors": [{"type": "cyclic", "n": 3}, {"type": "heisenberg_mod", "p": 2}],
    }
    g = group_from_spec(spec)
    assert g.order == 24
    assert g.describe() == spec
