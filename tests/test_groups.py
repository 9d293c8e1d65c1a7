"""Group backends: axioms, encodings, element order, spec round trips."""

import copy
import itertools
import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symgrowth.cli import main
from symgrowth.errors import InvalidElementError, InvalidGroupError
from symgrowth.groups import (
    SYMMETRIC_DEGREE_LIMIT,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    Group,
    HeisenbergGroup,
    Loop,
    OneLine,
    SymmetricGroup,
    TableGroup,
    _one_line_to_lehmer,
    group_from_spec,
)
from symgrowth.serialize import elements_to_json

from conftest import encode_one_line, encoded_inverse, one_line


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
    # the axioms on 1,000 random triples, through the backend alone: a check
    # that shares no code with the table check used below
    rng = random.Random(0x5E7A)
    e = group.identity
    for _ in range(1000):
        x, y, z = (group.element_at(rng.randrange(group.order)) for _ in range(3))
        assert group.multiply(group.multiply(x, y), z) == group.multiply(x, group.multiply(y, z))
        assert group.multiply(x, e) == x == group.multiply(e, x)
        assert group.multiply(x, encoded_inverse(group, x)) == e == group.multiply(encoded_inverse(group, x), x)


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_backend_table_loads_as_a_table_group(group):
    # the whole multiplication table, rows in a shuffled order, passes the
    # exact table check, so the backend's multiply is a group law; its
    # identity and inverse must be the table's
    labels = list(range(group.order))
    random.Random(group.order).shuffle(labels)
    table = relabelled_table(group, labels)
    index = {group.element_at(i): i for i in range(group.order)}
    assert table.identity == (labels[index[group.identity]],)
    for x, i in index.items():
        assert encoded_inverse(table, (labels[i],)) == (labels[index[encoded_inverse(group, x)]],)


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_multiply_and_inverse_validate_nothing(monkeypatch, group):
    # a fresh group, so no memo filled by an earlier test can hide a call
    group = group_from_spec(group.describe())
    rng = random.Random(group.order)
    pairs = [
        (group.element_at(rng.randrange(group.order)), group.element_at(rng.randrange(group.order)))
        for _ in range(50)
    ]
    calls = []
    monkeypatch.setattr(Group, "validate", lambda self, x: calls.append(x))
    for x, y in pairs:
        encoded_inverse(group, group.multiply(x, y))
    assert calls == []


@pytest.mark.parametrize("group", BACKENDS, ids=lambda g: repr(g.describe()))
def test_element_at_is_a_bijection_in_order(group):
    elems = [group.element_at(i) for i in range(group.order)]
    assert len(set(elems)) == group.order
    for x in elems:
        group.validate(x)
    # encoding order doubles as the canonical total order
    assert elems == sorted(elems)
    assert list(group.elements()) == elems
    assert [group.index_of(x) for x in elems] == list(range(group.order))
    # every backend inherits the base class's identity, read from its identity form
    assert type(group).identity is Group.identity
    assert group.to_form(group.identity) == group.identity_form
    if isinstance(group, (CyclicGroup, DihedralGroup, SymmetricGroup, HeisenbergGroup)):
        # on these backends it is the all-zero element 0
        assert group.identity == elems[0]


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
    # the exact check works on row indices, so loading decodes no element
    table = relabelled_table(HeisenbergGroup(3), list(range(27))).table
    calls = []
    real = TableGroup.element_at

    def counting(self, index):
        calls.append(index)
        return real(self, index)

    monkeypatch.setattr(TableGroup, "element_at", counting)
    g = TableGroup(table)
    assert g.order == 27
    assert calls == []


def test_cyclic_arithmetic():
    g = CyclicGroup(10)
    assert g.multiply((7,), (5,)) == (2,)
    assert encoded_inverse(g, (3,)) == (7,)
    assert encoded_inverse(g, (0,)) == (0,)
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
    assert g.multiply(g.multiply(s, r), s) == encoded_inverse(g, r)
    assert encoded_inverse(g, (2, 0)) == (4, 0)
    assert encoded_inverse(g, (2, 1)) == (2, 1)         # reflections are involutions


def test_symmetric_one_line_round_trip():
    g = SymmetricGroup(4)
    for i in range(g.order):
        code = g.element_at(i)
        assert encode_one_line(g, one_line(g, code)) == code


def test_symmetric_lehmer_order_is_one_line_order():
    g = SymmetricGroup(4)
    perms = [one_line(g, g.element_at(i)) for i in range(g.order)]
    assert perms == sorted(itertools.permutations(range(4)))


def test_symmetric_encode_one_line_rejects_non_permutations():
    g = SymmetricGroup(3)
    for bad in [(0, 0, 1), (0, 1, 3)]:
        with pytest.raises(InvalidElementError):
            encode_one_line(g, bad)


def test_symmetric_composition_convention():
    # (p * q)(i) = p(q(i))
    g = SymmetricGroup(3)
    p = encode_one_line(g, (1, 2, 0))
    q = encode_one_line(g, (0, 2, 1))
    got = one_line(g, g.multiply(p, q))
    assert got == (1, 0, 2)
    # three-cycle inverse is the opposite three-cycle
    assert one_line(g, encoded_inverse(g, p)) == (2, 0, 1)


def test_symmetric_multiply_composes_one_line_forms():
    g = SymmetricGroup(4)
    for i in range(0, g.order, 5):
        for j in range(0, g.order, 7):
            p, q = g.element_at(i), g.element_at(j)
            pp, qq = one_line(g, p), one_line(g, q)
            assert one_line(g, g.multiply(p, q)) == tuple(pp[v] for v in qq)


@pytest.mark.parametrize("n", range(1, 8))
def test_one_line_to_lehmer_is_the_count_of_later_smaller_values(n):
    g = SymmetricGroup(n)
    for perm in itertools.permutations(range(n)):
        assert _one_line_to_lehmer(perm) == encode_one_line(g, perm)


# every backend, with S2 and S5 besides S1 and S4, so the one-line kernel
# and S1's base loop both run, S3 inside a direct product, and a direct
# product nested in another, whose multiply concatenates a factor's result
PRODUCT_BACKENDS = BACKENDS + [
    SymmetricGroup(2),
    SymmetricGroup(5),
    DirectProductGroup([SymmetricGroup(3), CyclicGroup(2)]),
    DirectProductGroup([DirectProductGroup([CyclicGroup(2), DihedralGroup(3)]), HeisenbergGroup(2)]),
]


def test_each_backend_has_its_loop_kernel():
    assert [type(g.loop) for g in (SymmetricGroup(1), SymmetricGroup(2), SymmetricGroup(5))] == [Loop, OneLine, OneLine]
    assert all(type(g.loop) is Loop for g in BACKENDS if not isinstance(g, SymmetricGroup))


@pytest.mark.parametrize("group", PRODUCT_BACKENDS, ids=lambda g: repr(g.describe()))
@given(data=st.data())
def test_loop_product_is_the_double_loop_over_multiply(group, data):
    indices = st.lists(st.integers(0, group.order - 1), max_size=group.order)
    # the whole group as either operand makes the product saturate at once
    operand = st.one_of(indices, indices, st.just(list(range(group.order))))
    xs = [group.element_at(i) for i in data.draw(operand, label="xs")]
    ys = [group.element_at(i) for i in data.draw(operand, label="ys")]
    got = group.loop.times(list(map(group.to_form, xs)), list(map(group.to_form, ys)))
    assert set(map(group.from_form, got)) == {group.multiply(x, y) for x in xs for y in ys}


@pytest.mark.parametrize("group", PRODUCT_BACKENDS, ids=lambda g: repr(g.describe()))
def test_loop_kernel_translates_and_inverts_as_multiply_does(group):
    rng = random.Random(group.order)
    xs = [group.element_at(rng.randrange(group.order)) for _ in range(6)]
    loop, encode = group.loop, group.from_form
    forms = list(map(group.to_form, xs))
    left = loop.lefts(forms)
    assert all(group.multiply(x, encode(group.form_inverse(f))) == group.identity for x, f in zip(xs, forms))
    for x, form in zip(xs, forms):
        assert list(map(encode, left(form))) == [group.multiply(x, y) for y in xs]
    for y, form in zip(xs, forms):
        assert list(map(encode, loop.right(forms, form))) == [group.multiply(x, y) for x in xs]


@pytest.mark.parametrize("group", PRODUCT_BACKENDS, ids=lambda g: repr(g.describe()))
def test_inverse_is_the_two_sided_inverse_and_concatenates_the_factors(group):
    rng = random.Random(group.order)
    for x in (group.element_at(rng.randrange(group.order)) for _ in range(20)):
        y = encoded_inverse(group, x)
        assert group.multiply(x, y) == group.multiply(y, x) == group.identity
        if isinstance(group, DirectProductGroup):
            # the generator form the concatenation replaced
            assert y == tuple(v for g, s in group._parts for v in encoded_inverse(g, x[s]))


#: every backend, with its smallest cases (C1, S1, S2, D1, D2), a nested direct
#: product with a symmetric factor, and table copies of D3 and S3
LAW_BACKENDS = BACKENDS + [
    SymmetricGroup(2),
    DihedralGroup(2),
    DirectProductGroup([DirectProductGroup([SymmetricGroup(3), CyclicGroup(2)]), DihedralGroup(2)]),
    relabelled_table(DihedralGroup(3), [3, 5, 0, 1, 4, 2]),
]


@pytest.mark.parametrize("group", LAW_BACKENDS, ids=lambda g: repr(g.describe()))
def test_each_backend_states_its_law_once_on_its_forms(group):
    elems = list(group.elements())
    forms = [group.to_form(x) for x in elems]
    # a form round-trips, and forms are distinct and sort in encoding order
    assert [group.from_form(f) for f in forms] == elems
    assert len(set(forms)) == len(forms)
    shuffled = forms[:]
    random.Random(group.order).shuffle(shuffled)
    assert sorted(shuffled) == forms
    e = group.to_form(group.identity)
    assert group.from_form(e) == group.identity
    assert group.identity_form == e
    for x, f in zip(elems, forms):
        inv = group.form_inverse(f)
        assert group.form_multiply(f, inv) == e == group.form_multiply(inv, f)
        assert group.form_multiply(f, e) == f == group.form_multiply(e, f)
        for y, g in zip(elems, forms):
            assert group.from_form(group.form_multiply(f, g)) == group.multiply(x, y)


@pytest.mark.parametrize("group", [
    CyclicGroup(1),
    CyclicGroup(6),
    DihedralGroup(1),
    DihedralGroup(2),
    DihedralGroup(5),
    SymmetricGroup(1),
    SymmetricGroup(2),
    SymmetricGroup(4),
    HeisenbergGroup(2),
    HeisenbergGroup(3),
    S3_TABLE,
    DirectProductGroup([DirectProductGroup([SymmetricGroup(1), CyclicGroup(3)]), DihedralGroup(2)]),
], ids=lambda g: repr(g.describe()))
def test_form_row_is_form_multiply_along_a_row(group):
    # the oracle's law: every backend but S1, whose one-index itemgetter would
    # return a scalar, writes its row apart from form_multiply, and a direct
    # product zips its factors' rows
    forms = list(group.all_forms())
    rng = random.Random(group.order)
    repeats = [rng.choice(forms) for _ in range(2 * len(forms) + 3)]
    assert len(set(repeats)) < len(repeats)
    for f in forms:
        for gs in (forms, [], repeats):
            row = group.form_row(f, gs)
            assert type(row) is list
            assert row == [group.form_multiply(f, g) for g in gs]
    if isinstance(group, TableGroup):
        assert group.identity_index != 0


@pytest.mark.parametrize("group", [
    CyclicGroup(1),
    DihedralGroup(1),
    SymmetricGroup(1),
    SymmetricGroup(2),
    SymmetricGroup(6),
    HeisenbergGroup(2),
    relabelled_table(DihedralGroup(3), [3, 5, 0, 1, 4, 2]),
    DirectProductGroup([DirectProductGroup([SymmetricGroup(3), CyclicGroup(2)]), DihedralGroup(2)]),
], ids=lambda g: repr(g.describe()))
def test_all_forms_lists_each_form_once(group):
    # in canonical order, which is encoding order
    assert list(group.all_forms()) == [group.to_form(x) for x in group.elements()]


@pytest.mark.parametrize("n", range(1, 8))
def test_dihedral_index_law_is_the_rotation_and_flip_law(n):
    # r^a s^e · r^b s^f = r^(a + b) s^f when e = 0 and r^(a - b) s^(1 - f) when e = 1
    g = DihedralGroup(n)
    for a, e in g.elements():
        assert encoded_inverse(g, (a, e)) == ((a, 1) if e else (-a % n, 0))
        for b, f in g.elements():
            assert g.multiply((a, e), (b, f)) == (((a - b) if e else (a + b)) % n, e ^ f)


def test_symmetric_degree_guard():
    with pytest.raises(InvalidGroupError):
        SymmetricGroup(SYMMETRIC_DEGREE_LIMIT + 1)
    g = SymmetricGroup(SYMMETRIC_DEGREE_LIMIT + 1, limit=SYMMETRIC_DEGREE_LIMIT + 1)
    assert g.order == 39916800


def test_an_s8_run_converts_elements_only_at_its_boundary(monkeypatch, tmp_path, capsys):
    # a random 400 in S8: each member of A turns into a form once on the way in,
    # and only what the certificate prints, and each shrink witness, turns back
    calls = {"to_form": 0, "from_form": 0}
    for name in calls:

        def counted(x, real=getattr(SymmetricGroup, name), name=name):
            calls[name] += 1
            return real(x)

        monkeypatch.setattr(SymmetricGroup, name, staticmethod(counted))
    spec = {"group": {"type": "symmetric", "n": 8}, "set": {"type": "random", "size": 400, "seed": 0}}
    path = tmp_path / "s8.json"
    path.write_text(json.dumps(spec))
    assert main(["run", "--instance", str(path), "--k", "2"]) == 0
    cert = json.loads(capsys.readouterr().out)
    printed = len(cert["a"]) + len(cert["aprime"]) + len(cert["s"])
    witnesses = sum(1 for step in cert["trace"]["steps"] if step["action"] == "shrink")
    assert witnesses > 0
    assert 0 < calls["to_form"] <= len(cert["a"]) == 400
    assert 0 < calls["from_form"] <= printed + witnesses


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
        assert mat_mul(as_matrix(x), as_matrix(encoded_inverse(g, x)))[0][1:] == (0, 0)


def test_direct_product_componentwise():
    g = DirectProductGroup([CyclicGroup(4), DihedralGroup(3)])
    assert g.order == 24
    assert g.identity == (0, 0, 0)
    assert g.multiply((1, 2, 1), (3, 1, 0)) == (0, 1, 1)
    assert encoded_inverse(g, (1, 2, 0)) == (3, 1, 0)


def test_table_group_from_cyclic_table():
    n = 5
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    g = TableGroup(table)
    assert g.identity == (0,)
    assert g.multiply((2,), (4,)) == (1,)
    assert encoded_inverse(g, (3,)) == (2,)
    assert g.table == tuple(tuple(row) for row in table)
    assert [encoded_inverse(g, (i,)) for i in range(n)] == [(0,), (4,), (3,), (2,), (1,)]


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


def row_swapped(table, i, j, k):
    """A copy of ``table`` with the entries at (i, j) and (i, k) exchanged."""
    out = [list(row) for row in table]
    out[i][j], out[i][k] = out[i][k], out[i][j]
    return out


@pytest.mark.parametrize("table", [
    # S5: identity (row and column 0) and every inverse stay intact; a check
    # of 1,000 sampled triples accepted this table
    row_swapped(relabelled_table(SymmetricGroup(5), list(range(120))).table, 2, 3, 4),
    # 2 + 2 written as 3, so row 2 repeats 3; the identity and 2's inverse 3 stay
    [[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [2, 3, 3, 0, 1], [3, 4, 0, 1, 2], [4, 0, 1, 2, 3]],
    # a loop: Latin square with identity 0 and inverses, not associative
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    # x * y = y: associative, every row is 0, 1, 2, but 0 is only a left identity
    [[0, 1, 2], [0, 1, 2], [0, 1, 2]],
], ids=["s5-swapped-pair", "repeated-entry", "order-5-loop", "right-zero-semigroup"])
def test_table_check_rejects_non_groups(table):
    with pytest.raises(InvalidGroupError):
        TableGroup(table)


def is_group(table, identity=None) -> bool:
    """Every group axiom by definition, over all triples."""
    n = len(table)
    if not all(isinstance(row, list) and len(row) == n
               and all(type(v) is int and 0 <= v < n for v in row) for row in table):
        return False
    units = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not units or (identity is not None and (type(identity) is not int or units != [identity])):
        return False
    e = units[0]
    return all(
        table[table[x][y]][z] == table[x][table[y][z]] for x, y, z in itertools.product(range(n), repeat=3)
    ) and all(any(table[x][y] == e == table[y][x] for y in range(n)) for x in range(n))


TABLE_SPECS = [
    relabelled_table(CyclicGroup(6), [3, 1, 4, 0, 5, 2]).describe(),
    S3_TABLE.describe(),
    relabelled_table(DihedralGroup(4), [6, 2, 7, 0, 4, 1, 5, 3]).describe(),
    relabelled_table(DirectProductGroup([CyclicGroup(2), CyclicGroup(2)]), [2, 0, 3, 1]).describe(),
]
MUTATIONS = ["bool", "float", "out-of-range", "short-row", "duplicate", "swap", "identity"]


def mutated_table_spec(spec, kind, i, j, k, m):
    """``spec`` with its table or identity broken in the way ``kind`` names, at cells picked by i, j, k, m."""
    spec = copy.deepcopy(spec)
    table = spec["table"]
    n = len(table)
    i, j, k, m = i % n, j % n, k % n, m % n
    if kind == "bool":
        table[i][j] = bool(table[i][j])
    elif kind == "float":
        table[i][j] = float(table[i][j])
    elif kind == "out-of-range":
        table[i][j] = n if k % 2 else -1
    elif kind == "short-row":
        del table[i][j]
    elif kind == "duplicate":
        table[i][j] = table[i][(j + 1) % n]
    elif kind == "swap":
        table[i][j], table[i][m] = table[i][m], table[i][j]
    else:
        spec["identity"] = [True, str(spec["identity"]), n, (spec["identity"] + 1 + i) % n][k % 4]
    return spec


@pytest.mark.parametrize("kind", MUTATIONS)
@given(spec=st.sampled_from(TABLE_SPECS), cells=st.tuples(*[st.integers(0, 7)] * 4))
def test_mutated_table_specs_load_if_and_only_if_they_are_groups(kind, spec, cells):
    mutated = mutated_table_spec(spec, kind, *cells)
    try:
        group_from_spec(mutated)
    except InvalidGroupError:
        loaded = False
    else:
        loaded = True
    assert loaded == is_group(mutated["table"], mutated["identity"])


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
    # a foreign object is never equal to a group, through Group.__eq__'s NotImplemented
    g = CyclicGroup(8)
    assert g.__eq__(g.describe()) is NotImplemented
    assert g != g.describe() and g != "cyclic"


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
