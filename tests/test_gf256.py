"""GF(2^8) arithmetic checked against a carry-less multiply oracle.

The oracle multiplies polynomials over GF(2) bit by bit and reduces by
long division; the library's table-driven kernels must agree with it on
every input pair.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fecsim.gf256 import (
    _TRANSLATE,
    FIELD_POLY,
    InversionOfZero,
    SingularMatrix,
    addmul_row,
    gf_inv,
    gf_mul,
    gf_pow,
    matmul,
    solve_linear_system,
)


def clmul_oracle(a: int, b: int) -> int:
    """Carry-less multiply then long division by the field polynomial."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    while acc.bit_length() > 8:
        acc ^= FIELD_POLY << (acc.bit_length() - 9)
    return acc


def test_field_polynomial_value():
    assert FIELD_POLY == 0x11D


def test_golden_products():
    # frozen from the oracle above
    assert gf_mul(0x80, 0x02) == 0x1D  # x^8 reduced by the polynomial
    assert gf_mul(0x57, 0x83) == 0x31
    assert gf_mul(0x00, 0xFF) == 0x00
    assert gf_mul(0x01, 0xAB) == 0xAB


def test_golden_inverse():
    assert gf_inv(0x02) == 0x8E
    assert gf_inv(0x01) == 0x01


def test_multiplication_matches_oracle_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == clmul_oracle(a, b), (a, b)


def test_every_nonzero_element_has_inverse():
    for a in range(1, 256):
        inv = gf_inv(a)
        assert gf_mul(a, inv) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(InversionOfZero):
        gf_inv(0)


def test_division_via_inverse():
    rnd = random.Random(0xD1F)
    for _ in range(500):
        a = rnd.randrange(256)
        b = rnd.randrange(1, 256)
        quotient = gf_mul(a, gf_inv(b))
        assert gf_mul(quotient, b) == a


def test_distributivity_random_triples():
    rnd = random.Random(7)
    for _ in range(2000):
        a, b, c = (rnd.randrange(256) for _ in range(3))
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_associativity_and_commutativity():
    rnd = random.Random(8)
    for _ in range(2000):
        a, b, c = (rnd.randrange(256) for _ in range(3))
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


def test_pow_matches_repeated_multiplication():
    for base in (0, 1, 2, 3, 0x53, 0xFF):
        acc = 1
        for exp in range(12):
            assert gf_pow(base, exp) == acc
            acc = gf_mul(acc, base)


def test_row_kernels_match_scalar_ops():
    rnd = random.Random(9)
    row = np.array([rnd.randrange(256) for _ in range(64)], dtype=np.uint8)
    other = np.array([rnd.randrange(256) for _ in range(64)], dtype=np.uint8)
    for coeff in (0, 1, 2, 0x1D, 0xFF):
        acc = other.copy()
        addmul_row(acc, coeff, row)
        assert [int(v) for v in acc] == [
            int(o) ^ gf_mul(coeff, int(v)) for o, v in zip(other, row)
        ]


def test_matmul_against_schoolbook():
    rnd = random.Random(10)
    a = np.array(
        [[rnd.randrange(256) for _ in range(5)] for _ in range(4)], dtype=np.uint8
    )
    b = np.array(
        [[rnd.randrange(256) for _ in range(3)] for _ in range(5)], dtype=np.uint8
    )
    got = matmul(a, b)
    for i in range(4):
        for j in range(3):
            want = 0
            for t in range(5):
                want ^= gf_mul(int(a[i, t]), int(b[t, j]))
            assert int(got[i, j]) == want


def test_solver_roundtrip_random_systems():
    rnd = random.Random(11)
    solved = 0
    while solved < 60:
        n = rnd.randrange(1, 33)
        mat = np.array(
            [[rnd.randrange(256) for _ in range(n)] for _ in range(n)],
            dtype=np.uint8,
        )
        x = np.array(
            [[rnd.randrange(256)] for _ in range(n)], dtype=np.uint8
        )
        rhs = matmul(mat, x)
        try:
            got = solve_linear_system(mat, rhs)
        except SingularMatrix:
            continue
        assert np.array_equal(matmul(mat, got), rhs)
        assert np.array_equal(got, x)
        solved += 1


def test_solver_rejects_singular_matrix():
    mat = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    rhs = np.array([[1], [2]], dtype=np.uint8)
    with pytest.raises(SingularMatrix):
        solve_linear_system(mat, rhs)


def test_solver_is_deterministic():
    rnd = random.Random(12)
    mat = np.array(
        [[rnd.randrange(256) for _ in range(8)] for _ in range(8)], dtype=np.uint8
    )
    rhs = np.array([[rnd.randrange(256)] for _ in range(8)], dtype=np.uint8)
    first = solve_linear_system(mat.copy(), rhs.copy())
    second = solve_linear_system(mat.copy(), rhs.copy())
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# Row kernels against the oracle, at random shapes and widths

COEFF = st.sampled_from([0, 1]) | st.integers(0, 255)


def oracle_product(matrix, rows):
    out = []
    for mrow in matrix:
        acc = [0] * len(rows[0])
        for f, row in zip(mrow, rows):
            acc = [a ^ clmul_oracle(f, v) for a, v in zip(acc, row)]
        out.append(acc)
    return out


@st.composite
def products(draw):
    """A coefficient matrix, some of its rows all zero, and byte rows of
    any width from 1 to 80 (most not a multiple of 8)."""
    r, c, width = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 80))
    matrix = [draw(st.lists(COEFF, min_size=c, max_size=c)) for _ in range(r)]
    for i in draw(st.sets(st.integers(0, r - 1))):
        matrix[i] = [0] * c
    rows = [list(draw(st.binary(min_size=width, max_size=width))) for _ in range(c)]
    return matrix, rows


def test_translate_tables_match_products():
    for c in range(256):
        assert list(_TRANSLATE[c]) == [gf_mul(c, x) for x in range(256)]


@settings(deadline=None)
@given(products())
def test_matmul_matches_oracle(case):
    matrix, rows = case
    got = matmul(np.array(matrix, dtype=np.uint8), np.array(rows, dtype=np.uint8))
    assert got.dtype == np.uint8
    assert got.shape == (len(matrix), len(rows[0]))
    assert got.tolist() == oracle_product(matrix, rows)


@settings(deadline=None)
@given(COEFF, st.binary(min_size=1, max_size=80), st.data())
def test_addmul_row_matches_oracle(coeff, row, data):
    before = data.draw(st.binary(min_size=len(row), max_size=len(row)))
    acc = np.frombuffer(before, dtype=np.uint8).copy()
    addmul_row(acc, coeff, np.frombuffer(row, dtype=np.uint8))
    assert acc.tolist() == [a ^ clmul_oracle(coeff, v) for a, v in zip(before, row)]


@st.composite
def consistent_systems(draw):
    """matrix (r x c, r >= c), unknowns x (c x width) and rhs = matrix . x."""
    c = draw(st.integers(1, 8))
    r = draw(st.integers(c, c + 4))
    width = draw(st.integers(1, 80))
    byte = st.integers(0, 255)
    matrix = [draw(st.lists(byte, min_size=c, max_size=c)) for _ in range(r)]
    x = [list(draw(st.binary(min_size=width, max_size=width))) for _ in range(c)]
    return matrix, x, oracle_product(matrix, x)


@settings(deadline=None)
@given(consistent_systems())
def test_solver_roundtrips_square_and_overdetermined(case):
    matrix, x, rhs = case
    try:
        got = solve_linear_system(
            np.array(matrix, dtype=np.uint8), np.array(rhs, dtype=np.uint8)
        )
    except SingularMatrix:
        assume(False)
    assert got.dtype == np.uint8
    assert got.tolist() == x
