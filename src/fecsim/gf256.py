"""GF(2^8) arithmetic and exact linear solving over byte rows.

The field is GF(256) with reduction polynomial x^8 + x^4 + x^3 + x^2 + 1
(0x11D).  Elements are integers in [0, 255]; addition is XOR.

Multiplication is served from a precomputed 256x256 product table, which
doubles as a fast row-scaling primitive: ``_MUL[c][row]`` multiplies every
byte of a numpy row by the scalar ``c`` with one fancy-index gather.  The
tables are an optimisation only; ground truth is carry-less polynomial
multiplication reduced modulo 0x11D, which the test suite checks
exhaustively against this module.
"""

from __future__ import annotations

import numpy as np

FIELD_POLY = 0x11D
ORDER = 256


class InversionOfZero(ZeroDivisionError):
    """A multiplicative inverse was requested for 0."""


class SingularMatrix(ValueError):
    """The linear system has no unique solution (rank deficient)."""


def _build_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # 2 is a generator for 0x11D, so log/antilog tables cover all of GF(256)*.
    exp = np.zeros(510, dtype=np.uint8)
    log = np.zeros(ORDER, dtype=np.int64)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= FIELD_POLY
    exp[255:510] = exp[:255]
    mul = np.zeros((ORDER, ORDER), dtype=np.uint8)
    mul[1:, 1:] = exp[log[1:, None] + log[None, 1:]]
    return exp, log, mul


_EXP, _LOG, _MUL = _build_tables()


def gf_mul(a: int, b: int) -> int:
    """Field multiplication via the product table."""
    return int(_MUL[a, b])


def gf_pow(a: int, e: int) -> int:
    """a**e for e >= 0."""
    if e == 0:
        return 1
    if a == 0:
        return 0
    return int(_EXP[(_LOG[a] * e) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises :class:`InversionOfZero` for 0."""
    if a == 0:
        raise InversionOfZero("0 has no multiplicative inverse in GF(256)")
    return int(_EXP[255 - _LOG[a]])


def addmul_row(acc: np.ndarray, coeff: int, row: np.ndarray) -> None:
    """acc ^= coeff * row, in place."""
    if coeff:
        acc ^= _MUL[coeff][row]


def matmul(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix`` (r x c) times a stack of byte rows (c x w) over GF(256)."""
    matrix = np.asarray(matrix, dtype=np.uint8)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
    r, c = matrix.shape
    if rows.shape[0] != c:
        raise ValueError(f"need {c} rows, got {rows.shape[0]}")
    out = np.zeros((r, rows.shape[1]), dtype=np.uint8)
    for i in range(r):
        acc = out[i]
        mrow = matrix[i]
        for j in range(c):
            coeff = mrow[j]
            if coeff:
                acc ^= _MUL[coeff][rows[j]]
    return out


def solve_linear_system(matrix, rhs) -> np.ndarray:
    """Solve ``matrix . x = rhs`` over GF(256) by Gauss-Jordan elimination.

    ``matrix`` is (r x c) with r >= c (square or overdetermined);
    ``rhs`` is a stack of r byte rows.  Returns the c solution rows.

    Pivoting is deterministic: the first nonzero entry scanning down each
    column is chosen, so results are byte-reproducible everywhere.
    Raises :class:`SingularMatrix` when some column has no pivot.
    Overdetermined systems are assumed consistent (the erasure decoders
    only ever build consistent ones).
    """
    a = np.array(matrix, dtype=np.uint8, copy=True)
    b = np.atleast_2d(np.array(rhs, dtype=np.uint8, copy=True))
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    r, c = a.shape
    if c == 0:
        return np.zeros((0, b.shape[1]), dtype=np.uint8)
    if r < c:
        raise SingularMatrix(f"underdetermined system: {r} equations, {c} unknowns")
    if b.shape[0] != r:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix has {r}")
    for col in range(c):
        pivot = -1
        for i in range(col, r):
            if a[i, col]:
                pivot = i
                break
        if pivot < 0:
            raise SingularMatrix(f"no pivot available for column {col}")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        inv = gf_inv(int(a[col, col]))
        if inv != 1:
            a[col] = _MUL[inv][a[col]]
            b[col] = _MUL[inv][b[col]]
        for i in range(r):
            if i != col and a[i, col]:
                f = int(a[i, col])
                a[i] ^= _MUL[f][a[col]]
                b[i] ^= _MUL[f][b[col]]
    return b[:c]
