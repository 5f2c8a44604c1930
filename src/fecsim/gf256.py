"""GF(2^8) arithmetic and exact linear solving over byte rows.

The field is GF(256) with reduction polynomial x^8 + x^4 + x^3 + x^2 + 1
(0x11D).  Elements are integers in [0, 255]; addition is XOR.

Multiplication is served from a precomputed 256x256 product table.  Its
rows double as ``bytes.translate`` tables: ``row.translate(_TRANSLATE[c])``
multiplies every byte of ``row`` by the scalar ``c``.  :func:`matmul`
builds each output row by translating each source row by its nonzero
coefficient (coefficient 1 needs no translate), joining the results and
XOR-reducing them as 64-bit words.  :func:`solve_linear_system` eliminates
on the narrow coefficient matrix only and applies the resulting transform
to the wide right-hand side with one :func:`matmul`.  The tables are an
optimisation only; ground truth is carry-less polynomial multiplication
reduced modulo 0x11D, which the test suite checks exhaustively against
this module.
"""

from __future__ import annotations

from typing import Sequence

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
# _TRANSLATE[c] maps every byte x to c * x.
_TRANSLATE = [bytes(_MUL[c]) for c in range(ORDER)]


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
    if coeff == 1:
        acc ^= row
    elif coeff:
        acc ^= np.frombuffer(row.tobytes().translate(_TRANSLATE[coeff]), dtype=np.uint8)


def xor_rows(rows: np.ndarray) -> np.ndarray:
    """XOR of the rows of an (n x w) byte array, n >= 1, reduced as 64-bit
    words when w is a multiple of 8."""
    if rows.shape[1] % 8:
        return np.bitwise_xor.reduce(rows, axis=0)
    return np.bitwise_xor.reduce(rows.view(np.uint64), axis=0).view(np.uint8)


def _combine(matrix: np.ndarray, sources: list[bytes]) -> np.ndarray:
    # Output row i is the XOR over j of matrix[i, j] * sources[j].
    width = len(sources[0])
    out = np.zeros((matrix.shape[0], width), dtype=np.uint8)
    for out_row, coeffs in zip(out, matrix.tolist()):
        terms = [
            src if f == 1 else src.translate(_TRANSLATE[f])
            for f, src in zip(coeffs, sources)
            if f
        ]
        if terms:
            joined = np.frombuffer(b"".join(terms), dtype=np.uint8)
            out_row[:] = xor_rows(joined.reshape(len(terms), width))
    return out


def matmul(matrix: np.ndarray, rows: Sequence[np.ndarray]) -> np.ndarray:
    """``matrix`` (r x c) times c byte rows over GF(256).

    ``rows`` is a (c x w) uint8 array or a sequence of c uint8 rows of
    one width w; the result is (r x w).
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    sources = [row.tobytes() for row in rows]
    if len(sources) != matrix.shape[1]:
        raise ValueError(f"need {matrix.shape[1]} rows, got {len(sources)}")
    if len({len(src) for src in sources}) != 1:
        raise ValueError("need at least one row, all of one width")
    return _combine(matrix, sources)


def solve_linear_system(matrix, rhs) -> np.ndarray:
    """Solve ``matrix . x = rhs`` over GF(256) by Gauss-Jordan elimination.

    ``matrix`` is (r x c) with r >= c (square or overdetermined);
    ``rhs`` is a stack of r byte rows.  Returns the c solution rows.

    The elimination runs on ``[matrix | I]``, so the identity half ends up
    as the product T of all row operations, and the solution is the first
    c rows of T applied to ``rhs`` in one :func:`matmul`: the same linear
    map as eliminating on ``[matrix | rhs]``, at the width of the matrix.

    Pivoting is deterministic: the first nonzero entry scanning down each
    column is chosen, so results are byte-reproducible everywhere.
    Raises :class:`SingularMatrix` when some column has no pivot.
    Overdetermined systems are assumed consistent (the erasure decoders
    only ever build consistent ones).
    """
    a = np.asarray(matrix, dtype=np.uint8)
    b = np.atleast_2d(np.asarray(rhs, dtype=np.uint8))
    if a.ndim != 2:
        raise ValueError("matrix must be 2-dimensional")
    r, c = a.shape
    if c == 0:
        return np.zeros((0, b.shape[1]), dtype=np.uint8)
    if r < c:
        raise SingularMatrix(f"underdetermined system: {r} equations, {c} unknowns")
    if b.shape[0] != r:
        raise ValueError(f"rhs has {b.shape[0]} rows, matrix has {r}")
    aug = np.concatenate([a, np.eye(r, dtype=np.uint8)], axis=1)
    for col in range(c):
        pivot = next((i for i, v in enumerate(aug[col:, col].tolist(), col) if v), -1)
        if pivot < 0:
            raise SingularMatrix(f"no pivot available for column {col}")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv = gf_inv(int(aug[col, col]))
        if inv != 1:
            aug[col] = _MUL[inv][aug[col]]
        # Every other row i loses aug[i, col] times the pivot row at once;
        # rows with a zero factor XOR zeros.
        factors = aug[:, col].copy()
        factors[col] = 0
        aug ^= _MUL[factors[:, None], aug[col]]
    return _combine(aug[:c, c:], [row.tobytes() for row in b])
