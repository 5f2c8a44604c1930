"""Erasure-coding schemes over GF(256): XOR parity, a systematic
Reed-Solomon block code, and a sliding-window random linear code (RLC).
Lane interleaving of XOR blocks is scheduled in :mod:`fecsim.framework`.

All three are linear codes: a repair is a coefficient row (ones, an RS
generator row, or seeded) times its sources, so one decoder,
:class:`RlcDecoder`, solves every code's repairs as equations;
:func:`xor_recover` and :func:`rs_decode` stay as closed-form references.

All schemes operate on fixed-width symbols.  A symbol is the original
packet bytes behind a 2-byte big-endian true-length prefix, zero padded
to the configured symbol width, so recovery reproduces variable-length
packets byte-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import gf256
from .rng import xorshift32

SCHEME_XOR = 0x01
SCHEME_REED_SOLOMON = 0x02
SCHEME_RLC = 0x03

RLC_EVICT_WINDOWS = 4  # coding windows of state an RlcDecoder keeps


class FecSchemeError(Exception):
    """Base class for coding-layer errors."""


class EmptyBlock(FecSchemeError):
    """An encode was requested over zero source symbols."""


class NothingToRecover(FecSchemeError):
    """Recovery was requested but no source symbol is missing."""


class Unrecoverable(FecSchemeError):
    """More symbols are missing than the received repairs can restore."""


class InvalidParams(FecSchemeError, ValueError):
    """Code parameters outside their documented ranges."""


def symbol_size_for(max_packet: int) -> int:
    """Symbol width for packets up to ``max_packet`` bytes: 2-byte length
    prefix, payload, 6 spare bytes, rounded to a multiple of 8."""
    return (2 + max_packet + 6 + 7) // 8 * 8


def frame_symbol(data: bytes, symbol_size: int = 1208) -> np.ndarray:
    """Wrap packet bytes into a fixed-width symbol (length prefix + padding).
    The framework passes its own width; the default, for callers outside it,
    is a full packet's, ``symbol_size_for(frames.MAX_PACKET_SIZE)``."""
    if len(data) > symbol_size - 2:
        raise InvalidParams(
            f"{len(data)} bytes do not fit a {symbol_size}-byte symbol"
        )
    sym = np.zeros(symbol_size, dtype=np.uint8)
    sym[0] = len(data) >> 8
    sym[1] = len(data) & 0xFF
    sym[2 : 2 + len(data)] = np.frombuffer(data, dtype=np.uint8)
    return sym


def unframe_symbol(symbol: np.ndarray) -> bytes:
    """Strip the length prefix and padding from a recovered symbol."""
    length = (int(symbol[0]) << 8) | int(symbol[1])
    if length > len(symbol) - 2:
        raise FecSchemeError(f"corrupt symbol: length prefix {length}")
    return symbol[2 : 2 + length].tobytes()


@dataclass(frozen=True)
class BlockCodeParams:
    """(n, k) block code: k source symbols, n - k repairs per block."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if not (1 <= self.k <= self.n <= 256):
            raise InvalidParams(f"need 1 <= k <= n <= 256, got n={self.n} k={self.k}")

    @property
    def repairs(self) -> int:
        return self.n - self.k


@dataclass(frozen=True)
class ConvolutionalParams:
    """(n, k, c) sliding-window code: n - k repairs per k sources, window c."""

    n: int
    k: int
    c: int

    def __post_init__(self) -> None:
        if not 1 <= self.k < self.n:
            raise InvalidParams(f"need 1 <= k < n, got n={self.n} k={self.k}")
        if not self.k <= self.c <= 2**32 - 1:
            raise InvalidParams(f"window must be in [k, 2^32-1], got {self.c}")

    @property
    def repairs(self) -> int:
        return self.n - self.k


@dataclass
class RepairSymbol:
    """A coded symbol plus the 32-bit scheme-specific field that travels
    with it (repair index for XOR/RS, coefficient seed for RLC)."""

    payload: np.ndarray
    scheme_specific: int = 0


# ---------------------------------------------------------------------------
# XOR

def xor_encode(sources: Sequence[np.ndarray]) -> RepairSymbol:
    """XOR of all source symbols in a block."""
    if len(sources) == 0:
        raise EmptyBlock("cannot encode an empty block")
    return RepairSymbol(gf256.xor_rows(np.stack(sources)), 0)


def xor_recover(received: Sequence[Optional[np.ndarray]], payload: np.ndarray) -> np.ndarray:
    """Restore the single missing symbol of a block from its XOR repair's
    payload.

    ``received`` lists the block's source symbols in offset order with
    ``None`` marking the gap.
    """
    missing = [i for i, sym in enumerate(received) if sym is None]
    if not missing:
        raise NothingToRecover("block is already complete")
    if len(missing) > 1:
        raise Unrecoverable(f"{len(missing)} symbols missing, XOR repairs one")
    rows = [payload, *(sym for sym in received if sym is not None)]
    return gf256.xor_rows(np.stack(rows))


# ---------------------------------------------------------------------------
# Systematic Reed-Solomon (Vandermonde construction)

@lru_cache(maxsize=None)
def rs_generator(n: int, k: int) -> np.ndarray:
    """Systematic n x k generator: identity on top, repair rows below.

    Built from the Vandermonde matrix over evaluation points 1..n,
    normalised against its top k x k block so the source part is the
    identity.  Any k rows of the result are linearly independent.
    """
    BlockCodeParams(n, k)
    v = np.zeros((n, k), dtype=np.uint8)
    for i in range(n):
        for j in range(k):
            v[i, j] = gf256.gf_pow(i + 1, j)
    top_inv = gf256.solve_linear_system(v[:k], np.eye(k, dtype=np.uint8))
    g = gf256.matmul(v, top_inv)
    return g


def rs_encode(
    sources: Sequence[np.ndarray], params: BlockCodeParams
) -> list[RepairSymbol]:
    """Produce the block's n - k repair symbols from its k sources."""
    if len(sources) == 0:
        raise EmptyBlock("cannot encode an empty block")
    if len(sources) > params.k:
        raise InvalidParams(f"block holds {params.k} sources, got {len(sources)}")
    # A short block is a shorter code with the same repair count.
    k = len(sources)
    n = k + params.repairs
    g = rs_generator(n, k)
    payloads = gf256.matmul(g[k:], sources)
    return [RepairSymbol(payloads[i], i) for i in range(params.repairs)]


def rs_decode(
    sources: Mapping[int, np.ndarray],
    repairs: Mapping[int, np.ndarray],
    params: BlockCodeParams,
) -> dict[int, np.ndarray]:
    """Recover the missing sources of one block.

    ``sources`` maps offset -> received symbol, ``repairs`` maps repair
    index -> received repair payload.  Returns offset -> recovered symbol
    (empty when nothing is missing).  Raises :class:`Unrecoverable` when
    fewer than k symbols survived.
    """
    k = params.k
    missing = [o for o in range(k) if o not in sources]
    if not missing:
        return {}
    if len(sources) + len(repairs) < k:
        raise Unrecoverable(
            f"{len(sources)} sources + {len(repairs)} repairs < k={k}"
        )
    g = rs_generator(params.n, k)
    indices = sorted(repairs)
    known = list(sources)
    grows = g[[k + ridx for ridx in indices]]
    # Residual of repair e: its payload minus the known sources' share,
    # for every repair in one matmul over [sources; payloads].
    rhs = gf256.matmul(
        np.concatenate([grows[:, known], np.eye(len(indices), dtype=np.uint8)], axis=1),
        [sources[off] for off in known] + [repairs[ridx] for ridx in indices],
    )
    rows = grows[:, missing]
    try:
        solved = gf256.solve_linear_system(rows, rhs)
    except gf256.SingularMatrix as exc:  # cannot happen for true RS inputs
        raise Unrecoverable(str(exc)) from exc
    return {off: solved[i] for i, off in enumerate(missing)}


# ---------------------------------------------------------------------------
# Sliding-window random linear code

def rlc_coefficients(seed: int, count: int) -> np.ndarray:
    """Expand a 32-bit seed into ``count`` coding coefficients.

    xorshift32 over the seed, low byte taken, 0 remapped to 1 so every
    source symbol in the window actually contributes.
    """
    coeffs = np.empty(count, dtype=np.uint8)
    state = seed & 0xFFFFFFFF
    for i in range(count):
        state = xorshift32(state)
        byte = state & 0xFF
        coeffs[i] = byte if byte else 1
    return coeffs


def rlc_encode(
    window: Sequence[np.ndarray], window_start: int, seed: int
) -> RepairSymbol:
    """Linear combination of the window's symbols under seeded coefficients."""
    if len(window) == 0:
        raise EmptyBlock("cannot encode an empty window")
    coeffs = rlc_coefficients(seed, len(window))
    return RepairSymbol(gf256.matmul(coeffs[None, :], window)[0], seed)


@dataclass(eq=False)
class _Equation:
    start: int  # its lowest source id; the horizon drops it once past
    coeffs: dict[int, int]  # unknown source id -> coefficient
    known: dict[int, tuple[int, np.ndarray]]  # known id -> (coefficient, symbol)
    payload: np.ndarray

    def residual(self, scale: int) -> np.ndarray:
        """``scale`` times the payload minus the known symbols' share."""
        terms = [*self.known.values(), (1, self.payload)]
        row = [gf256.gf_mul(scale, coeff) for coeff, _ in terms]
        return gf256.matmul([row], [sym for _, sym in terms])[0]


class RlcDecoder:
    """Incremental decoder for every code: each repair is one linear
    equation over the source ids it covers.

    RLC repairs arrive through :meth:`add_repair`; XOR and Reed-Solomon
    repairs are fed by :class:`fecsim.framework.ReceiverFec` through
    :meth:`add_equation`, as rows of ones or of the RS generator.  The
    class keeps the name of its first code: perfbench's layer tracer, the
    demos and the acceptance tests reach it by that name.

    Feed received source symbols and equations in any order; after each
    arrival the decoder solves every connected group of unknowns the
    arrival changed, once the group holds as many equations as unknowns.
    State older than :data:`RLC_EVICT_WINDOWS` coding windows behind the
    newest source id is discarded.
    """

    def __init__(self, window: int):
        if window < 1:
            raise InvalidParams(f"window must be >= 1, got {window}")
        self.window = window
        self.symbols: dict[int, np.ndarray] = {}  # received or recovered
        self._equations: dict[_Equation, None] = {}  # pending, oldest first
        self._holders: dict[int, list[_Equation]] = {}  # unknown -> its equations
        self._touched: set[int] = set()  # unknowns whose group changed
        self._newest = -1
        self._horizon = 0  # the oldest id kept; older repairs are dropped
        self._since_sweep = 0

    # -- feeding ------------------------------------------------------------

    def add_source(
        self, seq: int, symbol: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        """Register a received source symbol; returns newly recovered ones."""
        if seq in self.symbols or seq < self._horizon:
            return []
        symbol = self.symbols[seq] = np.asarray(symbol, dtype=np.uint8)
        for eq in self._holders.pop(seq, ()):
            eq.known[seq] = (eq.coeffs.pop(seq), symbol)
            if eq.coeffs:
                self._touched.update(eq.coeffs)
            else:
                del self._equations[eq]
        self._advance(seq)
        return self._solve() if self._touched else []

    def add_repair(
        self, window_start: int, length: int, seed: int, payload: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        """Register a repair covering [window_start, window_start+length);
        returns newly recovered source symbols in sequence order."""
        if length < 1:
            raise InvalidParams(f"repair window length must be >= 1, got {length}")
        ids = range(window_start, window_start + length)
        if all(map(self.symbols.__contains__, ids)):  # no unknown: skip the expansion
            self._advance(ids[-1])
            return []
        return self.add_equation(ids, rlc_coefficients(seed, length).tolist(), payload)

    def add_equation(
        self, ids: Sequence[int], coeffs: Sequence[int], payload: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        """Register a repair whose ``payload`` is the sum of ``coeffs[i]``
        times the symbol of ``ids[i]``, ids ascending and coefficients
        nonzero; returns newly recovered source symbols in id order.  A
        repair with an unknown below the horizon is dropped."""
        known: dict[int, tuple[int, np.ndarray]] = {}
        unknowns: dict[int, int] = {}
        for seq, coeff in zip(ids, coeffs):
            sym = self.symbols.get(seq)
            if sym is not None:
                known[seq] = (coeff, sym)
            elif seq < self._horizon:
                unknowns = {}
                break
            else:
                unknowns[seq] = coeff
        self._advance(ids[-1])
        if not unknowns:
            return []
        eq = _Equation(ids[0], unknowns, known, payload)
        self._equations[eq] = None
        for seq in unknowns:
            self._holders.setdefault(seq, []).append(eq)
        self._touched.update(unknowns)
        recovered = self._solve()
        if eq.start < self._horizon and eq in self._equations:
            self._drop([eq])  # it served this arrival only
        return recovered

    def forget(self, ids: range) -> None:
        """Drop the symbols of ``ids`` and the equations starting there."""
        held = ids if len(ids) < len(self.symbols) else [s for s in self.symbols if s in ids]
        for seq in held:
            self.symbols.pop(seq, None)
        self._drop([eq for eq in self._equations if eq.start in ids])

    # -- internals ----------------------------------------------------------

    def _drop(self, eqs: Iterable[_Equation]) -> None:
        for eq in eqs:
            del self._equations[eq]
            for seq in eq.coeffs:
                self._holders[seq].remove(eq)
                if not self._holders[seq]:
                    del self._holders[seq]
            self._touched.update(eq.coeffs)

    def _solve(self) -> list[tuple[int, np.ndarray]]:
        """Solve each group of unknowns, joined by shared equations, that
        holds a touched unknown and as many equations as unknowns."""
        recovered: list[tuple[int, np.ndarray]] = []
        while self._touched:
            seq = self._touched.pop()
            if seq not in self._holders:
                continue  # known or evicted since it was touched
            group, eqs, frontier = {seq}, {}, [seq]
            while frontier:
                for eq in self._holders[frontier.pop()]:
                    if eq not in eqs:
                        eqs[eq] = None
                        frontier += eq.coeffs.keys() - group
                        group.update(eq.coeffs)
            self._touched -= group
            if len(eqs) < len(group):
                continue
            unknowns = sorted(group)
            if len(unknowns) == 1:  # scale the first equation
                eq = next(iter(eqs))
                solved = [eq.residual(gf256.gf_inv(eq.coeffs[seq]))]
            else:
                rows = [[eq.coeffs.get(seq, 0) for seq in unknowns] for eq in eqs]
                try:
                    solved = gf256.solve_linear_system(rows, [eq.residual(1) for eq in eqs])
                except gf256.SingularMatrix:
                    continue
            self._drop(eqs)
            for seq, row in zip(unknowns, solved):
                self.symbols[seq] = row
                recovered.append((seq, row))
        return sorted(recovered, key=lambda pair: pair[0])

    def _advance(self, seq: int) -> None:
        if seq > self._newest:
            self._newest = seq
            horizon = seq - RLC_EVICT_WINDOWS * self.window
            if horizon > self._horizon:
                self._horizon = horizon
                # an equation's unknowns all lie at or above its start
                self._drop([eq for eq in self._equations if eq.start < horizon])
        self._since_sweep += 1
        if self._since_sweep >= 256:
            self._since_sweep = 0
            self.forget(range(self._horizon - self.window))
