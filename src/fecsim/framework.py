"""Scheme-agnostic FEC plumbing.

This module owns everything between the transport and the raw codes:

* source payload identifiers (32-bit) and repair identifiers (64-bit),
* the repair frame wire format,
* sender-side emission scheduling: each code is one coding group per lane
  (an open block, or the RLC window) that emits every k sources, and each
  repair symbol is queued on ``SenderFec.pending`` as one whole frame
  (``F`` set, chunk 0), which the transport sends as it is,
* :func:`chunk_repair`, which splits a symbol wider than one frame's
  payload into chunks, and the receiver-side reassembly of such chunks:
  one symbol at a time, holding at most one symbol's bytes,
* receiver-side recovery through one decoder for every code, each repair
  one equation over its sources, with state bounded by the code: at most
  ``ReceiverFec.BLOCK_BACKLOG`` blocks, or the RLC horizon plus one window.

Payload id layouts.  Block codes split the 32-bit source id into a
24-bit block number and an 8-bit offset inside the block; convolutional
codes use the full 32 bits as a sequence offset.  Repair ids are 64-bit:
the high half carries the framework part (block number + repair index,
or window start), the low half the scheme-specific field (repair index
for XOR/RS, coefficient seed for RLC).

Frame wire format (big-endian), header padded to a fixed 16 bytes::

    0      1           3       4          12    13    14      16
    | 0x0a | dl<<1 | F | chunk | repair id | nss | nrs | reserved | payload

where ``dl`` is the 15-bit payload length of this chunk and ``F`` (the
least significant bit) marks the final chunk of a repair symbol.  The
transport sizes its symbols to one frame, which the receiver takes without
buffering.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import schemes
from .rng import splitmix64_mix
from .schemes import (
    SCHEME_REED_SOLOMON,
    SCHEME_RLC,
    SCHEME_XOR,
    BlockCodeParams,
    ConvolutionalParams,
    frame_symbol,
    unframe_symbol,
)

FEC_FRAME_TYPE = 0x0A
FEC_FRAME_HEADER_LEN = 16
MAX_CHUNKS = 256
MAX_CHUNK_PAYLOAD = 0x7FFF  # 15-bit length field

_HEADER = struct.Struct(">BHBQBBH")


class FecFrameworkError(Exception):
    pass


class IdSpaceExhausted(FecFrameworkError):
    """The 24-bit block space or 32-bit sequence space overflowed."""


class ChunkingOverflow(FecFrameworkError):
    """A repair symbol does not fit in 256 chunks of the given size."""


class MalformedFrame(FecFrameworkError):
    """Truncated or self-inconsistent repair frame bytes, or a repair frame
    at odds with the code its block was first announced with."""


class NotAFecFrame(FecFrameworkError):
    """The buffer does not start with the repair frame type byte."""


class UnknownScheme(FecFrameworkError):
    """Scheme identifier outside the registry."""


# ---------------------------------------------------------------------------
# Payload identifiers

def block_source_id(block_number: int, offset: int) -> int:
    if not 0 <= block_number < 1 << 24:
        raise IdSpaceExhausted(f"block number {block_number} exceeds 24 bits")
    if not 0 <= offset < 1 << 8:
        raise IdSpaceExhausted(f"offset {offset} exceeds 8 bits")
    return (block_number << 8) | offset


def split_block_source_id(raw: int) -> tuple[int, int]:
    return raw >> 8, raw & 0xFF


def block_repair_id(block_number: int, index: int, scheme_specific: int) -> int:
    return (block_source_id(block_number, index) << 32) | (scheme_specific & 0xFFFFFFFF)


def conv_repair_id(window_start: int, scheme_specific: int) -> int:
    if not 0 <= window_start < 1 << 32:
        raise IdSpaceExhausted(f"window start {window_start} exceeds 32 bits")
    return (window_start << 32) | (scheme_specific & 0xFFFFFFFF)


def split_repair_id(raw: int) -> tuple[int, int]:
    """(framework part, scheme-specific part)."""
    return (raw >> 32) & 0xFFFFFFFF, raw & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Repair frame wire format

@dataclass(slots=True)
class FecFrame:
    """One chunk of a repair symbol plus its announced code shape."""

    fin: bool
    chunk_offset: int
    repair_id: int
    nss: int
    nrs: int
    payload: bytes


def chunk_repair(frame: FecFrame, max_frame_payload: int) -> list[FecFrame]:
    """Split a whole repair symbol (``frame``, F set at chunk 0) into frames
    of at most ``max_frame_payload`` payload bytes each; the F bit marks the
    final chunk only.  Raises :class:`ChunkingOverflow` if the symbol needs
    more than 256 chunks."""
    payload = frame.payload
    if not 1 <= max_frame_payload <= MAX_CHUNK_PAYLOAD:
        raise ValueError(f"max_frame_payload must be in [1, {MAX_CHUNK_PAYLOAD}]")
    if len(payload) == 0:
        raise ValueError("repair payload must not be empty")
    if len(payload) > max_frame_payload * MAX_CHUNKS:
        raise ChunkingOverflow(
            f"{len(payload)}-byte repair exceeds {MAX_CHUNKS} chunks "
            f"of {max_frame_payload} bytes"
        )
    last = (len(payload) - 1) // max_frame_payload
    return [
        FecFrame(
            idx == last,
            idx,
            frame.repair_id,
            frame.nss,
            frame.nrs,
            payload[idx * max_frame_payload : (idx + 1) * max_frame_payload],
        )
        for idx in range(last + 1)
    ]


def encode_fec_frame(frame: FecFrame) -> bytes:
    return (
        _HEADER.pack(
            FEC_FRAME_TYPE,
            (len(frame.payload) << 1) | int(frame.fin),
            frame.chunk_offset,
            frame.repair_id,
            frame.nss,
            frame.nrs,
            0,
        )
        + frame.payload
    )


def parse_fec_frame(buf: bytes, offset: int = 0) -> tuple[FecFrame, int]:
    """Parse one repair frame; returns (frame, bytes consumed)."""
    if len(buf) - offset < 1:
        raise MalformedFrame("empty buffer")
    if buf[offset] != FEC_FRAME_TYPE:
        raise NotAFecFrame(f"type byte 0x{buf[offset]:02x}")
    if len(buf) - offset < FEC_FRAME_HEADER_LEN:
        raise MalformedFrame(
            f"truncated header: {len(buf) - offset} < {FEC_FRAME_HEADER_LEN}"
        )
    _, dl_fin, chunk_offset, repair_id, nss, nrs, _reserved = _HEADER.unpack_from(
        buf, offset
    )
    # The reserved field is ignored on receipt.
    data_length = dl_fin >> 1
    fin = bool(dl_fin & 1)
    end = offset + FEC_FRAME_HEADER_LEN + data_length
    if len(buf) < end:
        raise MalformedFrame(f"payload truncated: need {data_length} bytes")
    payload = bytes(buf[offset + FEC_FRAME_HEADER_LEN : end])
    return (
        FecFrame(fin, chunk_offset, repair_id, nss, nrs, payload),
        FEC_FRAME_HEADER_LEN + data_length,
    )


# ---------------------------------------------------------------------------
# Sender side

class SenderFec:
    """Per-endpoint encoder state and repair emission scheduling.

    Sources are dealt in turn over ``lanes`` coding groups, one unless XOR
    interleaves, and a group emits its repairs once k sources have joined
    it since its last emission.  A block code's group is its lane's open
    block: it closes when it emits, and the lane's next block number is
    ``lanes`` higher.  RLC's one group is its window of the last c symbols,
    which keeps sliding.  ``flush`` (end of stream) emits every group that
    holds sources no repair covers yet, with the actual source count
    advertised in the frames.
    """

    def __init__(self, scheme: int, config, symbol_size: int):
        if scheme not in (SCHEME_XOR, SCHEME_REED_SOLOMON, SCHEME_RLC):
            raise UnknownScheme(f"scheme 0x{scheme:02x}")
        rlc = scheme == SCHEME_RLC
        needed = ConvolutionalParams if rlc else BlockCodeParams
        if not isinstance(config, needed):
            raise schemes.InvalidParams(f"scheme 0x{scheme:02x} needs {needed.__name__}")
        self._span = config.c if rlc else config.k  # the most a group holds
        if max(config.k, config.repairs, self._span) > 255:
            raise schemes.InvalidParams("k, n-k and the window must fit 8 bits")
        self.scheme = scheme
        self.params = config
        self.symbol_size = symbol_size
        self.pending: list[FecFrame] = []  # whole repair symbols, oldest first
        self._pending_id: Optional[int] = None
        self._counter = 0  # sources committed so far; the RLC source id
        self._repair_counter = 0  # RLC repairs emitted; seeds their coefficients
        self.configure_lanes(1)

    def configure_lanes(self, lanes: int) -> None:
        """Deal consecutive sources over ``lanes`` coding groups in turn
        (lane = block number mod lanes).  More than one lane is XOR only."""
        if lanes > 1 and self.scheme != SCHEME_XOR:
            raise schemes.InvalidParams("lane interleaving is an XOR feature")
        if lanes < 1 or self._counter:
            raise schemes.InvalidParams("lanes must be set before the first symbol")
        self.lanes = lanes
        self._groups: list[list[np.ndarray]] = [[] for _ in range(lanes)]
        self._joined = [0] * lanes  # sources since each group last emitted
        self._blocks = list(range(lanes))  # each lane's open block number

    # -- source registration --------------------------------------------

    def next_source_id(self) -> int:
        """Reserve the id for the packet about to be built."""
        if self._pending_id is not None:
            raise FecFrameworkError("previous source id was never committed")
        if self.scheme == SCHEME_RLC:
            if self._counter >= 1 << 32:
                raise IdSpaceExhausted("32-bit sequence space exhausted")
            raw = self._counter
        else:
            lane = self._counter % self.lanes
            raw = block_source_id(self._blocks[lane], len(self._groups[lane]))
        self._pending_id = raw
        return raw

    def commit_source(self, raw_id: int, packet_bytes: bytes) -> None:
        """Register the final packet bytes for a previously reserved id."""
        if self._pending_id != raw_id:
            raise FecFrameworkError("commit does not match the reserved id")
        self._pending_id = None
        lane = self._counter % self.lanes
        self._counter += 1
        group = self._groups[lane]
        group.append(frame_symbol(packet_bytes, self.symbol_size))
        if len(group) > self._span:
            del group[0]  # the RLC window slides
        self._joined[lane] += 1
        if self._joined[lane] >= self.params.k:
            self._emit(lane)

    def flush(self) -> bool:
        """Emit every group holding sources no repair covers yet (end of
        stream); returns whether that queued any repair."""
        if self._pending_id is not None:
            raise FecFrameworkError("cannot flush with an uncommitted source")
        queued = len(self.pending)
        for lane, joined in enumerate(self._joined):
            if joined:
                self._emit(lane)
        return len(self.pending) > queued

    # -- emission ---------------------------------------------------------

    def _emit(self, lane: int) -> None:
        """Queue the repairs over ``lane``'s group; a block group closes."""
        group = self._groups[lane]
        self._joined[lane] = 0
        if self.scheme == SCHEME_RLC:
            start = self._counter - len(group)  # RLC ids count the sources
            seeds = [self._next_seed() for _ in range(self.params.repairs)]
            repairs = [
                (conv_repair_id(start, seed), schemes.rlc_encode(group, start, seed))
                for seed in seeds
            ]
        else:
            block = self._blocks[lane]
            if self.scheme == SCHEME_XOR:
                coded = [schemes.xor_encode(group)]
            else:
                coded = schemes.rs_encode(group, self.params)
            repairs = [
                (block_repair_id(block, idx, repair.scheme_specific), repair)
                for idx, repair in enumerate(coded)
            ]
            self._groups[lane] = []
            self._blocks[lane] = block + self.lanes
        nss, nrs = len(group), len(repairs)
        self.pending += [
            FecFrame(True, 0, rid, nss, nrs, repair.payload.tobytes())
            for rid, repair in repairs
        ]

    def _next_seed(self) -> int:
        self._repair_counter += 1
        seed = splitmix64_mix(self._repair_counter) & 0xFFFFFFFF
        return seed if seed else 1


# ---------------------------------------------------------------------------
# Receiver side

@dataclass
class _PartialRepair:
    """The chunks held of the one repair symbol being assembled."""

    repair_id: int
    nss: int
    nrs: int
    chunks: dict[int, bytes] = field(default_factory=dict)
    fin_offset: Optional[int] = None
    held: int = 0  # payload bytes in ``chunks``


class ReceiverFec:
    """Buffers received source/repair symbols and drives recovery.

    One :class:`schemes.RlcDecoder` serves every code and is the one record
    of held sources, so recovered packets come back as ``(source id, packet
    bytes)`` pairs, never one that arrived and each at most once.  A block's
    first repair pins its code shape ``(nss, nrs)`` in ``_blocks``; a block
    that completes becomes None there and its symbols leave the decoder,
    and one that falls ``BLOCK_BACKLOG`` blocks behind leaves both, which
    drops its late symbols.  A repair symbol split over several frames is
    assembled in one slot, since a sender sends one symbol's chunks back to
    back: a chunk of another repair replaces the symbol in progress, and
    chunks of more than ``symbol_size`` bytes raise :class:`MalformedFrame`.
    """

    # Repairs can trail newer blocks' sources by dozens of blocks: in
    # lhs_scenarios(7, 4)[1] (xor, 50 kB, silent_ack) 11 tail-loss probes put
    # a source of block 42 ahead of the repairs of blocks 23 and 24, whose two
    # recoveries a backlog of 16 would drop.
    BLOCK_BACKLOG = 64

    def __init__(self, scheme: int, symbol_size: int, window: int = 1):
        if scheme not in (SCHEME_XOR, SCHEME_REED_SOLOMON, SCHEME_RLC):
            raise UnknownScheme(f"scheme 0x{scheme:02x}")
        self.scheme = scheme
        self.symbol_size = symbol_size
        self._partial: Optional[_PartialRepair] = None
        # pinned (nss, nrs), else (highest offset + 1, 0); None once complete
        self._blocks: dict[int, Optional[tuple[int, int]]] = {}
        self._newest_block = -1
        # Block codes evict by block number; their decoder's window spans all ids.
        self._decoder = schemes.RlcDecoder(window if scheme == SCHEME_RLC else 1 << 32)

    def on_source_symbol(
        self, raw_id: int, packet_bytes: bytes
    ) -> list[tuple[int, bytes]]:
        """Register a received protected packet; returns packets this
        completes recovery for (idempotent for duplicates).  Raises
        :class:`MalformedFrame` for a packet wider than a symbol holds."""
        if len(packet_bytes) > self.symbol_size - 2:
            raise MalformedFrame(
                f"{len(packet_bytes)}-byte packet in a {self.symbol_size}-byte symbol"
            )
        symbol = frame_symbol(packet_bytes, self.symbol_size)
        if self.scheme == SCHEME_RLC:
            return self._emit(self._decoder.add_source(raw_id, symbol))
        block_no, offset = split_block_source_id(raw_id)
        shape = self._shape(block_no)
        if shape is None:
            return []
        nss, nrs = shape
        if not nrs:
            self._blocks[block_no] = (max(nss, offset + 1), 0)
        elif offset >= nss:
            raise MalformedFrame(f"source {offset} of a block of {nss} sources")
        return self._emit(self._decoder.add_source(raw_id, symbol), block_no)

    def on_fec_frame(self, frame: FecFrame) -> list[tuple[int, bytes]]:
        """Feed one repair frame chunk; returns newly recovered packets.
        Raises :class:`MalformedFrame` for a repair symbol not ``symbol_size``
        bytes long, over no source, over more sources than the RLC window,
        outside its announced block code, or announcing a block shape other
        than the block's first repair did."""
        if frame.nss == 0:
            raise MalformedFrame("repair symbol over zero source symbols")
        hi, lo = split_repair_id(frame.repair_id)
        if self.scheme == SCHEME_RLC:
            if frame.nss > self._decoder.window:
                raise MalformedFrame(
                    f"repair over {frame.nss} sources, window {self._decoder.window}"
                )
            symbol = self._assemble(frame)
            if symbol is None:
                return []
            return self._emit(self._decoder.add_repair(hi, frame.nss, lo, symbol))
        block_no, index = split_block_source_id(hi)
        if index >= frame.nrs or frame.nss + frame.nrs > 256:
            raise MalformedFrame(
                f"repair {index} of a block of {frame.nss} sources and {frame.nrs} repairs"
            )
        shape = self._shape(block_no)
        if shape is None:
            return []
        if not shape[1]:  # the first repair pins the block's code shape
            if shape[0] > frame.nss:
                raise MalformedFrame(
                    f"block {block_no} holds a source past its {frame.nss} sources"
                )
            shape = self._blocks[block_no] = (frame.nss, frame.nrs)
        elif shape != (frame.nss, frame.nrs):
            raise MalformedFrame(
                f"block {block_no} announced as {shape} sources and repairs, "
                f"then as ({frame.nss}, {frame.nrs})"
            )
        symbol = self._assemble(frame)
        if symbol is None:
            return []
        nss, nrs = shape
        if self.scheme == SCHEME_XOR:
            row = [1] * nss
        else:
            row = schemes.rs_generator(nss + nrs, nss)[nss + index].tolist()
        ids = range(block_no << 8, (block_no << 8) + nss)
        return self._emit(self._decoder.add_equation(ids, row, symbol), block_no)

    # -- internals --------------------------------------------------------

    def _assemble(self, frame: FecFrame) -> Optional[np.ndarray]:
        """The repair symbol ``frame`` completes, or None while chunks of it
        are missing.  A whole symbol in one frame is never buffered; a chunk
        of another repair than the one in progress drops that one."""
        if frame.fin and not frame.chunk_offset:
            payload = frame.payload
        else:
            part = self._partial
            if part is None or part.repair_id != frame.repair_id:
                part = self._partial = _PartialRepair(
                    frame.repair_id, frame.nss, frame.nrs
                )
            elif (part.nss, part.nrs) != (frame.nss, frame.nrs):
                raise MalformedFrame("chunks of one repair announce different codes")
            chunks = part.chunks
            if frame.chunk_offset in chunks:
                return None  # duplicate chunk
            held = part.held + len(frame.payload)
            if held > self.symbol_size:
                raise MalformedFrame(
                    f"{held} bytes of chunks for a {self.symbol_size}-byte symbol"
                )
            part.held = held
            chunks[frame.chunk_offset] = frame.payload
            if frame.fin:
                part.fin_offset = frame.chunk_offset
            fin = part.fin_offset
            if fin is None:
                return None
            if max(chunks) > fin:
                raise MalformedFrame(f"chunk {max(chunks)} past the final chunk {fin}")
            if len(chunks) != fin + 1:
                return None
            payload = b"".join(chunks[i] for i in range(fin + 1))
            self._partial = None
        if len(payload) != self.symbol_size:
            raise MalformedFrame(
                f"{len(payload)}-byte repair symbol, expected {self.symbol_size}"
            )
        return np.frombuffer(payload, dtype=np.uint8)

    def _shape(self, block_no: int) -> Optional[tuple[int, int]]:
        """``block_no``'s ``_blocks`` entry; None once it is complete or evicted."""
        if block_no > self._newest_block:
            self._newest_block = block_no
            floor = block_no - self.BLOCK_BACKLOG
            for bn in [b for b in self._blocks if b <= floor]:
                shape = self._blocks.pop(bn)
                if shape:  # incomplete: its sources leave the decoder
                    self._decoder.forget(range(bn << 8, (bn << 8) + shape[0]))
        elif block_no <= self._newest_block - self.BLOCK_BACKLOG:
            return None
        return self._blocks.setdefault(block_no, (0, 0))

    def _emit(
        self, pairs: list[tuple[int, np.ndarray]], block_no: Optional[int] = None
    ) -> list[tuple[int, bytes]]:
        """Unframe each rebuilt symbol back into its packet.  A pinned block
        ``block_no`` whose sources are all held completes, and its symbols
        leave the decoder."""
        shape = self._blocks.get(block_no)
        if shape and shape[1]:
            ids = range(block_no << 8, (block_no << 8) + shape[0])
            if all(map(self._decoder.symbols.__contains__, ids)):
                self._blocks[block_no] = None
                self._decoder.forget(ids)
        out = []
        for raw_id, symbol in pairs:
            try:
                out.append((raw_id, unframe_symbol(symbol)))
            except schemes.FecSchemeError as exc:  # rebuilt from forged repairs
                raise MalformedFrame(f"source {raw_id:#x} rebuilt as a {exc}") from None
        return out
