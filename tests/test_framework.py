"""Repair-frame wire format, id spaces, and sender/receiver FEC plumbing."""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fecsim import framework
from fecsim.frames import MAX_PACKET_SIZE
from fecsim.framework import (
    FEC_FRAME_HEADER_LEN,
    MAX_CHUNK_PAYLOAD,
    MAX_CHUNKS,
    ChunkingOverflow,
    FecFrame,
    IdSpaceExhausted,
    MalformedFrame,
    NotAFecFrame,
    ReceiverFec,
    SenderFec,
    UnknownScheme,
    block_repair_id,
    block_source_id,
    chunk_repair,
    conv_repair_id,
    encode_fec_frame,
    parse_fec_frame,
    split_block_source_id,
    split_repair_id,
)
from fecsim.schemes import (
    SCHEME_REED_SOLOMON,
    SCHEME_RLC,
    SCHEME_XOR,
    BlockCodeParams,
    ConvolutionalParams,
    InvalidParams,
    frame_symbol,
    rlc_encode,
    rs_encode,
    symbol_size_for,
    xor_encode,
)
from fecsim.rng import splitmix64_mix
from fecsim.transport import FEC_SYMBOL_SIZE, REPAIR_CHUNK_BUDGET

SYMBOL = 64  # small symbol size keeps the tests fast


def random_packet(rnd, lo=1, hi=SYMBOL - 2):
    return bytes(rnd.randrange(256) for _ in range(rnd.randrange(lo, hi + 1)))


# ---------------------------------------------------------------------------
# Identifier packing

def test_block_source_id_packs_block_and_offset():
    assert block_source_id(5, 7) == 0x0507
    assert split_block_source_id(0x0507) == (5, 7)
    assert block_source_id((1 << 24) - 1, 255) == 0xFFFFFFFF
    with pytest.raises(IdSpaceExhausted):
        block_source_id(1 << 24, 0)
    with pytest.raises(IdSpaceExhausted):
        block_source_id(0, 256)


def test_repair_id_packing():
    assert block_repair_id(3, 1, 0xAB) == 0x301000000AB
    assert conv_repair_id(100, 0xDEAD) == 0x640000DEAD
    assert split_repair_id(block_repair_id(3, 1, 0xAB)) == (0x0301, 0xAB)
    assert split_repair_id(conv_repair_id(100, 0xDEAD)) == (100, 0xDEAD)
    with pytest.raises(IdSpaceExhausted):
        conv_repair_id(1 << 32, 0)


# ---------------------------------------------------------------------------
# Frame wire format

def test_golden_frame_bytes():
    frame = FecFrame(
        fin=True,
        chunk_offset=0,
        repair_id=0x1122334455667788,
        nss=4,
        nrs=2,
        payload=b"\x01\x02\x03",
    )
    wire = encode_fec_frame(frame)
    assert wire.hex() == "0a000700112233445566778804020000010203"
    assert len(wire) == FEC_FRAME_HEADER_LEN + 3
    parsed, consumed = parse_fec_frame(wire)
    assert parsed == frame
    assert consumed == len(wire)


def test_parse_rejects_wrong_type_and_truncation():
    frame = FecFrame(True, 0, 7, 1, 1, b"xy")
    wire = encode_fec_frame(frame)
    with pytest.raises(NotAFecFrame):
        parse_fec_frame(b"\x06" + wire[1:])
    with pytest.raises(MalformedFrame):
        parse_fec_frame(wire[: FEC_FRAME_HEADER_LEN - 1])
    with pytest.raises(MalformedFrame):
        parse_fec_frame(wire[:-1])
    with pytest.raises(MalformedFrame):
        parse_fec_frame(b"")


def test_parse_at_offset_and_back_to_back_frames():
    a = encode_fec_frame(FecFrame(False, 0, 1, 2, 1, b"aa"))
    b = encode_fec_frame(FecFrame(True, 1, 1, 2, 1, b"bbb"))
    buf = a + b
    f1, used1 = parse_fec_frame(buf)
    f2, used2 = parse_fec_frame(buf, used1)
    assert (f1.payload, f2.payload) == (b"aa", b"bbb")
    assert used1 + used2 == len(buf)
    assert not f1.fin and f2.fin


def test_chunking_splits_and_marks_final():
    payload = bytes(range(256)) * 4  # 1024 bytes
    frames = chunk_repair(FecFrame(True, 0, 9, 20, 10, payload), 300)
    assert [f.chunk_offset for f in frames] == [0, 1, 2, 3]
    assert [f.fin for f in frames] == [False, False, False, True]
    assert [len(f.payload) for f in frames] == [300, 300, 300, 124]
    assert b"".join(f.payload for f in frames) == payload
    assert all((f.nss, f.nrs) == (20, 10) for f in frames)
    whole = FecFrame(True, 0, 9, 1, 1, b"z")
    assert chunk_repair(whole, 300) == [whole]  # fits: one frame


def test_chunking_limits():
    def whole(payload):
        return FecFrame(True, 0, 1, 1, 1, payload)

    with pytest.raises(ChunkingOverflow):
        chunk_repair(whole(bytes(MAX_CHUNKS + 1)), 1)
    assert len(chunk_repair(whole(bytes(MAX_CHUNKS)), 1)) == MAX_CHUNKS  # exactly fits
    with pytest.raises(ValueError):
        chunk_repair(whole(b"x"), 0)
    with pytest.raises(ValueError):
        chunk_repair(whole(b"x"), MAX_CHUNK_PAYLOAD + 1)
    with pytest.raises(ValueError):
        chunk_repair(whole(b""), 100)


# ---------------------------------------------------------------------------
# Sender scheduling

def make_sender(scheme, config):
    return SenderFec(scheme, config, SYMBOL)


def push_packet(sender, packet):
    raw = sender.next_source_id()
    sender.commit_source(raw, packet)
    return raw


def test_sender_rejects_mismatched_config():
    with pytest.raises(InvalidParams):
        SenderFec(SCHEME_REED_SOLOMON, ConvolutionalParams(3, 2, 20), SYMBOL)
    with pytest.raises(InvalidParams):
        SenderFec(SCHEME_RLC, BlockCodeParams(6, 4), SYMBOL)
    with pytest.raises(UnknownScheme):
        SenderFec(0x7F, BlockCodeParams(6, 4), SYMBOL)


def test_rs_sender_emits_repairs_at_block_completion():
    rnd = random.Random(20)
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4))
    source_ids = []
    for i in range(3):
        source_ids.append(push_packet(sender, random_packet(rnd)))
        assert sender.pending == []
    source_ids.append(push_packet(sender, random_packet(rnd)))
    assert len(sender.pending) == 2
    assert not sender.flush()  # the full block left nothing to close
    assert len(sender.pending) == 2
    ids = [split_repair_id(p.repair_id) for p in sender.pending]
    assert [split_block_source_id(hi) for hi, _ in ids] == [(0, 0), (0, 1)]
    assert all((p.nss, p.nrs) == (4, 2) for p in sender.pending)
    assert all(p.fin and p.chunk_offset == 0 for p in sender.pending)  # whole
    # the offset rolls over into the next block after k sources
    source_ids += [push_packet(sender, random_packet(rnd)) for _ in range(2)]
    assert source_ids == [0x0000, 0x0001, 0x0002, 0x0003, 0x0100, 0x0101]


def test_rs_sender_flush_closes_partial_block():
    rnd = random.Random(21)
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4))
    push_packet(sender, random_packet(rnd))
    push_packet(sender, random_packet(rnd))
    assert sender.flush()
    assert len(sender.pending) == 2  # repair count is kept, nss shrinks
    assert all(p.nss == 2 for p in sender.pending)
    assert not sender.flush()
    assert len(sender.pending) == 2


def test_rlc_sender_emits_every_kth_source():
    rnd = random.Random(22)
    sender = make_sender(SCHEME_RLC, ConvolutionalParams(3, 2, 5))
    emitted = []
    source_ids = []
    for i in range(9):
        source_ids.append(push_packet(sender, random_packet(rnd)))
        emitted.append(len(sender.pending))
    assert source_ids == list(range(9))  # a plain sequence counter
    assert emitted == [0, 1, 1, 2, 2, 3, 3, 4, 4]
    starts = [split_repair_id(p.repair_id)[0] for p in sender.pending]
    assert starts == [0, 0, 1, 3]  # window slides once it holds c=5 symbols
    assert [p.nss for p in sender.pending] == [2, 4, 5, 5]


def test_rlc_source_ids_stop_at_32_bits():
    sender = make_sender(SCHEME_RLC, ConvolutionalParams(3, 2, 20))
    sender._counter = (1 << 32) - 1  # skip ahead instead of 4 G pushes
    assert push_packet(sender, b"last") == 0xFFFFFFFF
    with pytest.raises(IdSpaceExhausted):
        sender.next_source_id()


def test_rlc_sender_flush_emits_trailing_repair():
    rnd = random.Random(23)
    sender = make_sender(SCHEME_RLC, ConvolutionalParams(3, 2, 20))
    for _ in range(3):
        push_packet(sender, random_packet(rnd))
    before = len(sender.pending)
    assert sender.flush()
    assert len(sender.pending) == before + 1
    assert not sender.flush()  # idempotent once the step is closed
    assert len(sender.pending) == before + 1


def test_xor_sender_lane_interleaving():
    rnd = random.Random(24)
    sender = make_sender(SCHEME_XOR, BlockCodeParams(3, 2))
    sender.configure_lanes(2)
    ids = [push_packet(sender, random_packet(rnd)) for _ in range(4)]
    # consecutive sources land in alternating blocks (lanes)
    assert [split_block_source_id(i) for i in ids] == [
        (0, 0), (1, 0), (0, 1), (1, 1),
    ]
    assert len(sender.pending) == 2  # both lanes completed a block
    with pytest.raises(InvalidParams):
        sender.configure_lanes(4)  # too late, sources already registered


def test_sender_id_reservation_protocol():
    sender = make_sender(SCHEME_RLC, ConvolutionalParams(3, 2, 20))
    raw = sender.next_source_id()
    with pytest.raises(Exception):
        sender.next_source_id()  # must commit before reserving again
    sender.commit_source(raw, b"ok")


def emission_model(scheme, params, lanes, ops):
    """The source ids and repair frames (repair id, nss, nrs, payload) a
    sender owes after each of ``ops`` (a packet to commit, or None to
    flush), each emission recomputed from the whole history of commits.
    Source i joins lane i mod ``lanes``; a lane emits once k of its sources
    came since its last emission, or at a flush if any did.  A block is
    the lane's sources since then, numbered lane + lanes * (the lane's
    emissions so far); the RLC window is the last c of all sources, and
    its j-th repair overall has seed ``splitmix64_mix(j)`` (1 if that is
    zero)."""
    history = []  # (lane, symbol) per commit
    last = [0] * lanes  # history length at each lane's last emission
    emissions = [0] * lanes
    ids, frames, owed = [], [], []

    def fresh(lane):
        return [sym for i, (ln, sym) in enumerate(history) if ln == lane and i >= last[lane]]

    def emit(lane):
        group = fresh(lane)
        if scheme == SCHEME_RLC:
            window = [sym for _, sym in history[-params.c :]]
            start = len(history) - len(window)
            seeds = []
            for _ in range(params.repairs):
                seed = splitmix64_mix(len(frames) + len(seeds) + 1) & 0xFFFFFFFF
                seeds.append(seed or 1)
            out = [
                (conv_repair_id(start, seed), rlc_encode(window, start, seed).payload)
                for seed in seeds
            ]
            nss = len(window)
        else:
            block = lane + lanes * emissions[lane]
            coded = [xor_encode(group)] if scheme == SCHEME_XOR else rs_encode(group, params)
            out = [
                (block_repair_id(block, idx, r.scheme_specific), r.payload)
                for idx, r in enumerate(coded)
            ]
            nss = len(group)
        frames.extend((rid, nss, len(out), payload.tobytes()) for rid, payload in out)
        last[lane] = len(history)
        emissions[lane] += 1

    for packet in ops:
        if packet is None:
            for lane in range(lanes):
                if fresh(lane):
                    emit(lane)
        else:
            lane = len(history) % lanes
            if scheme == SCHEME_RLC:
                ids.append(len(history))
            else:
                ids.append(block_source_id(lane + lanes * emissions[lane], len(fresh(lane))))
            history.append((lane, frame_symbol(packet, SYMBOL)))
            if len(fresh(lane)) == params.k:
                emit(lane)
        owed.append(list(frames))
    return ids, owed


@st.composite
def sender_codes(draw):
    """(scheme, params, lanes): xor over 1-4 lanes, short rs and rlc codes."""
    code = draw(st.sampled_from(["xor", "rs", "rlc"]))
    k = draw(st.integers(1, 5))
    if code == "xor":
        return SCHEME_XOR, BlockCodeParams(k + 1, k), draw(st.integers(1, 4))
    if code == "rs":
        return SCHEME_REED_SOLOMON, BlockCodeParams(k + draw(st.integers(0, 3)), k), 1
    n = k + draw(st.integers(1, 3))
    return SCHEME_RLC, ConvolutionalParams(n, k, k + draw(st.integers(0, 4))), 1


@settings(deadline=None, max_examples=300)
@given(
    code=sender_codes(),
    # a packet length to commit, or None to flush; commits follow flushes,
    # as when the transport resends a lost frame after its block closed
    ops=st.lists(st.one_of(st.none(), st.integers(1, SYMBOL - 2)), max_size=40),
)
def test_sender_emission_matches_model(code, ops):
    scheme, params, lanes = code
    packets = [
        None if n is None else bytes((i + j) % 256 for j in range(n))
        for i, n in enumerate(ops)
    ]
    ids, owed = emission_model(scheme, params, lanes, packets)
    sender = make_sender(scheme, params)
    sender.configure_lanes(lanes)
    got = []
    for packet, frames in zip(packets, owed):
        if packet is None:
            queued = len(sender.pending)
            assert sender.flush() == (len(frames) > queued)
        else:
            got.append(push_packet(sender, packet))
        assert [
            (f.repair_id, f.nss, f.nrs, f.payload) for f in sender.pending
        ] == frames
        assert all(f.fin and f.chunk_offset == 0 for f in sender.pending)
    assert got == ids


# ---------------------------------------------------------------------------
# Receiver recovery

def pipe(sender, receiver, packets, drop=()):
    """Send packets through sender bookkeeping, deliver all repair frames,
    drop the source packets whose index is in ``drop``."""
    recovered = []
    for i, pkt in enumerate(packets):
        raw = push_packet(sender, pkt)
        if i not in drop:
            recovered.extend(receiver.on_source_symbol(raw, pkt))
        for pending in sender.pending:
            for frame in chunk_repair(pending, 1200):
                recovered.extend(receiver.on_fec_frame(frame))
        sender.pending.clear()
    return recovered


def test_rs_receiver_recovers_dropped_packet_exactly():
    rnd = random.Random(30)
    packets = [random_packet(rnd) for _ in range(8)]
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4))
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    recovered = pipe(sender, receiver, packets, drop={2, 5})
    assert {raw for raw, _ in recovered} == {0x0002, 0x0101}
    by_id = dict(recovered)
    assert by_id[0x0002] == packets[2]
    assert by_id[0x0101] == packets[5]


def test_rs_first_in_block_loss_waits_for_rest_of_block():
    # losing the block's first source: recovery cannot happen before the
    # remaining k-1 sources and a repair have all arrived
    rnd = random.Random(31)
    k = 20
    packets = [random_packet(rnd) for _ in range(k)]
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(30, 20))
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    ids = []
    for pkt in packets:
        raw = push_packet(sender, pkt)
        ids.append(raw)
    assert len(sender.pending) == 10
    out = []
    for raw, pkt in zip(ids[1:], packets[1:]):
        out.extend(receiver.on_source_symbol(raw, pkt))
    assert out == []  # 19 later sources alone recover nothing
    pending = sender.pending[0]
    for frame in chunk_repair(pending, 1200):
        out.extend(receiver.on_fec_frame(frame))
    assert out == [(ids[0], packets[0])]


def test_receiver_never_reports_received_or_duplicate():
    rnd = random.Random(32)
    packets = [random_packet(rnd) for _ in range(4)]
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4))
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    recovered = pipe(sender, receiver, packets)  # nothing dropped
    assert recovered == []
    # duplicate source delivery is idempotent
    assert receiver.on_source_symbol(0x0000, packets[0]) == []


def test_receiver_chunk_reassembly_out_of_order():
    rnd = random.Random(33)
    packets = [random_packet(rnd) for _ in range(4)]
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4))
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    ids = [push_packet(sender, p) for p in packets]
    for raw, pkt in zip(ids[1:], packets[1:]):
        receiver.on_source_symbol(raw, pkt)
    pending = sender.pending[0]
    frames = chunk_repair(pending, 20)
    assert len(frames) >= 3
    out = []
    order = list(reversed(frames))  # worst-case arrival order
    for frame in order:
        out.extend(receiver.on_fec_frame(frame))
    assert out == [(ids[0], packets[0])]
    # duplicate chunks of an already-consumed repair start a fresh partial
    assert receiver.on_fec_frame(frames[0]) == []


def test_receiver_rejects_inconsistent_code_announcement():
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    receiver.on_fec_frame(FecFrame(False, 0, 77, 4, 2, b"a"))
    with pytest.raises(MalformedFrame):
        receiver.on_fec_frame(FecFrame(True, 1, 77, 5, 2, b"b"))


def test_receiver_evicts_blocks_behind_backlog():
    rnd = random.Random(34)
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4))
    packets = [random_packet(rnd) for _ in range(4)]
    ids = [push_packet(sender, p) for p in packets]
    for raw, pkt in zip(ids[1:], packets[1:]):
        receiver.on_source_symbol(raw, pkt)
    # jump far ahead: block 0 state is evicted
    far = block_source_id(receiver.BLOCK_BACKLOG + 1, 0)
    receiver.on_source_symbol(far, b"later")
    pending = sender.pending[0]
    out = []
    for frame in chunk_repair(pending, 1200):
        out.extend(receiver.on_fec_frame(frame))
    assert out == []  # too late, the block fell out of the backlog


def test_receiver_never_buffers_a_single_chunk_repair(monkeypatch):
    """A repair symbol that arrives whole in one frame goes straight to the
    decoder, with no reassembly state made for it."""
    rnd = random.Random(37)
    packets = [random_packet(rnd) for _ in range(4)]
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4))
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    ids = [push_packet(sender, p) for p in packets]
    monkeypatch.setattr(framework, "_PartialRepair", None)  # any use raises
    receiver.on_source_symbol(ids[0], packets[0])
    for pending in sender.pending:
        (frame,) = chunk_repair(pending, SYMBOL)
        assert receiver.on_fec_frame(frame) == []
    assert receiver.on_source_symbol(ids[1], packets[1]) == [
        (ids[2], packets[2]),
        (ids[3], packets[3]),
    ]


def test_receiver_pins_block_shape_at_first_repair():
    rnd = random.Random(38)
    packets = [random_packet(rnd) for _ in range(3)]
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(5, 3))
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    ids = [push_packet(sender, p) for p in packets]
    honest, later = sender.pending
    assert receiver.on_source_symbol(ids[0], packets[0]) == []
    assert receiver.on_fec_frame(
        FecFrame(True, 0, honest.repair_id, 3, 2, honest.payload)
    ) == []
    for nss, nrs in ((2, 2), (3, 3), (4, 2)):
        with pytest.raises(MalformedFrame, match="announced as"):
            receiver.on_fec_frame(
                FecFrame(True, 0, later.repair_id, nss, nrs, later.payload)
            )
    # the honest repair still completes the block
    assert receiver.on_fec_frame(
        FecFrame(True, 0, later.repair_id, 3, 2, later.payload)
    ) == [(ids[1], packets[1]), (ids[2], packets[2])]


def test_receiver_rejects_a_source_outside_its_block_shape():
    """A source id past the block's announced source count is the peer's
    fault, whichever of the two arrives first, and every copy of it is."""
    rnd = random.Random(39)
    packets = [random_packet(rnd) for _ in range(3)]
    sender = make_sender(SCHEME_REED_SOLOMON, BlockCodeParams(5, 3))
    ids = [push_packet(sender, p) for p in packets]
    repair = sender.pending[0]
    frame = FecFrame(True, 0, repair.repair_id, 3, 2, repair.payload)
    stray = block_source_id(0, 4)
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    receiver.on_source_symbol(ids[0], packets[0])
    receiver.on_source_symbol(stray, b"stray")
    with pytest.raises(MalformedFrame, match="past its 3 sources"):
        receiver.on_fec_frame(frame)
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    receiver.on_fec_frame(frame)
    for _ in range(2):
        with pytest.raises(MalformedFrame, match="source 4 of a block of 3"):
            receiver.on_source_symbol(stray, b"stray")


def test_receiver_rejects_a_chunk_past_the_final_chunk():
    receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL)
    repair_id = block_repair_id(0, 0, 0)
    assert receiver.on_fec_frame(FecFrame(False, 2, repair_id, 2, 1, b"c")) == []
    with pytest.raises(MalformedFrame, match="past the final chunk"):
        receiver.on_fec_frame(FecFrame(True, 1, repair_id, 2, 1, b"b"))


def partial_bytes(receiver):
    """The payload bytes of the one partial repair ``receiver`` holds."""
    part = receiver._partial
    return 0 if part is None else sum(map(len, part.chunks.values()))


@pytest.mark.parametrize("scheme", [SCHEME_REED_SOLOMON, SCHEME_RLC], ids=["rs", "rlc"])
def test_receiver_holds_one_partial_repair(scheme):
    """10,000 first chunks of block 0, index 0 (or window start 0), each
    with another scheme-specific half of the repair id: none is refused (an
    honest RLC sender sends several repairs at one window start), and the
    receiver holds one partial repair, the newest."""
    receiver = ReceiverFec(scheme, FEC_SYMBOL_SIZE, window=20)

    def repair_id(lo):
        return conv_repair_id(0, lo) if scheme == SCHEME_RLC else block_repair_id(0, 0, lo)

    chunk = bytes(1_000)
    for lo in range(10_000):
        frame = FecFrame(False, 0, repair_id(lo), 20, 10, chunk)
        assert receiver.on_fec_frame(frame) == []
    assert receiver._partial.repair_id == repair_id(9_999)
    assert partial_bytes(receiver) == len(chunk)


@pytest.mark.parametrize(
    "scheme,params",
    [(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4)), (SCHEME_RLC, ConvolutionalParams(4, 2, 4))],
    ids=["rs", "rlc"],
)
def test_a_chunk_of_another_repair_drops_the_symbol_in_progress(scheme, params):
    """The first chunk of repair A, then all of repair B, then the rest of
    A: B completes and A does not, since B's chunk dropped A's.  A
    completes once its first chunk comes again, and the two repairs rebuild
    the two lost sources."""
    rnd = random.Random(41)
    packets = [random_packet(rnd) for _ in range(params.k)]
    sender = make_sender(scheme, params)
    receiver = ReceiverFec(scheme, SYMBOL, window=4)
    ids = [push_packet(sender, p) for p in packets]
    for raw, pkt in zip(ids[2:], packets[2:]):
        assert receiver.on_source_symbol(raw, pkt) == []
    a, b = (chunk_repair(pending, 20) for pending in sender.pending)
    assert receiver.on_fec_frame(a[0]) == []
    for frame in b:
        assert receiver.on_fec_frame(frame) == []
    assert receiver._partial is None  # B completed, A was dropped
    for frame in a[1:]:
        assert receiver.on_fec_frame(frame) == []
    assert receiver.on_fec_frame(a[0]) == [(ids[0], packets[0]), (ids[1], packets[1])]


@pytest.mark.parametrize(
    "scheme", [SCHEME_XOR, SCHEME_REED_SOLOMON, SCHEME_RLC], ids=["xor", "rs", "rlc"]
)
def test_receiver_refuses_chunks_past_one_symbol(scheme):
    """Chunks of one repair that hold more bytes than a symbol are the
    peer's fault, so the receiver never buffers more than one symbol."""
    receiver = ReceiverFec(scheme, SYMBOL, window=4)
    if scheme == SCHEME_RLC:
        repair_id = conv_repair_id(0, 1)
    else:
        repair_id = block_repair_id(0, 0, 0)
    half = bytes(SYMBOL // 2)
    for chunk in (0, 1):
        assert receiver.on_fec_frame(FecFrame(False, chunk, repair_id, 2, 1, half)) == []
    with pytest.raises(MalformedFrame, match="chunks for a 64-byte symbol"):
        receiver.on_fec_frame(FecFrame(False, 2, repair_id, 2, 1, b"x"))
    assert partial_bytes(receiver) == SYMBOL


@pytest.mark.parametrize("n,k,window", [(3, 2, 20), (6, 2, 4)])
@pytest.mark.parametrize("seed", range(3))
def test_honest_chunked_rlc_streams_recover_and_never_raise(n, k, window, seed):
    """Honest RLC streams with every repair split into chunks and a share of
    the sources and chunks lost: nothing raises, every recovered packet is
    the one sent, and the receiver holds at most one partial repair, of at
    most one symbol's bytes."""
    rnd = random.Random(f"honest-rlc-{n}-{k}-{window}-{seed}")
    sender = make_sender(SCHEME_RLC, ConvolutionalParams(n, k, window))
    receiver = ReceiverFec(SCHEME_RLC, SYMBOL, window=window)
    originals, recovered = {}, []
    for _ in range(300):
        packet = random_packet(rnd)
        raw = push_packet(sender, packet)
        originals[raw] = packet
        if rnd.random() >= 0.2:
            recovered.extend(receiver.on_source_symbol(raw, packet))
        for pending in sender.pending:
            chunks = chunk_repair(pending, 20)
            assert len(chunks) > 1
            if rnd.random() < 0.5:
                chunks.reverse()
            for frame in chunks:
                if rnd.random() >= 0.3:
                    recovered.extend(receiver.on_fec_frame(frame))
                assert partial_bytes(receiver) <= SYMBOL
        sender.pending.clear()
    assert recovered
    for raw, data in recovered:
        assert data == originals[raw]


@pytest.mark.parametrize(
    "scheme", [SCHEME_XOR, SCHEME_REED_SOLOMON, SCHEME_RLC], ids=["xor", "rs", "rlc"]
)
def test_receiver_drops_partial_repairs_with_their_block(scheme):
    """Only the first chunk of every repair arrives, over more blocks than
    the backlog holds (or RLC windows than the decoder keeps): the receiver
    holds one partial repair, the newest, so none is kept forever."""
    rnd = random.Random(40)
    if scheme == SCHEME_RLC:
        params, window = ConvolutionalParams(3, 2, 4), 4
    else:
        params, window = BlockCodeParams(6 if scheme == SCHEME_REED_SOLOMON else 5, 4), 1
    sender = make_sender(scheme, params)
    receiver = ReceiverFec(scheme, SYMBOL, window=window)
    blocks = 3 * ReceiverFec.BLOCK_BACKLOG
    for _ in range(blocks * params.k):
        raw = push_packet(sender, random_packet(rnd))
        if raw % 2:  # lose every other source, so no block completes
            receiver.on_source_symbol(raw, b"")
        for pending in sender.pending:
            first = chunk_repair(pending, 20)[0]
            assert receiver.on_fec_frame(first) == []
            assert receiver._partial.repair_id == first.repair_id
            assert partial_bytes(receiver) == len(first.payload)
        sender.pending.clear()
    assert len(receiver._blocks) <= ReceiverFec.BLOCK_BACKLOG


def test_rlc_sender_receiver_roundtrip_with_loss():
    rnd = random.Random(35)
    packets = [random_packet(rnd) for _ in range(20)]
    sender = make_sender(SCHEME_RLC, ConvolutionalParams(3, 2, 10))
    receiver = ReceiverFec(SCHEME_RLC, SYMBOL, window=10)
    recovered = pipe(sender, receiver, packets, drop={4, 11, 17})
    by_id = dict(recovered)
    assert set(by_id) == {4, 11, 17}
    for raw in by_id:
        assert by_id[raw] == packets[raw]


def test_xor_sender_receiver_roundtrip_single_loss_per_lane():
    rnd = random.Random(36)
    packets = [random_packet(rnd) for _ in range(8)]
    sender = make_sender(SCHEME_XOR, BlockCodeParams(5, 4))
    sender.configure_lanes(2)
    receiver = ReceiverFec(SCHEME_XOR, SYMBOL)
    # drop one packet in each lane (even indices lane 0, odd lane 1)
    recovered = pipe(sender, receiver, packets, drop={2, 5})
    by_id = dict(recovered)
    assert len(by_id) == 2
    assert set(by_id.values()) == {packets[2], packets[5]}


# ---------------------------------------------------------------------------
# Receiver invariants under loss, duplication, reordering and forgery

# code -> (scheme, params, xor lanes, rlc window): short codes, so that a
# few dozen packets span more blocks than the receiver below keeps
PROPERTY_CODES = {
    "xor": (SCHEME_XOR, BlockCodeParams(5, 4), 2, 1),
    "rs": (SCHEME_REED_SOLOMON, BlockCodeParams(6, 4), 1, 1),
    "rlc": (SCHEME_RLC, ConvolutionalParams(3, 2, 4), 1, 4),
}
PROPERTY_BACKLOG = 4


def coded_wire(code, width, count, flush_rate, rnd):
    """A sender's packets and repair frames in send order, the repair
    symbols chunked as a repair packet carries them, and the originals."""
    scheme, params, lanes, _ = PROPERTY_CODES[code]
    sender = SenderFec(scheme, params, width)
    if lanes > 1:
        sender.configure_lanes(lanes)
    wire, originals = [], {}
    for i in range(count):
        packet = rnd.randbytes(rnd.randint(1, width - 8))
        raw = push_packet(sender, packet)
        originals[raw] = packet
        wire.append((raw, packet))
        if i == count - 1 or rnd.random() < flush_rate:
            sender.flush()  # a short block or window step, as at a stream's end
        for pending in sender.pending:
            wire.extend(chunk_repair(pending, REPAIR_CHUNK_BUDGET))
        sender.pending.clear()
    return wire, originals


@pytest.mark.parametrize("width", [FEC_SYMBOL_SIZE, symbol_size_for(MAX_PACKET_SIZE)])
@pytest.mark.parametrize("code", sorted(PROPERTY_CODES))
@settings(deadline=None, max_examples=100)
@given(
    count=st.integers(1, 40),
    flush_rate=st.sampled_from([0.0, 0.1, 0.5]),
    loss=st.floats(0.0, 0.5),
    dup=st.floats(0.0, 0.3),
    reorder=st.integers(0, 12),
    forge=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_receiver_reports_only_committed_packets(
    code, width, count, flush_rate, loss, dup, reorder, forge, seed
):
    """Every packet ReceiverFec reports is byte-equal to one SenderFec
    committed and was not received.  Its block state stays within the
    backlog, and its one partial repair within one symbol.  A forged repair
    frame that re-announces its block's code shape (for RLC, a window wider
    than the code's) after the block's first repair arrived raises
    MalformedFrame whenever the block is still open, and is otherwise
    dropped; an honest frame never raises."""
    scheme, _, _, window = PROPERTY_CODES[code]
    rnd = random.Random(seed)  # packet bytes and per-item fates
    wire, originals = coded_wire(code, width, count, flush_rate, rnd)
    if width == FEC_SYMBOL_SIZE:
        assert all(f.fin and not f.chunk_offset for f in wire if type(f) is FecFrame)
    arrivals = []  # (arrival key, item): lose, duplicate and delay each
    for i, item in enumerate(wire):
        if rnd.random() >= loss:
            arrivals.append((i + rnd.uniform(0, reorder), item))
            if rnd.random() < dup:
                arrivals.append((i + rnd.uniform(0, reorder), item))
    arrivals = [item for _, item in sorted(arrivals, key=lambda a: a[0])]
    repairs_at = [i for i, item in enumerate(arrivals) if type(item) is FecFrame]
    forged = None
    if forge and repairs_at:
        at = rnd.choice(repairs_at)
        honest = arrivals[at]
        if scheme == SCHEME_RLC:
            nss = window + rnd.randint(1, 8)
        else:
            nss = rnd.choice([n for n in range(1, 257 - honest.nrs) if n != honest.nss])
        forged = FecFrame(
            honest.fin, honest.chunk_offset, honest.repair_id,
            nss, honest.nrs, honest.payload,
        )
        arrivals.insert(rnd.randint(at + 1, len(arrivals)), forged)

    receiver = ReceiverFec(scheme, width, window=window)
    receiver.BLOCK_BACKLOG = PROPERTY_BACKLOG
    delivered, reported = set(), set()
    repaired_blocks = set()  # blocks with a repair frame fed
    newest_block = -1
    for item in arrivals:
        is_frame = type(item) is FecFrame
        block = (item.repair_id >> 40) if is_frame else item[0] >> 8
        if item is forged and scheme != SCHEME_RLC:
            block_sources = [raw for raw in originals if raw >> 8 == block]
            must_raise = (
                block in repaired_blocks
                and block > newest_block - PROPERTY_BACKLOG
                and not set(block_sources) <= delivered | reported
            )
        else:
            must_raise = item is forged
        try:
            if is_frame:
                out = receiver.on_fec_frame(item)
            else:
                out = receiver.on_source_symbol(*item)
        except MalformedFrame:
            assert item is forged
            break
        assert not must_raise
        assert item is not forged or out == []
        for raw, packet in out:
            assert packet == originals[raw]
            assert raw not in delivered and raw not in reported
            reported.add(raw)
        if not is_frame:
            delivered.add(item[0])
        if scheme != SCHEME_RLC:
            newest_block = max(newest_block, block)
            if is_frame:
                repaired_blocks.add(block)
            assert len(receiver._blocks) <= PROPERTY_BACKLOG
        assert partial_bytes(receiver) <= width


# ---------------------------------------------------------------------------
# Pinned coding-layer bytes

# code -> (scheme, params, xor lanes, rlc window)
PINNED_CODES = {
    "xor": (SCHEME_XOR, BlockCodeParams(5, 4), 4, 1),
    "rs": (SCHEME_REED_SOLOMON, BlockCodeParams(30, 20), 1, 1),
    "rlc": (SCHEME_RLC, ConvolutionalParams(3, 2, 20), 1, 20),
}

# code -> (sha256 of the repairs, sha256 of the recovered packets, how many)
PINNED_DIGESTS = {
    "xor": (
        "1b9973f3c0945329be1d2c96ef27c8ba6b7b2856d22e33534437c7a1c1ddfd0d",
        "3e8c2648ba3684508a8605b98679080fb03b21ad05937d06a926ddca00dd85f5",
        29,
    ),
    "rs": (
        "59eb74142ea7274f07b992e561276ba4f66ba38a08488ca5ecdad63a5b4a5eed",
        "44651f9615b5d67a74952207bbc516b38083e1d9a71c239de9009f937dddfcb1",
        34,
    ),
    "rlc": (
        "41b6ec0ae532d4124ef87ca41fa65122e4093137764206dbdb8247ac8e5a197a",
        "1d7d71779101dea6d19ec9207a24ec3ea043bbebcdab66334be765c53d86b9c6",
        36,
    ),
}


def coded_stream_digests(code):
    """sha256 of the repairs SenderFec emits for a seeded 400-packet stream
    of full-size symbols, and of the packets ReceiverFec recovers when a
    fixed pseudo-random tenth of the sources and of the repairs is lost."""
    scheme, params, lanes, window = PINNED_CODES[code]
    rnd = random.Random(f"pinned-{code}")
    sender = SenderFec(scheme, params, 1208)
    if lanes > 1:
        sender.configure_lanes(lanes)
    receiver = ReceiverFec(scheme, 1208, window=window)
    repairs, recovered = hashlib.sha256(), hashlib.sha256()
    originals, count = {}, 0
    for _ in range(400):
        packet = rnd.randbytes(1200 if rnd.random() < 0.75 else rnd.randrange(1, 1200))
        raw = push_packet(sender, packet)
        originals[raw] = packet
        delivered = [] if rnd.random() < 0.1 else receiver.on_source_symbol(raw, packet)
        for pending in sender.pending:
            repairs.update(struct.pack(">QBB", pending.repair_id, pending.nss, pending.nrs))
            repairs.update(pending.payload)
            if rnd.random() < 0.1:
                continue
            for frame in chunk_repair(pending, 1175):
                delivered.extend(receiver.on_fec_frame(frame))
        sender.pending.clear()
        for raw_id, data in delivered:
            assert data == originals[raw_id]
            recovered.update(struct.pack(">IH", raw_id, len(data)) + data)
            count += 1
    return repairs.hexdigest(), recovered.hexdigest(), count


@pytest.mark.parametrize("code", sorted(PINNED_CODES))
def test_repair_payload_bytes_are_pinned(code):
    """A change to the GF(2^8) row kernels must reproduce these bytes."""
    assert coded_stream_digests(code) == PINNED_DIGESTS[code]


@pytest.mark.parametrize("loss", [0.0, 0.02])
@pytest.mark.parametrize("code", sorted(PINNED_CODES))
def test_receiver_state_stays_bounded_over_a_long_stream(code, loss):
    """Over 20,000 sources, with every repair fed, no container that
    ReceiverFec or its RLC decoder holds grows past 1,000 entries: the
    state is bounded by the code, not by the length of the stream."""
    scheme, params, lanes, window = PINNED_CODES[code]
    rnd = random.Random(f"bounded-{code}-{loss}")
    sender = make_sender(scheme, params)
    if lanes > 1:
        sender.configure_lanes(lanes)
    receiver = ReceiverFec(scheme, SYMBOL, window=window)
    recovered = 0
    for i in range(20_000):
        packet = i.to_bytes(4, "big")
        raw = push_packet(sender, packet)
        if rnd.random() >= loss:
            recovered += len(receiver.on_source_symbol(raw, packet))
        for pending in sender.pending:
            recovered += len(receiver.on_fec_frame(pending))
        sender.pending.clear()
        if i % 1000 == 999:
            holders = [h for h in (receiver, receiver._rlc) if h is not None]
            sizes = {
                name: len(value)
                for holder in holders
                for name, value in vars(holder).items()
                if isinstance(value, (dict, list, set))
            }
            assert max(sizes.values()) <= 1000, sizes
    assert (recovered > 0) == (loss > 0)
