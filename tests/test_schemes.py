"""Erasure-coding schemes: XOR, systematic Reed-Solomon, sliding-window RLC."""

import itertools
import random

import numpy as np
import pytest

from fecsim.frames import MAX_PACKET_SIZE
from fecsim.gf256 import gf_mul
from fecsim.rng import xorshift32
from fecsim.schemes import (
    BlockCodeParams,
    ConvolutionalParams,
    EmptyBlock,
    InvalidParams,
    NothingToRecover,
    RlcDecoder,
    Unrecoverable,
    frame_symbol,
    rlc_coefficients,
    rlc_encode,
    rs_decode,
    rs_encode,
    rs_generator,
    symbol_size_for,
    unframe_symbol,
    xor_encode,
    xor_recover,
)


def random_symbols(rnd, count, width=64, max_data=None):
    out = []
    for _ in range(count):
        n = rnd.randrange(0 if max_data is None else 1, (max_data or width - 2) + 1)
        out.append(frame_symbol(bytes(rnd.randrange(256) for _ in range(n)), width))
    return out


# ---------------------------------------------------------------------------
# Symbol framing

def test_symbol_framing_roundtrip():
    rnd = random.Random(1)
    for _ in range(200):
        data = bytes(rnd.randrange(256) for _ in range(rnd.randrange(0, 63)))
        sym = frame_symbol(data, 64)
        assert sym.shape == (64,)
        assert unframe_symbol(sym) == data


def test_default_symbol_size_fits_full_packet():
    size = symbol_size_for(MAX_PACKET_SIZE)
    assert size == 1208
    assert size % 8 == 0
    sym = frame_symbol(bytes(MAX_PACKET_SIZE), size)
    assert unframe_symbol(sym) == bytes(MAX_PACKET_SIZE)
    assert frame_symbol(b"").shape == (size,)  # the default width is a full packet's


def test_frame_symbol_rejects_oversized_data():
    with pytest.raises(InvalidParams):
        frame_symbol(bytes(63), 64)


def test_length_prefix_is_big_endian():
    sym = frame_symbol(bytes(300), 512)
    assert (int(sym[0]), int(sym[1])) == (1, 44)  # 300 = 0x012C


# ---------------------------------------------------------------------------
# Parameters

def test_block_params_validation():
    BlockCodeParams(256, 1)
    BlockCodeParams(1, 1)
    for n, k in ((0, 0), (2, 3), (257, 1), (5, 0)):
        with pytest.raises(InvalidParams):
            BlockCodeParams(n, k)
    assert BlockCodeParams(30, 20).repairs == 10


def test_convolutional_params_validation():
    ConvolutionalParams(3, 2, 20)
    for n, k, c in ((2, 2, 20), (1, 0, 20), (3, 2, 1), (3, 2, 2**32)):
        with pytest.raises(InvalidParams):
            ConvolutionalParams(n, k, c)
    assert ConvolutionalParams(7, 6, 20).repairs == 1


# ---------------------------------------------------------------------------
# XOR

def test_xor_repairs_any_single_loss():
    rnd = random.Random(2)
    sources = random_symbols(rnd, 5)
    repair = xor_encode(sources)
    for gap in range(5):
        received = [s if i != gap else None for i, s in enumerate(sources)]
        got = xor_recover(received, repair.payload)
        assert np.array_equal(got, sources[gap])


def test_xor_errors():
    rnd = random.Random(3)
    sources = random_symbols(rnd, 3)
    repair = xor_encode(sources)
    with pytest.raises(EmptyBlock):
        xor_encode([])
    with pytest.raises(NothingToRecover):
        xor_recover(sources, repair.payload)
    with pytest.raises(Unrecoverable):
        xor_recover([None, None, sources[2]], repair.payload)


# ---------------------------------------------------------------------------
# Reed-Solomon

def test_rs_generator_is_systematic():
    g = rs_generator(6, 4)
    assert np.array_equal(g[:4], np.eye(4, dtype=np.uint8))


def test_rs_generator_any_k_rows_invertible():
    g = rs_generator(6, 4)
    from fecsim.gf256 import solve_linear_system

    for rows in itertools.combinations(range(6), 4):
        sub = g[list(rows)]
        solve_linear_system(sub, np.eye(4, dtype=np.uint8))  # must not raise


def test_rs_6_4_every_loss_pattern_up_to_two_recovers():
    rnd = random.Random(4)
    sources = random_symbols(rnd, 4)
    params = BlockCodeParams(6, 4)
    repairs = rs_encode(sources, params)
    for nloss in (1, 2):
        for erased in itertools.combinations(range(6), nloss):
            srcs = {i: s for i, s in enumerate(sources) if i not in erased}
            reps = {
                j: r.payload
                for j, r in enumerate(repairs)
                if (4 + j) not in erased
            }
            got = rs_decode(srcs, reps, params)
            for off in range(4):
                if off in erased:
                    assert np.array_equal(got[off], sources[off])
            assert set(got) == {off for off in erased if off < 4}


def test_rs_6_4_every_three_loss_pattern_fails():
    rnd = random.Random(5)
    sources = random_symbols(rnd, 4)
    params = BlockCodeParams(6, 4)
    repairs = rs_encode(sources, params)
    for erased in itertools.combinations(range(6), 3):
        srcs = {i: s for i, s in enumerate(sources) if i not in erased}
        reps = {
            j: r.payload for j, r in enumerate(repairs) if (4 + j) not in erased
        }
        if all(off >= 4 for off in erased):
            continue  # only repairs lost: nothing to do, sources intact
        with pytest.raises(Unrecoverable):
            rs_decode(srcs, reps, params)


def test_rs_short_block_encodes_as_shorter_code():
    rnd = random.Random(6)
    sources = random_symbols(rnd, 3)  # short block for a (30, 20) code
    params = BlockCodeParams(30, 20)
    repairs = rs_encode(sources, params)
    assert len(repairs) == 10
    # decoding uses the shortened code's true dimensions
    short = BlockCodeParams(3 + params.repairs, 3)
    # losing any single source is recoverable from any single repair
    for gap in range(3):
        for j in range(10):
            srcs = {i: s for i, s in enumerate(sources) if i != gap}
            got = rs_decode(srcs, {j: repairs[j].payload}, short)
            assert np.array_equal(got[gap], sources[gap])


def test_rs_decode_with_no_missing_sources_is_noop():
    rnd = random.Random(7)
    sources = random_symbols(rnd, 4)
    params = BlockCodeParams(6, 4)
    assert rs_decode(dict(enumerate(sources)), {}, params) == {}


def test_rs_encode_rejects_bad_blocks():
    rnd = random.Random(8)
    params = BlockCodeParams(6, 4)
    with pytest.raises(EmptyBlock):
        rs_encode([], params)
    with pytest.raises(InvalidParams):
        rs_encode(random_symbols(rnd, 5), params)


# ---------------------------------------------------------------------------
# RLC

def test_rlc_coefficients_deterministic_and_nonzero():
    a = rlc_coefficients(0xDEADBEEF, 50)
    b = rlc_coefficients(0xDEADBEEF, 50)
    assert a.tolist() == b.tolist()
    assert all(v != 0 for v in a)
    # matches a direct xorshift32 expansion with the zero-byte remap
    state = 0xDEADBEEF
    expected = []
    for _ in range(50):
        state = xorshift32(state)
        expected.append((state & 0xFF) or 1)
    assert a.tolist() == expected


def test_rlc_encode_is_seeded_linear_combination():
    rnd = random.Random(9)
    window = random_symbols(rnd, 6)
    seed = 0x1234
    repair = rlc_encode(window, window_start=10, seed=seed)
    assert repair.scheme_specific == seed
    coeffs = rlc_coefficients(seed, 6)
    want = np.zeros(64, dtype=np.uint8)
    for coeff, sym in zip(coeffs, window):
        want ^= np.frombuffer(
            bytes(gf_mul(int(coeff), int(v)) for v in sym), dtype=np.uint8
        )
    assert np.array_equal(repair.payload, want)


def test_rlc_decoder_recovers_single_loss_from_next_repair():
    rnd = random.Random(10)
    sources = random_symbols(rnd, 8)
    dec = RlcDecoder(window=20)
    for i, s in enumerate(sources):
        if i != 3:
            assert dec.add_source(i, s) == []
    repair = rlc_encode(sources, window_start=0, seed=777)
    recovered = dec.add_repair(0, len(sources), 777, repair.payload)
    assert len(recovered) == 1
    seq, sym = recovered[0]
    assert seq == 3
    assert np.array_equal(sym, sources[3])


def test_rlc_decoder_two_losses_need_two_repairs():
    rnd = random.Random(11)
    sources = random_symbols(rnd, 10)
    dec = RlcDecoder(window=20)
    for i, s in enumerate(sources):
        if i not in (2, 7):
            dec.add_source(i, s)
    first = rlc_encode(sources, 0, seed=1)
    assert dec.add_repair(0, 10, 1, first.payload) == []
    second = rlc_encode(sources, 0, seed=2)
    recovered = dec.add_repair(0, 10, 2, second.payload)
    assert [seq for seq, _ in recovered] == [2, 7]
    for seq, sym in recovered:
        assert np.array_equal(sym, sources[seq])


def test_rlc_decoder_defers_until_connected_group_is_solvable():
    # two overlapping windows, each with one loss; the shared repair set
    # resolves them once enough equations arrive
    rnd = random.Random(12)
    sources = random_symbols(rnd, 12)
    dec = RlcDecoder(window=8)
    for i, s in enumerate(sources):
        if i not in (4, 9):
            dec.add_source(i, s)
    r1 = rlc_encode(sources[2:10], 2, seed=5)  # covers 4 and 9? no: 2..9
    got1 = dec.add_repair(2, 8, 5, r1.payload)
    assert got1 == [] or [s for s, _ in got1] == [4]
    r2 = rlc_encode(sources[4:12], 4, seed=6)  # covers 4..11
    got2 = dec.add_repair(4, 8, 6, r2.payload)
    recovered = {s for s, _ in got1} | {s for s, _ in got2}
    assert recovered == {4, 9}


def test_rlc_decoder_ignores_duplicates_and_known_sources():
    rnd = random.Random(13)
    sources = random_symbols(rnd, 4)
    dec = RlcDecoder(window=20)
    for i, s in enumerate(sources):
        dec.add_source(i, s)
    assert dec.add_source(2, sources[2]) == []
    repair = rlc_encode(sources, 0, seed=3)
    assert dec.add_repair(0, 4, 3, repair.payload) == []


def test_rlc_decoder_evicts_stale_state():
    rnd = random.Random(14)
    width = 64
    dec = RlcDecoder(window=4)
    lost = frame_symbol(b"lost", width)
    dec_symbols = [lost] + random_symbols(rnd, 40)
    # symbol 0 lost; never provide it, stream far past the horizon
    for i, s in enumerate(dec_symbols):
        if i != 0:
            dec.add_source(i, s)
    # a repair that would recover symbol 0 arrives far too late
    repair = rlc_encode(dec_symbols[0:4], 0, seed=9)
    assert dec.add_repair(0, 4, 9, repair.payload) == []


def test_rlc_decoder_recovers_a_group_that_eviction_splits():
    """Repairs over {1, 2, 3} and twice over {3, 4} join one group of four
    unknowns and three equations.  Evicting the first splits off {3, 4},
    which two equations determine: the arrival that evicts recovers them."""
    rnd = random.Random(16)
    sources = random_symbols(rnd, 18)
    dec = RlcDecoder(window=4)
    got = dec.add_source(0, sources[0])
    got += dec.add_repair(0, 4, 21, rlc_encode(sources[0:4], 0, 21).payload)
    for seed in (22, 23):
        got += dec.add_repair(3, 2, seed, rlc_encode(sources[3:5], 3, seed).payload)
    got += dec.add_source(17, sources[17])  # the horizon passes offset 0
    assert [seq for seq, _ in got] == [3, 4]
    for seq, sym in got:
        assert np.array_equal(sym, sources[seq])


def test_rlc_random_single_loss_trials_recover_within_two_symbols():
    # emission pattern: repair after every k sources, window c
    rnd = random.Random(15)
    params = ConvolutionalParams(3, 2, 20)
    for _ in range(300):
        total = rnd.randrange(2, 41)
        sources = random_symbols(rnd, total, width=48)
        lost = rnd.randrange(total)
        dec = RlcDecoder(window=params.c)
        recovered_after = None
        emitted_after_loss = 0

        def feed(result):
            nonlocal recovered_after
            for seq, sym in result:
                assert seq == lost
                assert np.array_equal(sym, sources[lost])
                recovered_after = emitted_after_loss

        for i, s in enumerate(sources):
            if i != lost:
                feed(dec.add_source(i, s))
            if i > lost and recovered_after is None:
                emitted_after_loss += 1
            if (i + 1) % params.k == 0:
                start = max(0, i + 1 - params.c)
                repair = rlc_encode(sources[start : i + 1], start, seed=i)
                if i >= lost and recovered_after is None:
                    emitted_after_loss += 1
                feed(dec.add_repair(start, i + 1 - start, i, repair.payload))
        # a trailing repair flushes streams that end mid-step
        if recovered_after is None and total % params.k != 0:
            start = max(0, total - params.c)
            repair = rlc_encode(sources[start:], start, seed=total + 1)
            emitted_after_loss += 1
            feed(dec.add_repair(start, total - start, total + 1, repair.payload))
        assert recovered_after is not None
        assert recovered_after <= 2
