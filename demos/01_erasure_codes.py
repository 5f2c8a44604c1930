"""Walk through the three erasure codes at the symbol level.

Symbols are fixed-width byte arrays framed from variable-length packets.
We lose a few of them on purpose and watch each code bring them back.
"""

import numpy as np

from fecsim.schemes import (
    BlockCodeParams,
    ConvolutionalParams,
    RlcDecoder,
    Unrecoverable,
    frame_symbol,
    rlc_encode,
    rs_decode,
    rs_encode,
    unframe_symbol,
    xor_encode,
    xor_recover,
)

SYMBOL_SIZE = 64

packets = [
    b"packet zero: the quick brown fox",
    b"packet one: jumps over",
    b"packet two: the lazy dog",
    b"packet three: and naps",
]
symbols = [frame_symbol(p, SYMBOL_SIZE) for p in packets]

# --- 1. XOR: one repair per block, any single loss ------------------------

print("== XOR ==")
repair = xor_encode(symbols)
lost_index = 2
received = [None if i == lost_index else s for i, s in enumerate(symbols)]
recovered = xor_recover(received, repair.payload)
print("lost  :", packets[lost_index].decode())
print("fixed :", unframe_symbol(recovered).decode())
assert unframe_symbol(recovered) == packets[lost_index]

# --- 2. Reed-Solomon: any k of n symbols reconstruct the block ------------

print()
print("== Reed-Solomon (6,4) ==")
params = BlockCodeParams(6, 4)
repairs = rs_encode(symbols, params)
print(f"{params.k} sources -> {params.repairs} repair symbols")

# drop two sources at once; the two repairs take their place
missing = {0, 3}
present_sources = {i: symbols[i] for i in range(4) if i not in missing}
present_repairs = {r.scheme_specific: r.payload for r in repairs}
solved = rs_decode(present_sources, present_repairs, params)
for i in sorted(missing):
    print(f"recovered source {i}:", unframe_symbol(solved[i]).decode())
    assert unframe_symbol(solved[i]) == packets[i]

# a third loss exceeds the repair budget
try:
    rs_decode(
        {i: symbols[i] for i in (1,)},
        present_repairs,
        params,
    )
except Unrecoverable as exc:
    print("three losses:", exc)

# --- 3. Sliding-window random linear code ---------------------------------

print()
print("== RLC (3,2,20) ==")
params = ConvolutionalParams(3, 2, 20)
stream = [frame_symbol(b"stream symbol %d" % i, SYMBOL_SIZE) for i in range(8)]
decoder = RlcDecoder(window=params.c)

lost = 4
emitted_since_loss = 0
for i, sym in enumerate(stream):
    if i == lost:
        print(f"symbol {i} lost in transit")
    else:
        decoder.add_source(i, sym)
        if i > lost:
            emitted_since_loss += 1
    if (i + 1) % params.k == 0:
        start = max(0, i + 1 - params.c)
        repair = rlc_encode(stream[start : i + 1], start, seed=i)
        if i >= lost:
            emitted_since_loss += 1
        got = decoder.add_repair(start, i + 1 - start, i, repair.payload)
        for seq, sym in got:
            print(
                f"repair over [{start}, {i}] recovered symbol {seq} "
                f"after {emitted_since_loss} further symbols"
            )
            assert np.array_equal(sym, stream[seq])

print("done")
