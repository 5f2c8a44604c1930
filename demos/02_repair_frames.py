"""Drive the frame-level machinery: a sender registers protected packets
and schedules repair symbols as whole repair frames, any too big for one
packet are chunked, and a receiver rebuilds dropped packets from what
survives.

This sits one level below the transport: packet ids and delivery are
managed by hand so every moving part is visible.
"""

from fecsim.framework import (
    SCHEME_REED_SOLOMON,
    ReceiverFec,
    SenderFec,
    chunk_repair,
    split_block_source_id,
)
from fecsim.schemes import BlockCodeParams

SYMBOL_SIZE = 96
MAX_PACKET = 1200

sender = SenderFec(SCHEME_REED_SOLOMON, BlockCodeParams(6, 4), SYMBOL_SIZE)
receiver = ReceiverFec(SCHEME_REED_SOLOMON, SYMBOL_SIZE)

# Eight protected packets make two (6,4) blocks; two of them never arrive.
packets = [b"protected packet %d payload" % i for i in range(8)]
DROPPED = {1, 6}

recovered = {}
for i, body in enumerate(packets):
    raw_id = sender.next_source_id()
    sender.commit_source(raw_id, body)
    block, offset = split_block_source_id(raw_id)
    if i in DROPPED:
        print(f"x source id {raw_id:#06x} (block {block} offset {offset}) dropped")
    else:
        for rid, data in receiver.on_source_symbol(raw_id, body):
            recovered[rid] = data

    # a filled block parks its repair symbols on sender.pending, each one
    # whole FEC frame; chunk_repair splits any too big for one packet
    for pending in sender.pending:
        frames = chunk_repair(pending, MAX_PACKET)
        print(
            f"  block repair id {pending.repair_id:#x} "
            f"({pending.nss} sources, {pending.nrs} repairs, "
            f"{len(frames)} frame chunk(s))"
        )
        for frame in frames:
            for rid, data in receiver.on_fec_frame(frame):
                print(f"  + recovered source id {rid:#06x}: {data.decode()}")
                recovered[rid] = data
    sender.pending.clear()

for i in sorted(DROPPED):
    block, offset = i // 4, i % 4
    raw_id = (block << 8) | offset
    assert recovered[raw_id] == packets[i]
print("all dropped packets rebuilt byte-exactly")
