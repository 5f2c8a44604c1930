"""One download, twice: the same seeded path with and without repair
symbols, dropping the only response data packet both times.

Without repair symbols the sender has nothing to expose the hole, so the
tail loss sits until the probe timer fires.  With them, the receiver
rebuilds the packet from the repair that follows it.
"""

from fecsim.experiments import preset, run_transfer
from fecsim.netem import PredicateLoss
from fecsim.transport import FecConfig


def drop_first_response_stream():
    state = {"n": 0}

    def fn(d):
        if d.src == "server" and d.kind == "stream":
            state["n"] += 1
            return state["n"] == 1
        return False

    return PredicateLoss(fn)


INTERESTING = (
    "net.drop",
    "client.recovered",
    "server.lost",
    "server.retransmit",
    "server.tlp_probe",
    "server.cwnd_reduce",
)

scenario = preset("da2gc")
print(f"path: {scenario.bandwidth_bps/1e6:.3f} Mbps, "
      f"{scenario.one_way_delay_us/1000:.0f} ms one-way delay")
print()

for label, fec in (("baseline", None), ("rlc(3,2,20)", FecConfig.rlc(3, 2, 20))):
    result = run_transfer(
        scenario,
        fec,
        1_000,
        seed=7,
        loss_model=drop_first_response_stream(),
        collect_trace=True,
    )
    print(f"== {label}: completed in {result.dct_us/1000:.1f} ms ==")
    for line in result.trace_text.splitlines():
        if any(key in line for key in INTERESTING):
            print("  ", line)
    print()
