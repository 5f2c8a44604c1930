"""How a background download's recovery signalling affects a competing
foreground flow on a shared bottleneck.

Three background behaviours share the link with the same foreground
download:
  baseline         - no repair symbols; losses reduce its window normally
  recovered_frame  - repair symbols, and recoveries are reported so the
                     sender still backs off (the cooperative mode)
  silent_ack       - repair symbols, recoveries silently acked away; the
                     background never sees its own losses and crowds the
                     foreground out

The full-size study transfers 10 MB against 16 MB and takes about
100 s; this demo shrinks the flows (the module constants are only read
at call time) and keeps the qualitative picture: the silent background
leaves the foreground slowest, the cooperative one does not.  Takes
11-13 s on a 2-core VM.
"""

import statistics

from fecsim import experiments as xp

xp.FAIRNESS_FG_SIZE = 2_000_000
xp.FAIRNESS_BG_SIZE = 4_000_000
xp.FAIRNESS_FG_DELAY_US = 2_000_000
xp.FAIRNESS_JITTER_US = 400_000

SEEDS = 5
print(f"{SEEDS} seeds per background behaviour, shared bottleneck, "
      f"foreground {xp.FAIRNESS_FG_SIZE//1_000_000} MB vs background "
      f"{xp.FAIRNESS_BG_SIZE//1_000_000} MB")
print()

medians = {}
for background in xp.FAIRNESS_BACKGROUNDS:
    fg_times = []
    for i in range(SEEDS):
        run = xp.fairness_run(background, xp.derive_seed(3, i))
        fg_times.append(run.fg_dct_us)
    medians[background] = statistics.median(fg_times)
    spread = (max(fg_times) - min(fg_times)) / 1e6
    print(f"{background:<16} median foreground completion "
          f"{medians[background]/1e6:7.2f} s (spread {spread:.2f} s)")

print()
base = medians["baseline"]
rf = medians["recovered_frame"]
silent = medians["silent_ack"]
print(f"recovered_frame vs baseline: {100 * (rf - base) / base:+.1f}%")
print(f"silent_ack      vs baseline: {100 * (silent - base) / base:+.1f}%")
print(f"silent_ack      vs recovered_frame: {100 * (silent - rf) / rf:+.1f}%")
