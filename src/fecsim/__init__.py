"""fecsim: a deterministic testbed for packet-level forward erasure
correction inside a miniature reliable transport.

The package root exports nothing: import each name from its layer, e.g.
``from fecsim.transport import FecConfig``.  Each layer loads only the
layers beneath it.  Bottom up:

* :mod:`fecsim.gf256`, :mod:`fecsim.rng` - field arithmetic, generators;
* :mod:`fecsim.schemes` - XOR, Reed-Solomon and sliding-window codes;
* :mod:`fecsim.framework` - repair ids, frames, emission and recovery;
* :mod:`fecsim.frames` - wire formats of packets and frames;
* :mod:`fecsim.transport` - the QUIC-like request/response transport;
* :mod:`fecsim.netem` - seeded discrete-event path emulation;
* :mod:`fecsim.experiments`, :mod:`fecsim.cli` - the measurement harness.
"""
