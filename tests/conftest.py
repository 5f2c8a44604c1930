"""One fixed hypothesis profile for the whole suite: examples are drawn
from a fixed seed (``derandomize``), so every run tries the same inputs,
and no example has a deadline, since a transfer can take longer than the
default 200 ms on a slow host.  The example count stays at hypothesis's
default; tests that need another count set it with ``@settings``."""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, deadline=None)
settings.load_profile("fixed")
