"""Suite-wide test configuration.

Hypothesis runs under a fixed profile: no example database (so a
verdict never depends on a local ``.hypothesis/`` directory left by an
earlier run), derandomized draws (the same examples every run), and no
per-example deadline (loopback and simulator examples vary with host
load, not with correctness).
"""

from hypothesis import settings

settings.register_profile(
    "tier1", database=None, derandomize=True, deadline=None
)
settings.load_profile("tier1")
