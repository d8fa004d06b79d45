"""One hypothesis profile for the whole suite: the same examples on every
run, no example database, and no per-example deadline.

``buckdens`` is imported first, before any test module imports numpy, so
the suite runs OpenBLAS on one thread as the CLI does."""

import buckdens  # noqa: F401

from hypothesis import settings

settings.register_profile("buckdens", derandomize=True, database=None, deadline=None)
settings.load_profile("buckdens")
