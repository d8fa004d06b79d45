"""One hypothesis profile for the whole suite: the same examples on every
run, no example database, and no per-example deadline."""

from hypothesis import settings

settings.register_profile("buckdens", derandomize=True, database=None, deadline=None)
settings.load_profile("buckdens")
