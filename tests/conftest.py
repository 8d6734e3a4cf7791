"""One hypothesis profile for the whole suite: the same examples on every run
(derandomized, so a property test cannot pass or fail by luck) and no
per-example deadline (timing on a shared machine is not a property)."""

from hypothesis import settings

settings.register_profile("setflow", derandomize=True, deadline=None)
settings.load_profile("setflow")
