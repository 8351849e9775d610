"""One hypothesis profile for every property test."""

from hypothesis import settings

# no per-example deadline: how long an example takes depends on the machine
settings.register_profile("hktruth", deadline=None)
settings.load_profile("hktruth")
