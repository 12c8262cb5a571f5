"""Shared test settings: hypothesis runs the same examples on every run."""

from hypothesis import settings

# Derandomized so a run's outcome does not depend on the seed, and no
# deadline so a slow or loaded machine does not turn a pass into a flake.
settings.register_profile("dicolor", derandomize=True, deadline=None)
settings.load_profile("dicolor")
