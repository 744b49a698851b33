"""One hypothesis profile for every property test: derandomized, so each run
draws the same examples, and without a per-example deadline, since exact
rational arithmetic has no fixed cost per example."""

from hypothesis import settings

settings.register_profile("polypoisson", derandomize=True, deadline=None, max_examples=150)
settings.load_profile("polypoisson")
