"""One Hypothesis profile for every property test: a fixed draw with no
example database and no deadline, so two runs of one tree, on any machine,
try the same examples. A test's own @settings gives only its max_examples.

Hypothesis's random draw comes back with its own options, e.g.
    python3 -m pytest --hypothesis-profile=default --hypothesis-seed=7
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None, deadline=None)
settings.load_profile("fixed")
