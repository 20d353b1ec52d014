"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` derandomizes every property and prints the blob
that replays a failing example (``@reproduce_failure``), so a failure near a
numerical cutoff seen in CI can be rerun locally.  Without the variable the
default profile keeps exploring fresh random examples on every run.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
