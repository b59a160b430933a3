"""Hypothesis profiles for the test suite.

The default profile, "fixed", draws the same examples on every run and
keeps no example database, so two runs of one commit report the same
failures. The "explore" profile keeps hypothesis's random draws, to look
for failures the fixed draws miss:

    HYPOTHESIS_PROFILE=explore PYTHONPATH=src python -m pytest -q

A test's own @settings(max_examples=...) overrides a profile's value.
"""
import os

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))
