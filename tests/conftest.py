"""Hypothesis profiles for the test suite.

The default profile, "fixed", draws the same examples on every run and
keeps no example database, so two runs of one commit report the same
failures. The "explore" profile keeps hypothesis's random draws, to look
for failures the fixed draws miss:

    HYPOTHESIS_PROFILE=explore PYTHONPATH=src python -m pytest -q

A test's own @settings(max_examples=...) overrides a profile's value.

OpenBLAS runs one thread unless the caller's OPENBLAS_NUM_THREADS says
otherwise: the finite-difference oracle's eigh in test_physics.py slows
several times over when its default two threads share a busy host. The
variable is read when numpy loads OpenBLAS, so it is set here, before any
test module imports numpy.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))
