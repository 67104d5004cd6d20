"""Hypothesis draws the same examples on every run and machine: derandomized,
with no example database to replay one machine's counterexamples."""

from hypothesis import settings

settings.register_profile("covkern", derandomize=True, database=None)
settings.load_profile("covkern")
