"""Hypothesis draws the same examples on every run and machine: derandomized,
with no example database to replay one machine's counterexamples.

Child processes that tests start import the same ``covkern`` as the tests,
also when it is found through pytest's ``pythonpath`` setting alone."""

import os

from hypothesis import settings

import covkern

settings.register_profile("covkern", derandomize=True, database=None)
settings.load_profile("covkern")

_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(covkern.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
