"""Hypothesis profiles.

``ci`` draws the same examples on every run (``derandomize``) and keeps
no example database, so a CI verdict does not depend on the run:

    python -m pytest --hypothesis-profile=ci

Without the flag, hypothesis draws new examples on every run.
"""
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
