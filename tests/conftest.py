"""Test-wide settings: hypothesis runs the same examples on every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
