"""Suite-wide test settings.

The ``ci`` hypothesis profile (``pytest --hypothesis-profile ci``) draws
the same examples on every run and prints the blob that replays a
failing one, so a property-test failure in CI reproduces from its log.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
