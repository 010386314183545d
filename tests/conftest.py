"""Suite-wide test settings.

The ``ci`` hypothesis profile (``pytest --hypothesis-profile ci``) draws
the same examples on every run and prints the blob that replays a
failing one, so a property-test failure in CI reproduces from its log.
"""

import dataclasses
import json

import pytest
from hypothesis import settings

from npr.sim import run_test_study

settings.register_profile("ci", derandomize=True, database=None, print_blob=True)


@pytest.fixture
def pooled_test_study(monkeypatch):
    """``run_test_study`` on a two-worker ``NPR_THREADS`` pool, after checking
    that its first replicate is bit-equal to the one a serial run gives."""

    def run(cfg, n_nulls):
        monkeypatch.setenv("NPR_THREADS", "1")
        serial = run_test_study(dataclasses.replace(cfg, reps=1), n_nulls=n_nulls).replicates
        monkeypatch.setenv("NPR_THREADS", "2")
        study = run_test_study(cfg, n_nulls=n_nulls)
        assert json.dumps(study.replicates[:1]) == json.dumps(serial)
        return study

    return run
