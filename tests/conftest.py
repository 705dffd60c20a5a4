import dataclasses

import pytest
from hypothesis import settings

import cblue.verify

# The same examples on every run, and no example database in the checkout.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def sign_defect(monkeypatch):
    """Make the verification suite see a cblue_direct with a sign-flipped offset."""
    original = cblue.verify.cblue_direct

    def flipped(model, constraints):
        est = original(model, constraints)
        return dataclasses.replace(est, f=-est.f)

    monkeypatch.setattr(cblue.verify, "cblue_direct", flipped)
