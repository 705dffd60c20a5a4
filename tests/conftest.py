import dataclasses

import pytest

import cblue.verify


@pytest.fixture
def sign_defect(monkeypatch):
    """Make the verification suite see a cblue_direct with a sign-flipped offset."""
    original = cblue.verify.cblue_direct

    def flipped(model, constraints):
        est = original(model, constraints)
        return dataclasses.replace(est, f=-est.f)

    monkeypatch.setattr(cblue.verify, "cblue_direct", flipped)
