import pytest

from anchorlab import batteries, scm


def test_worst_case_identity_passes_on_seeds_0_to_149():
    failing = [
        seed for seed in range(150)
        if not batteries.check_worst_case_identity(seed=seed)["passed"]
    ]
    assert failing == []


@pytest.fixture
def inflated_risk(monkeypatch):
    real = scm.worst_case_risk
    monkeypatch.setattr(
        batteries, "worst_case_risk", lambda model, b, gamma: 1.001 * real(model, b, gamma)
    )


@pytest.mark.usefixtures("inflated_risk")
def test_worst_case_identity_catches_a_tenth_of_a_percent():
    assert not batteries.check_worst_case_identity(seed=0, n_models=20)["passed"]
    report = batteries.run_scm_checks(scm.example_iv_chain(), seed=0)
    assert not report["checks"][0]["passed"]
