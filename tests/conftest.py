import pytest

from ukfkit.harness import verify_propositions


@pytest.fixture(scope="session")
def seed_34013_report():
    """The `verify` report on seed 34013, built once for every test that reads it.

    One of its random systems has an ill-conditioned A, cond(A) ~ 6.6e3.
    """
    return verify_propositions(seed=34013, trials=10)
