from types import SimpleNamespace

import pytest

import ukfkit.numerics as numerics
from ukfkit.harness import verify_propositions


@pytest.fixture(scope="session")
def seed_34013_report():
    """The `verify` report on seed 34013, built once for every test that reads it.

    One of its random systems has an ill-conditioned A, cond(A) ~ 6.6e3.
    """
    return verify_propositions(seed=34013, trials=10)


@pytest.fixture
def count_lapack(monkeypatch):
    """A call that starts counting the LAPACK gufunc calls of numerics' layer, and returns the shapes of their first operands.

    The layer looks up numpy's gufuncs at each call, as numerics._umath_linalg, so
    every caller of numerics.cholesky, solve and qr_raw is counted here.
    """

    def start() -> dict[str, list]:
        calls = {"cholesky": [], "solve": [], "qr": []}
        gufuncs = numerics._umath_linalg

        def counted(kind, gufunc):
            return lambda *operands, **kwargs: calls[kind].append(operands[0].shape) or gufunc(*operands, **kwargs)

        kinds = {"cholesky_lo": "cholesky", "solve": "solve", "solve1": "solve", "qr_r_raw": "qr"}
        monkeypatch.setattr(numerics, "_umath_linalg", SimpleNamespace(**{name: counted(kind, getattr(gufuncs, name)) for name, kind in kinds.items()}))
        return calls

    return start
