import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gaborflow.symplectic import make_generator, rotation

settings.register_profile(
    "default",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

HBAR = 1.0 / (2.0 * np.pi)


def random_symplectic(rng, n=1, factors=3):
    """Product of random standard generators; moderate norm."""
    out = np.eye(2 * n)
    for _ in range(rng.integers(1, factors + 1)):
        kind = rng.integers(0, 3)
        if kind == 0:
            out = out @ make_generator("J", n=n)
        elif kind == 1:
            diag = np.exp(rng.normal(0.0, 0.3, n))
            out = out @ make_generator("dilation", L=np.diag(diag))
        else:
            P = rng.normal(0.0, 0.5, (n, n))
            out = out @ make_generator("shear", P=0.5 * (P + P.T))
    return out


def counting_calls(monkeypatch, name, module=None):
    """Wrap module.<name> (gaussians by default) so every call is recorded in
    the returned list."""
    if module is None:
        import gaborflow.gaussians as module

    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def random_rotation_like(rng):
    return rotation(rng.uniform(0.0, 2.0 * np.pi))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
