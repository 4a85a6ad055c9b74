import pytest
from hypothesis import HealthCheck, settings

from antichain import SingularFunctionSpec, SurfaceSpec

settings.register_profile(
    "suite",
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def salem_default() -> SingularFunctionSpec:
    return SingularFunctionSpec()  # salem, lam = 1/4, depth 52


@pytest.fixture
def identity_f() -> SingularFunctionSpec:
    """lam = 1/2 collapses the recursion to the identity, a non-singular
    fixture whose surface geometry is exactly predictable."""
    return SingularFunctionSpec(lam=0.5)


@pytest.fixture
def surface_n3(salem_default) -> SurfaceSpec:
    return SurfaceSpec(n=3, f=salem_default)


@pytest.fixture
def surface_n2(salem_default) -> SurfaceSpec:
    return SurfaceSpec(n=2, f=salem_default)


@pytest.fixture
def identity_n2(identity_f) -> SurfaceSpec:
    return SurfaceSpec(n=2, f=identity_f)


@pytest.fixture
def identity_n3(identity_f) -> SurfaceSpec:
    return SurfaceSpec(n=3, f=identity_f)
