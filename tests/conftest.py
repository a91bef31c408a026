"""Shared fixtures: contexts are expensive to warm (kernel tables are
cached inside), so they are session-scoped and shared across modules."""

import numpy as np
import pytest

import qg3d as q


@pytest.fixture(scope="session")
def sphere():
    return q.make_profile("sphere")


@pytest.fixture(scope="session")
def spheroid2():
    return q.make_profile("spheroid", a=2.0)


@pytest.fixture(scope="session")
def ctx_sphere(sphere):
    """Default production grid: N=96, tanh-sinh level 9."""
    return q.KernelContext(sphere, 96, 9, 3)


@pytest.fixture(scope="session")
def ctx_sphere_small(sphere):
    """Cheap grid for unit-level checks."""
    return q.KernelContext(sphere, 48, 8, 3)


@pytest.fixture(scope="session")
def ctx_spheroid2(spheroid2):
    return q.KernelContext(spheroid2, 96, 9, 3)


@pytest.fixture(scope="session")
def asym_ctx():
    """A profile that is not symmetric about the equator: every kernel row
    is walked."""
    phi = np.linspace(0.0, np.pi, 401)
    prof = q.make_profile("tabulated", phi=phi, r0=np.sin(phi) * (1.0 + 0.1 * np.cos(phi)))
    return q.KernelContext(prof, 48, 8, 3)


@pytest.fixture(scope="session")
def col_sphere_m2(sphere):
    """Coarse nonlinear collocation for the sphere, m = 2."""
    kctx = q.KernelContext(sphere, 24, 7, 3)
    return q.Collocation(kctx, m=2, n_modes=4, n_theta=8, n_vphi=112, n_eta=112)


@pytest.fixture(scope="session")
def bp2_sphere(ctx_sphere):
    return q.find_bifurcation_point(ctx_sphere, 2)
