"""Shared fixtures: links and reference metrics reused across the suite."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conelab import entropy, geometry, link as linkmod


def total_volume(metric):
    """Total Riemannian volume: the sum of the metric's volume weights."""
    return float(geometry.volume_form(metric).sum())


def scaled(metric, c2):
    """The metric c2 * g, realized as (a, b) -> (c a, c b) with c = sqrt(c2)."""
    c = np.sqrt(c2)
    return replace(metric, a=c * metric.a, b=c * metric.b)


def perturb_metric(metric, h_rad, h_link, eps):
    """g + eps h for a radial 2-tensor h = h_rad dx^2 + h_link b^2 g_F."""
    a_new = np.sqrt(metric.a**2 + eps * h_rad)
    b_new = metric.b * np.sqrt(1.0 + eps * h_link)
    return replace(metric, a=a_new, b=b_new)


def lie_derivative_tensor(metric, xi):
    """(h_rad, h_link) of the Lie derivative of g along X = xi(x) d/dx."""
    a, b = metric.a, metric.b
    h_rad = 2.0 * a * metric.grid.d1(a * xi)
    h_link = 2.0 * (metric.jet[1] / np.where(b > 0, b, 1.0)) * xi
    return h_rad, h_link


@pytest.fixture(scope="session")
def s3():
    return linkmod.sphere_link(3, 6)


@pytest.fixture(scope="session")
def s4_fine(s3):
    """Round unit S^4 suspension at the resolution used for the entropy checks."""
    return geometry.sphere_suspension(s3, 2000, radius=1.0, p=2.0)


@pytest.fixture(scope="session")
def s4_lambda(s4_fine):
    return entropy.compute_lambda(s4_fine)


@pytest.fixture(scope="session")
def hyperbolic_metric(s3):
    """b = sinh x cone over S^3: scal = -12, so lambda < 0 (expander side)."""
    grid = geometry.RadialGrid.graded(800, 1.5, p=2.0)
    return geometry.RadialMetric(link=s3, grid=grid, a=np.ones(grid.N),
                                 b=np.sinh(grid.x))


@pytest.fixture(scope="session")
def perturbed_metric(s3):
    """gamma = 2 perturbed flat cone used by the asymptotics checks."""
    grid = geometry.RadialGrid.graded(1500, 1.0, p=2.0)
    return geometry.perturbed_cone(s3, grid, amplitude=0.05, exponent=2.0,
                                   cutoff=0.7)


@pytest.fixture(scope="session")
def sphere_volume_exact():
    return 8.0 * math.pi**2 / 3.0
