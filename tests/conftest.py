import cmath
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from hypbound import CampaignConfig, CampaignReport, Model, ModelPoint, run_sample

TWO_PI = 2.0 * math.pi


def random_disc_point(rng: np.random.Generator, radius: float = 3.0) -> ModelPoint:
    """Uniform hyperbolic radius up to ``radius`` about the disc origin."""
    r = rng.uniform(0.0, radius)
    phi = rng.uniform(0.0, TWO_PI)
    return ModelPoint.disc(math.tanh(r / 2.0) * cmath.exp(1j * phi))


def random_model_point(rng: np.random.Generator, model: Model,
                       radius: float = 3.0) -> ModelPoint:
    p = random_disc_point(rng, radius)
    if model is Model.DISC:
        return p
    w = p.value
    zeta = 1j * (1.0 + w) / (1.0 - w)
    if model is Model.UPPER_HALF_PLANE:
        return ModelPoint.upper(zeta)
    if model is Model.RIGHT_HALF_PLANE:
        return ModelPoint.right(-1j * zeta)
    raise ValueError(model)


def random_punctured_point(rng: np.random.Generator) -> ModelPoint:
    r = math.exp(rng.uniform(math.log(0.05), math.log(0.95)))
    return ModelPoint.punctured(r * cmath.exp(1j * rng.uniform(0.0, TWO_PI)))


def replayed_campaign(cfg: CampaignConfig, reports=None) -> CampaignReport:
    """The campaign report assembled in index order from ``run_sample`` alone
    (or from ``reports``, its results): its violations and margin
    statistics, timing set to zero."""
    if reports is None:
        reports = [run_sample(cfg, i) for i in range(cfg.samples)]
    margins = [r.margin for r in reports]
    stats = {"min": min(margins), "median": float(np.median(margins)),
             "p99": float(np.percentile(margins, 99)), "max": max(margins)}
    return CampaignReport(cfg, [r for r in reports if r.violated], stats, 0.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


# hypothesis strategies

def disc_values(max_abs: float = 0.97):
    return st.builds(
        lambda r, t: r * cmath.exp(1j * t),
        st.floats(0.0, max_abs),
        st.floats(0.0, TWO_PI),
    )


def disc_points(max_abs: float = 0.97):
    return st.builds(ModelPoint.disc, disc_values(max_abs))


def upper_points():
    return st.builds(
        lambda x, y: ModelPoint.upper(complex(x, y)),
        st.floats(-5.0, 5.0),
        st.floats(0.05, 20.0),
    )


def right_points():
    return st.builds(
        lambda x, y: ModelPoint.right(complex(x, y)),
        st.floats(0.05, 20.0),
        st.floats(-5.0, 5.0),
    )
