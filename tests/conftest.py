import json

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confbands.core import Domain, assemble_band
from confbands.functional import FunctionalDataset


def per_element_json(obj) -> str:
    """Reference emitter, one element at a time: floats at 17 significant
    digits, NaN as null, everything else as json.dumps writes it."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {per_element_json(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, np.ndarray):
        return per_element_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(per_element_json(v) for v in obj) + "]"
    if isinstance(obj, float):
        return "null" if np.isnan(obj) else format(obj, ".17g")
    return json.dumps(obj.item() if isinstance(obj, np.generic) else obj)


def random_band(rng, kind="grid1d", max_len=200, max_side=30, masked=False):
    """A random valid band over a random domain, for property tests."""
    if kind == "grid1d":
        n = int(rng.integers(1, max_len + 1))
        domain = Domain.grid1d(np.sort(rng.uniform(-5, 5, n) + np.arange(n) * 10.0))
        shape = (n,)
        mask = None
    elif kind == "grid2d":
        n1 = int(rng.integers(2, max_side + 1))
        n2 = int(rng.integers(2, max_side + 1))
        shape = (n1, n2)
        mask = None
        if masked:
            mask = rng.random(shape) < 0.8
            if not mask.any():
                mask.flat[0] = True
        domain = Domain.grid2d(np.arange(n1, dtype=float), np.arange(n2, dtype=float), mask=mask)
    else:
        n = int(rng.integers(1, 20))
        domain = Domain.discrete([f"c{i}" for i in range(n)])
        shape = (n,)
        mask = None
    eta = rng.standard_normal(shape) * 2.0
    se = rng.uniform(0.0, 1.5, shape)
    q = float(rng.uniform(0.0, 4.0))
    return assemble_band(eta, se, q, 1.0, 0.05, domain)


def one_cell_fosr():
    """Ten subjects on six times, s2-s9 observed at one cell each: the FPCA
    of these residuals keeps K = 2 at zero noise variance, so the score ridge
    is 0 and those eight subjects' score blocks are singular."""
    rng = np.random.default_rng(3)
    n, T = 10, 6
    t = np.linspace(0.0, 1.0, T)
    x = (np.arange(n) % 2).astype(float)
    Y = x[:, None] * t[None, :] + 0.3 * rng.standard_normal((n, T))
    cells = rng.integers(0, T, n)
    for i in range(2, n):
        Y[i, np.arange(T) != cells[i]] = np.nan
    return FunctionalDataset(tuple(f"s{i}" for i in range(n)), t, Y, {"x": x})


ONE_CELL_FOSR_ERROR = (
    "the score block Phi' O_i Phi + ridge is singular for subject(s) 's2', 's3', 's4', 's5', "
    "'s6', 's7', 's8', 's9': fewer observed cells than K = 2, with zero noise variance"
)


def _increasing(draw, n):
    steps = draw(hnp.arrays(float, n, elements=st.floats(1e-3, 1e3)))
    return draw(st.floats(-1e3, 1e3)) + np.cumsum(steps)


@st.composite
def bands(draw):
    """Hypothesis strategy: a valid band over a grid1d, (masked) grid2d or
    discrete domain, with the identity or the logit link."""
    kind = draw(st.sampled_from(["grid1d", "grid2d", "discrete"]))
    if kind == "grid1d":
        domain = Domain.grid1d(_increasing(draw, draw(st.integers(1, 40))))
    elif kind == "grid2d":
        n1, n2 = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        mask = draw(st.none() | hnp.arrays(bool, (n1, n2)).filter(np.any))
        domain = Domain.grid2d(_increasing(draw, n1), _increasing(draw, n2), mask=mask)
    else:
        labels = draw(st.lists(st.text(max_size=4), min_size=1, max_size=12, unique=True))
        domain = Domain.discrete(labels)
    shape = domain.shape
    q = draw(st.floats(0.0, 10.0))
    if draw(st.booleans()):
        eta = draw(hnp.arrays(float, shape, elements=st.floats(-1e12, 1e12)))
        se = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 1e6)))
        return assemble_band(eta, se, q, draw(st.floats(0.1, 10.0)),
                             draw(st.floats(0.001, 0.999)), domain)
    eta = draw(hnp.arrays(float, shape, elements=st.floats(1e-6, 1.0 - 1e-6)))
    se = draw(hnp.arrays(float, shape, elements=st.floats(0.0, 5.0)))
    return assemble_band(eta, se, q, 1.0, draw(st.floats(0.001, 0.999)), domain, link="logit")


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)
