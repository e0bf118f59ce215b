"""Shared fixtures and hypothesis strategies for the scdt test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from scdt import DiscreteMeasure, GenConfig, ReferenceMeasure, SignedMeasure

settings.register_profile(
    "scdt",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("scdt")

# Finite floats in a range where squaring and summing stay well-conditioned.
finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def discrete_measures(draw, min_atoms=1, max_atoms=12, signed=False):
    """A discrete measure with distinct finite locations and finite weights."""
    n = draw(st.integers(min_value=min_atoms, max_value=max_atoms))
    locs = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    if signed:
        weight = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False).filter(
            lambda w: w != 0.0
        )
    else:
        weight = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    return DiscreteMeasure.from_atoms(np.asarray(locs), np.asarray(weights))


@st.composite
def probability_measures(draw, min_atoms=1, max_atoms=12):
    """A discrete probability measure (total mass exactly renormalized to ~1)."""
    m = draw(discrete_measures(min_atoms=min_atoms, max_atoms=max_atoms))
    return m.scaled(1.0 / m.total_mass)


@st.composite
def signed_measures(draw, max_atoms=8):
    """A signed measure whose parts have disjoint supports."""
    n_plus = draw(st.integers(min_value=1, max_value=max_atoms))
    n_minus = draw(st.integers(min_value=1, max_value=max_atoms))
    locs = draw(
        st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
            min_size=n_plus + n_minus,
            max_size=n_plus + n_minus,
            unique=True,
        )
    )
    w = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)
    wp = draw(st.lists(w, min_size=n_plus, max_size=n_plus))
    wm = draw(st.lists(w, min_size=n_minus, max_size=n_minus))
    plus = DiscreteMeasure.from_atoms(np.asarray(locs[:n_plus]), np.asarray(wp))
    minus = DiscreteMeasure.from_atoms(np.asarray(locs[n_plus:]), np.asarray(wm))
    return SignedMeasure(plus, minus)


@st.composite
def reference_measures(draw):
    """A valid reference: uniform on an interval or a strictly increasing pwl CDF."""
    kind = draw(st.sampled_from(["uniform", "pwl"]))
    if kind == "uniform":
        a = draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
        width = draw(st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
        mass = draw(st.floats(min_value=0.1, max_value=5.0, allow_nan=False))
        return ReferenceMeasure.uniform(a, a + width, mass=mass)
    n = draw(st.integers(min_value=2, max_value=6))
    xs = np.cumsum(
        draw(
            st.lists(
                st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
                min_size=n,
                max_size=n,
            )
        )
    )
    ys = np.concatenate(
        [
            [0.0],
            np.cumsum(
                draw(
                    st.lists(
                        st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
                        min_size=n - 1,
                        max_size=n - 1,
                    )
                )
            ),
        ]
    )
    return ReferenceMeasure(xs=xs, ys=ys)


#: Warped atoms merge on every signal without touching across parts, so every
#: signal of this dataset takes ``generate_dataset``'s per-signal path.
MERGING_GEN = GenConfig(a_range=(4.2e13, 4.4e13), b_range=(-1.31e14, -1.29e14),
                        per_class=(2, 2, 2), seed=3)


def gen_configs():
    """Small dataset configs: 1-6 signals per class on 1-64 bins under any
    seed, and :data:`MERGING_GEN`."""
    return st.one_of(
        st.builds(GenConfig, n_grid=st.integers(min_value=1, max_value=64),
                  per_class=st.tuples(*[st.integers(min_value=1, max_value=6)] * 3),
                  seed=st.integers(min_value=0, max_value=2**32 - 1)),
        st.just(MERGING_GEN),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
