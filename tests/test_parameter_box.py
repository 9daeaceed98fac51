import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from minmarch import ParameterBox


def test_relative_construction():
    box = ParameterBox.relative([1.0, 3.0, 0.1], 0.40)
    np.testing.assert_allclose(box.half_widths, [0.4, 1.2, 0.04])
    np.testing.assert_allclose(box.lower, [0.6, 1.8, 0.06])
    np.testing.assert_allclose(box.upper, [1.4, 4.2, 0.14])


def test_relative_per_coordinate_fractions():
    box = ParameterBox.relative([2.0, -4.0], [0.1, 0.25])
    np.testing.assert_allclose(box.half_widths, [0.2, 1.0])


def test_membership():
    box = ParameterBox.relative([1.0, 3.0, 0.1], 0.40)
    box.require_member([1.0, 3.0, 0.1])
    box.require_member([1.4, 1.8, 0.14])  # corners belong
    with pytest.raises(ValueError, match="theta_1"):
        box.require_member([1.5, 3.0, 0.1])


def test_require_member_names_coordinate():
    box = ParameterBox.relative([1.0, 3.0, 0.1], 0.40)
    with pytest.raises(ValueError, match="theta_2"):
        box.require_member([1.0, 4.3, 0.1])


def test_degenerate_box_ignores_seed():
    box = ParameterBox(np.array([1.0, 3.0, 0.1]), np.zeros(3))
    a = box.sample(seed=1, count=3)
    b = box.sample(seed=999, count=3)
    assert np.array_equal(a, b)
    for row in a:
        np.testing.assert_array_equal(row, [1.0, 3.0, 0.1])


def test_sampling_40_percent_box():
    # 5000 draws stay inside +-40% of the nominal values, per coordinate
    box = ParameterBox.relative([1.0, 3.0, 0.1], 0.40)
    samples = box.sample(seed=7, count=5000)
    assert samples.shape == (5000, 3)
    for k in range(3):
        assert samples[:, k].min() >= box.lower[k]
        assert samples[:, k].max() <= box.upper[k]
        # with 5000 uniform draws the empirical range nearly fills the box
        assert samples[:, k].min() <= box.lower[k] + 0.02 * 2 * box.half_widths[k]
        assert samples[:, k].max() >= box.upper[k] - 0.02 * 2 * box.half_widths[k]


def test_sampling_20_percent_box():
    box = ParameterBox.relative([10.0, 0.05, 1.0], 0.20)
    samples = box.sample(seed=3, count=5000)
    assert np.all(samples[:, 0] >= 8.0) and np.all(samples[:, 0] <= 12.0)
    assert np.all(samples[:, 1] >= 0.04) and np.all(samples[:, 1] <= 0.06)
    assert np.all(samples[:, 2] >= 0.8) and np.all(samples[:, 2] <= 1.2)


def test_sampling_reproducible_bitwise():
    box = ParameterBox.relative([1.0, 3.0, 0.1], 0.40)
    assert np.array_equal(box.sample(11, 100), box.sample(11, 100))
    assert not np.array_equal(box.sample(11, 100), box.sample(12, 100))


def test_sampling_prefix_stable():
    # per-index streams: the first k samples do not depend on the count
    box = ParameterBox.relative([1.0, 3.0, 0.1], 0.40)
    assert np.array_equal(box.sample(5, 10), box.sample(5, 50)[:10])


def test_sampling_errors():
    box = ParameterBox.relative([1.0], 0.1)
    with pytest.raises(ValueError):
        box.sample(seed=0, count=0)
    # a negative seed is rejected as SeedSequence rejects it
    with pytest.raises(ValueError):
        reference_sample(box, -1, 1)
    with pytest.raises(ValueError):
        box.sample(seed=-1, count=1)


def reference_sample(box, seed, count):
    """The per-index generator loop that ParameterBox.sample equals bit for bit."""
    out = np.empty((count, box.p))
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        out[i] = box.nominal + box.half_widths * rng.uniform(-1.0, 1.0, box.p)
    return out


def box_of_size(p):
    return ParameterBox(np.linspace(-1.0, 10.0, p), np.linspace(0.05, 2.0, p))


@pytest.mark.parametrize("p", [1, 2, 3, 4])
# 32-bit edges, a seed of three words, and one longer than the entropy pool
@pytest.mark.parametrize("seed", [0, 7, 123, 2**32 - 1, 2**32 + 5, 2**70 + 3, 2**128 + 9])
def test_sample_streams_match_per_index_generators(p, seed):
    box = box_of_size(p)
    for count in (1, 3000):
        assert box.sample(seed, count).tobytes() == reference_sample(box, seed, count).tobytes()


@settings(max_examples=50, deadline=None)
@given(
    p=st.integers(1, 4),
    seed=st.integers(0, 2**64 - 1),
    count=st.integers(1, 40),
)
def test_sample_streams_match_for_any_seed(p, seed, count):
    box = box_of_size(p)
    assert box.sample(seed, count).tobytes() == reference_sample(box, seed, count).tobytes()


def test_construction_errors():
    with pytest.raises(ValueError):
        ParameterBox(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        ParameterBox(np.array([1.0]), np.array([-0.1]))
    with pytest.raises(ValueError):
        ParameterBox(np.array([1.0, 2.0]), np.array([0.1]))
    with pytest.raises(ValueError):
        ParameterBox(np.array([np.nan]), np.array([0.1]))
    with pytest.raises(ValueError):
        ParameterBox.relative([1.0], -0.3)


@settings(max_examples=50, deadline=None)
@given(
    nominal=st.lists(st.floats(-10, 10), min_size=1, max_size=4),
    fraction=st.floats(0, 1),
    seed=st.integers(0, 2**31 - 1),
)
# a draw that rounds past a half-width of a few ulps
@example(nominal=[0.0, 0.0, 1.1875], fraction=8.365760629324974e-15, seed=210)
def test_samples_always_inside_box(nominal, fraction, seed):
    box = ParameterBox.relative(nominal, fraction)
    for theta in box.sample(seed, 16):
        box.require_member(theta)
