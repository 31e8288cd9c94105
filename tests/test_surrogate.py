import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mesopt.surrogate import SurrogateError, fit_surrogate, monomial_row


def random_quadratic(rng):
    """A 2-d quadratic in displacement coordinates with known coefficients."""
    coeffs = rng.normal(scale=2.0, size=5)  # (x^2, y^2, xy, x, y)
    c0 = float(rng.normal())

    def f(x, y):
        return (
            c0
            + coeffs[0] * x**2
            + coeffs[1] * y**2
            + coeffs[2] * x * y
            + coeffs[3] * x
            + coeffs[4] * y
        )

    return c0, coeffs, f


def test_center_pinned_exactly():
    rng = np.random.default_rng(0)
    for _ in range(100):
        center = tuple(rng.normal(size=2))
        value = float(rng.normal(scale=10.0))
        sample = (center[0] + 0.3, center[1] - 0.2)
        model = fit_surrogate(center, value, [(sample, float(rng.normal()))])
        assert model(center) == value


def test_exact_interpolation_recovers_generator():
    rng = np.random.default_rng(1)
    for _ in range(20):
        center = tuple(rng.normal(size=2))
        c0, coeffs, f = random_quadratic(rng)
        offsets = [(0.4, 0.4), (-0.4, 0.4), (0.4, -0.4), (-0.4, -0.4), (0.2, 0.0)]
        samples = [
            ((center[0] + dx, center[1] + dy), f(dx, dy)) for dx, dy in offsets
        ]
        model = fit_surrogate(center, c0, samples)
        np.testing.assert_allclose(model.coeffs, coeffs, atol=1e-10)


def test_corner_fit_reproduces_corners_min_norm():
    # Four corner samples of a pure x^2 quadratic: underdetermined (4 eq,
    # 5 unknowns).  Expected corner values come from an independent
    # pseudo-inverse solve of the same 4x5 system.
    a = 3.0
    h = k = 0.5
    center = (1.0, 2.0)
    corners = [(sx * h, sy * k) for sx in (-1, 1) for sy in (-1, 1)]
    samples = [((center[0] + dx, center[1] + dy), a * dx**2) for dx, dy in corners]
    model = fit_surrogate(center, 0.0, samples)

    design = monomial_row(np.array(corners))
    rhs = np.array([a * dx**2 for dx, _ in corners])
    oracle_coeffs = np.linalg.pinv(design) @ rhs
    for (dx, dy), expected in zip(corners, rhs):
        got = model((center[0] + dx, center[1] + dy))
        assert got == pytest.approx(expected, abs=1e-12)
        oracle_val = float(monomial_row(np.array([dx, dy])) @ oracle_coeffs)
        assert got == pytest.approx(oracle_val, abs=1e-12)


def test_constant_samples_give_flat_model():
    center = (0.0, 0.0)
    samples = [((0.5, 0.0), 4.0), ((0.0, 0.5), 4.0), ((-0.5, 0.0), 4.0)]
    model = fit_surrogate(center, 4.0, samples)
    np.testing.assert_allclose(model.coeffs, 0.0, atol=1e-12)
    assert model((0.123, -0.456)) == pytest.approx(4.0, abs=1e-12)


def test_one_dimensional_fit():
    # Pinned 1-d quadratic has two coefficients; two samples determine it.
    center = (2.0,)
    f = lambda t: 1.5 + 0.7 * t**2 - 0.3 * t
    samples = [((2.5,), f(0.5)), ((1.5,), f(-0.5))]
    model = fit_surrogate(center, 1.5, samples)
    assert model((2.25,)) == pytest.approx(f(0.25), abs=1e-12)
    np.testing.assert_allclose(model.coeffs, [0.7, -0.3], atol=1e-12)


def test_duplicate_and_center_samples_rejected():
    with pytest.raises(SurrogateError):
        fit_surrogate((0.0, 0.0), 1.0, [((0.5, 0.5), 2.0), ((0.5, 0.5), 2.0)])
    with pytest.raises(SurrogateError):
        fit_surrogate((0.0, 0.0), 1.0, [((0.0, 0.0), 2.0)])
    with pytest.raises(SurrogateError):
        fit_surrogate((0.0, 0.0), 1.0, [])


def test_overdetermined_least_squares():
    rng = np.random.default_rng(9)
    c0, coeffs, f = random_quadratic(rng)
    center = (0.0, 0.0)
    pts = rng.normal(scale=0.7, size=(12, 2))
    samples = [((float(x), float(y)), f(x, y)) for x, y in pts]
    model = fit_surrogate(center, c0, samples)
    # Generator is itself quadratic, so least squares recovers it exactly.
    np.testing.assert_allclose(model.coeffs, coeffs, atol=1e-9)


def test_rank_is_the_design_matrix_rank():
    # A full 3x3 box, a line along x and a single sample identify 5, 2 and
    # 1 of the five coefficients.
    center = (1.0, 2.0)
    offset_sets = {
        5: [(dx, dy) for dx in (-0.1, 0.0, 0.1) for dy in (-0.1, 0.0, 0.1) if (dx, dy) != (0.0, 0.0)],
        2: [(-0.2, 0.0), (-0.1, 0.0), (0.1, 0.0), (0.3, 0.0)],
        1: [(0.1, -0.1)],
    }
    for expected, offsets in offset_sets.items():
        samples = [((center[0] + dx, center[1] + dy), dx**2 + dy) for dx, dy in offsets]
        model = fit_surrogate(center, 0.5, samples)
        design = monomial_row(np.array([theta for theta, _ in samples]) - np.asarray(center))
        assert model.rank == np.linalg.matrix_rank(design) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_property_fit_reproduces_center_value_exactly(d, data):
    center = tuple(data.draw(st.floats(-5.0, 5.0)) for _ in range(d))
    center_value = data.draw(st.floats(-1e3, 1e3))
    offsets = data.draw(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * d).filter(any), min_size=1, max_size=8, unique=True
        )
    )
    samples = [
        (tuple(c + 0.25 * o for c, o in zip(center, off)), data.draw(st.floats(-1e3, 1e3)))
        for off in offsets
    ]
    assert fit_surrogate(center, center_value, samples)(center) == center_value
