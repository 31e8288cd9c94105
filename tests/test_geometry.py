import numpy as np
import pytest

from mesopt.geometry import AirfoilSpec, GeometryError, build_airfoil


def test_trailing_edge_closure():
    # p(1) = 0 forces both surfaces onto the camber line: e*(f-1).
    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0, e=0.3), n_samples=65)
    assert shape.x_samples[-1] == 1.0
    assert shape.z_upper[-1] == pytest.approx(0.3, abs=1e-15)
    assert shape.z_lower[-1] == pytest.approx(0.3, abs=1e-15)


def test_leading_edge_closure():
    shape = build_airfoil(AirfoilSpec(f=2.0, b=2.0, e=0.3), n_samples=65)
    assert shape.x_samples[0] == 0.0
    assert shape.z_upper[0] == 0.0
    assert shape.z_lower[0] == 0.0


def test_upper_surface_hand_value():
    # c_up = 1/(2*4) = 0.125; at x = 0.25:
    # 0.5*0.125*(-0.75)*(-1.75) + 0.3*0.25*1.75 = 0.08203125 + 0.13125
    spec = AirfoilSpec(f=2.0, b=2.0, e=0.3)
    z = spec.surface(0.25, spec.c_up) + 0.3 * 0.25 * (2.0 - 0.25)
    assert z == pytest.approx(0.21328125, abs=1e-15)


def test_surface_hand_values():
    # b = 2: c_up = 0.125 and c_lo = 1; at x = 0.25, (x - 1)(x - b) = 1.3125.
    spec = AirfoilSpec(f=2.0, b=2.0)
    assert (spec.c_up, spec.c_lo) == (0.125, 1.0)
    assert spec.surface(0.25, spec.c_up) == pytest.approx(0.08203125, abs=1e-16)
    assert spec.surface(0.25, -spec.c_lo) == pytest.approx(-0.65625, abs=1e-15)
    # Both roots of the family close the profile: sqrt(x) at 0, (x - 1) at 1.
    for x in (0.0, 1.0):
        assert spec.surface(x, spec.c_up) == 0.0 and spec.surface(x, -spec.c_lo) == 0.0


@pytest.mark.parametrize("f,b", [(1.0, 1.1), (2.0, 2.0), (2.8, 4.0), (9.7, 3.9)])
def test_positive_thickness(f, b):
    shape = build_airfoil(AirfoilSpec(f=f, b=b), n_samples=129)
    interior = slice(1, -1)
    assert np.all(shape.thickness()[interior] > 0.0)


def test_closure_invariants_over_spec_family():
    rng = np.random.default_rng(7)
    for _ in range(25):
        spec = AirfoilSpec(
            f=float(rng.uniform(1.0, 10.0)),
            b=float(rng.uniform(1.0 + 1e-6, 5.0)),
            e=float(rng.uniform(0.05, 0.6)),
        )
        shape = build_airfoil(spec, n_samples=33)
        assert abs(shape.z_upper[-1] - shape.z_lower[-1]) == 0.0
        assert shape.z_upper[0] == 0.0 and shape.z_lower[0] == 0.0


def test_invalid_specs_rejected():
    with pytest.raises(GeometryError):
        AirfoilSpec(f=2.0, b=1.0)  # b must exceed 1
    with pytest.raises(GeometryError):
        AirfoilSpec(f=0.99, b=2.0)
    with pytest.raises(GeometryError):
        build_airfoil(AirfoilSpec(f=2.0, b=2.0), n_samples=7)


def test_refinement_preserves_shared_abscissae():
    # n -> 2n-1 keeps every original cosine node; z values must not move.
    spec = AirfoilSpec(f=2.3, b=2.7, e=0.3)
    coarse = build_airfoil(spec, n_samples=33)
    fine = build_airfoil(spec, n_samples=65)
    shared = np.isin(fine.x_samples, coarse.x_samples)
    assert shared.sum() == 33
    np.testing.assert_array_equal(fine.z_upper[shared], coarse.z_upper)
    np.testing.assert_array_equal(fine.z_lower[shared], coarse.z_lower)


def test_cosine_spacing_clusters_at_leading_edge():
    x = build_airfoil(AirfoilSpec(f=2.0, b=2.0), n_samples=65).x_samples
    assert x[0] == 0.0 and x[-1] == 1.0
    assert np.all(np.diff(x) > 0.0)
    # Denser near x=0 than near mid-chord.
    assert x[1] - x[0] < (x[33] - x[32]) / 5.0


def test_blades_share_one_read_only_x():
    # x depends only on n_samples, so every blade holds the same array; a
    # write to it would move every other blade's surfaces, so it raises.
    a = build_airfoil(AirfoilSpec(f=2.0, b=2.0), n_samples=65)
    b = build_airfoil(AirfoilSpec(f=3.1, b=2.7, e=0.2), n_samples=65)
    assert a.x_samples is b.x_samples
    np.testing.assert_array_equal(a.x_samples, 0.5 * (1.0 - np.cos(np.linspace(0.0, np.pi, 65))))
    with pytest.raises(ValueError, match="read-only"):
        a.x_samples[1] = 0.5
