from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc.errors import SheafcalcError
from sheafcalc.morphology import (
    NEG_INF, POS_INF, BinaryImage, StructuringElement, closing,
    composite_filter_lattice, dilate, erode, flat_filter, opening)


H_PAIR = StructuringElement.of((0, 0), (1, 0))
V_PAIR = StructuringElement.of((0, 0), (0, 1))
CROSS = StructuringElement.of((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
SHIFT = StructuringElement.of((1, 1))
ELEMENTS = [H_PAIR, V_PAIR, CROSS, SHIFT]


def grid_images(width, height):
    cells = [(x, y) for x in range(width) for y in range(height)]
    for mask in range(1 << len(cells)):
        yield BinaryImage.of(width, height,
                             [c for i, c in enumerate(cells) if mask >> i & 1])


# ---------------------------------------------------------------- binary

def test_dilate_translates_and_clips():
    img = BinaryImage.of(3, 1, [(2, 0)])
    out = dilate(img, H_PAIR)
    assert out.foreground == {(2, 0)}  # (3,0) clipped away


def test_erode_requires_full_containment():
    img = BinaryImage.of(3, 1, [(0, 0), (1, 0)])
    out = erode(img, H_PAIR)
    assert out.foreground == {(0, 0)}  # at (1,0) the pair pokes out of fg


def test_erode_of_full_image_is_full():
    # off-grid samples never veto, so the full image is a fixed point
    full = BinaryImage.of(2, 2, [(0, 0), (1, 0), (0, 1), (1, 1)])
    assert erode(full, H_PAIR) == full
    assert erode(full, CROSS) == full


def test_erode_spec_bar_example():
    img = BinaryImage.of(4, 1, [(0, 0), (1, 0)])
    assert erode(img, H_PAIR).foreground == {(0, 0)}


def test_structuring_element_must_be_nonempty():
    with pytest.raises(SheafcalcError):
        StructuringElement(frozenset())


def test_structuring_element_offsets_are_integer_pairs():
    for offset in ((1,), (0, 0, 0), (0, "1")):
        with pytest.raises(SheafcalcError, match="integer pair"):
            StructuringElement(frozenset({offset}))


def test_image_pixels_must_be_in_bounds():
    with pytest.raises(SheafcalcError):
        BinaryImage.of(2, 2, [(2, 0)])


def test_opening_closing_sandwich_exhaustive_2x2():
    for img in grid_images(2, 2):
        for el in ELEMENTS:
            assert opening(img, el).issubset(img)
            assert img.issubset(closing(img, el))


def test_adjunction_exhaustive_on_2x2():
    images = list(grid_images(2, 2))
    for el in ELEMENTS:
        for x, y in product(images, images):
            assert dilate(x, el).issubset(y) == x.issubset(erode(y, el))


def test_off_origin_element_translates():
    img = BinaryImage.of(3, 3, [(1, 1)])
    assert dilate(img, SHIFT).foreground == {(2, 2)}
    # interior points translate back; border points pass vacuously
    eroded = erode(img, SHIFT).foreground
    assert (0, 0) in eroded
    assert (1, 1) not in eroded
    assert {(2, 0), (2, 1), (2, 2), (0, 2), (1, 2)} <= eroded


# ------------------------------------------------------------- grayscale

def test_flat_dilate_hand_example():
    assert flat_filter((1, 5, 2), {-1, 0, 1}, "dilate") == (5, 5, 5)


def test_flat_erode_windowed_min():
    # at the right edge only f(1), f(2) are sampled, so the min is 2
    assert flat_filter((1, 5, 2), {-1, 0, 1}, "erode") == (1, 1, 2)


def test_flat_filters_keep_exact_values():
    sig = (Fraction(1, 3), Fraction(1, 2))
    assert flat_filter(sig, {0, 1}, "erode") == (Fraction(1, 3), Fraction(1, 2))
    assert flat_filter(sig, {0, 1}, "dilate") == (Fraction(1, 3), Fraction(1, 2))


def test_flat_empty_window_sample_gives_units():
    assert flat_filter((1, 2, 3), {5}, "dilate") == (NEG_INF,) * 3
    assert flat_filter((1, 2, 3), {5}, "erode") == (POS_INF,) * 3


def test_asymmetric_window_reflection():
    # window {1}: dilation reads f(i-1), erosion reads f(i+1)
    assert flat_filter((7, 0, 0), {1}, "dilate") == (NEG_INF, 7, 0)
    assert flat_filter((7, 0, 0), {1}, "erode") == (0, 0, POS_INF)


signals = st.lists(st.integers(min_value=-5, max_value=5),
                   min_size=1, max_size=5).map(tuple)
windows = st.sets(st.integers(min_value=-2, max_value=2),
                  min_size=1, max_size=4)


def pointwise_leq(f, g):
    return all(a <= b for a, b in zip(f, g))


@settings(max_examples=120, deadline=None)
@given(signals, signals, windows)
def test_grayscale_adjunction(f, g, w):
    if len(f) != len(g):
        g = (g * len(f))[:len(f)]
    lhs = pointwise_leq(flat_filter(f, w, "dilate"), g)
    rhs = pointwise_leq(f, flat_filter(g, w, "erode"))
    assert lhs == rhs


# ------------------------------------------------------------ composites

def test_composite_lattice_on_a_ragged_image():
    img = BinaryImage.of(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    lat = composite_filter_lattice(img, H_PAIR)
    assert lat.idempotent and lat.chain_ok and lat.closed, lat.witness
    assert set(lat.filters) == {
        "identity", "open", "close", "open_close", "close_open",
        "open_close_open", "close_open_close"}


def test_composite_lattice_exhaustive_small():
    for img in grid_images(2, 2):
        for el in ELEMENTS:
            lat = composite_filter_lattice(img, el)
            assert lat.idempotent and lat.chain_ok and lat.closed, (
                img, el, lat.witness)
