import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sheafcalc import morphology
from sheafcalc.errors import SheafcalcError
from sheafcalc.morphology import (
    NEG_INF, POS_INF, BinaryImage, StructuringElement, closing,
    composite_filter_lattice, dilate, erode, flat_dilate, flat_erode, flat_filter,
    opening)

from util import scan_dilate, scan_erode, slow_composite_filter_lattice


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


def test_image_pixels_are_integer_pairs():
    # a fractional pixel would dilate to another fractional pixel
    for pixel in ((0.5, 0), (1,), (0, 0, 0), (0, "1"), "ab"):
        with pytest.raises(SheafcalcError, match="integer pair"):
            BinaryImage.of(2, 2, [pixel])


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
            # the pixel scan is an erosion written independently of dilate
            assert dilate(x, el).issubset(y) == x.issubset(scan_erode(y, el))


def random_image(rng):
    width, height = rng.randint(0, 5), rng.randint(0, 5)
    return BinaryImage.of(width, height, [
        (x, y) for x in range(width) for y in range(height)
        if rng.random() < rng.random()])


def random_element(rng):
    # offsets up to the grid's size, and sometimes far off it
    reach = rng.choice((1, 3, 6, 40))
    return StructuringElement(frozenset(
        (rng.randint(-reach, reach), rng.randint(-reach, reach))
        for _ in range(rng.randint(1, 4))))


@settings(max_examples=3000, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_dilate_and_erode_match_the_pixel_scans(seed):
    rng = random.Random(seed)
    image, element = random_image(rng), random_element(rng)
    assert dilate(image, element) == scan_dilate(image, element)
    assert erode(image, element) == scan_erode(image, element)


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


def test_flat_filters_sample_in_the_window_order():
    # a tie between equal values of two types goes to the first sample,
    # taken in the window's own order; a one-shot iterator is read once
    def types(values):
        return [type(v) for v in values]

    sig = (1, Fraction(1))
    for filt in (flat_dilate, flat_erode):
        for window in ([0, -1, 1], [1, -1, 0]):
            got, want = filt(sig, iter(window)), filt(sig, window)
            assert (got, types(got)) == (want, types(want))
    assert types(flat_dilate(sig, [0, -1])) == [int, Fraction]
    assert types(flat_dilate(sig, [-1, 0])) == [Fraction, Fraction]
    assert types(flat_erode(sig, [1, 0])) == [Fraction, Fraction]
    assert types(flat_erode(sig, [0, 1])) == [int, Fraction]


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


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_composite_lattice_matches_the_rebuild_from_scratch(seed):
    rng = random.Random(seed)
    image, element = random_image(rng), random_element(rng)
    lat = composite_filter_lattice(image, element)
    assert lat == slow_composite_filter_lattice(image, element)
    assert list(lat.filters) == [
        "identity", "open", "close", "close_open", "open_close",
        "open_close_open", "close_open_close"]


def shift(dx):
    def move(img, element):
        return BinaryImage.of(img.width, img.height, [
            (x + dx, y) for x, y in img.foreground if 0 <= x + dx < img.width])
    return move


@pytest.mark.parametrize("phi, kappa", [
    (dilate, erode), (erode, dilate), (shift(1), closing), (opening, shift(-1)),
    (shift(1), shift(-1))])
def test_broken_filters_get_the_rebuilds_flags_and_witness(
        monkeypatch, phi, kappa):
    # filters that are not openings and closings break the laws, so the
    # flags and the first witness are compared where they can differ
    monkeypatch.setattr(morphology, "opening", phi)
    monkeypatch.setattr(morphology, "closing", kappa)
    rng = random.Random(7)
    for _ in range(60):
        image, element = random_image(rng), random_element(rng)
        assert composite_filter_lattice(image, element) == (
            slow_composite_filter_lattice(image, element))


def test_each_filter_runs_once_per_distinct_image(monkeypatch):
    calls = Counter()

    def counted(name, f):
        def run(img, element):
            calls[name, img] += 1
            return f(img, element)
        return run

    monkeypatch.setattr(morphology, "opening", counted("open", opening))
    monkeypatch.setattr(morphology, "closing", counted("close", closing))
    for img in grid_images(2, 2):
        for el in ELEMENTS:
            calls.clear()
            lat = composite_filter_lattice(img, el)
            assert max(calls.values()) == 1
            # closed: every filtered image is one of the seven values
            assert lat.closed and sum(calls.values()) <= 2 * 7


# ------------------------------------------------------------- refusals

REFUSALS = {
    "negative-size": (lambda: BinaryImage(-1, 2, frozenset()), "negative size -1x2"),
    "sizes-differ": (lambda: BinaryImage.of(1, 1, []).issubset(BinaryImage.of(2, 1, [])),
                     "images differ in size"),
    "flat-which": (lambda: flat_filter((1,), (0,), "open"),
                   "which must be dilate or erode, not 'open'"),
    "flat-window": (lambda: flat_filter((1,), (), "dilate"), "window must be nonempty"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_each_refusal_names_its_fault(case):
    call, message = REFUSALS[case]
    with pytest.raises(SheafcalcError) as refused:
        call()
    assert str(refused.value) == message
