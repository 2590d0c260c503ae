"""Mathematical morphology on bounded pixel grids.

Dilation translates the structuring element over every foreground
pixel and clips to the grid.  Erosion is the grid minus the clipped
dilation of the background by the reflected element: it keeps the
pixels whose on-grid samples all lie in the foreground, so off-grid
sample points are vacuously satisfied.  That makes the pair an exact
adjunction on the subset lattice of the grid:
dilate(x, b) <= y  iff  x <= erode(y, b).

The grayscale variants work on finite 1-d signals.  Dilation samples
through the reflected window, erosion through the window itself;
out-of-range samples are skipped and an empty sample set yields the
lattice unit (-inf for sup, +inf for inf).
"""

from __future__ import annotations

from ._record import Record
from .errors import SheafcalcError

__all__ = [
    "StructuringElement",
    "BinaryImage",
    "FilterLattice",
    "CHAIN",
    "dilate",
    "erode",
    "opening",
    "closing",
    "flat_dilate",
    "flat_erode",
    "flat_filter",
    "composite_filter_lattice",
]

NEG_INF = float("-inf")
POS_INF = float("inf")


def _int_pair(p) -> bool:
    return (isinstance(p, tuple) and len(p) == 2
            and all(isinstance(d, int) for d in p))


class StructuringElement(Record):
    offsets: frozenset

    def __post_init__(self):
        if not self.offsets:
            raise SheafcalcError("structuring element must be nonempty")
        for off in self.offsets:
            if not _int_pair(off):
                raise SheafcalcError(f"offset {off!r} is not an integer pair")

    @classmethod
    def of(cls, *offsets):
        return cls(frozenset(offsets))


class BinaryImage(Record):
    width: int
    height: int
    foreground: frozenset

    def __post_init__(self):
        if self.width < 0 or self.height < 0:
            raise SheafcalcError(f"negative size {self.width}x{self.height}")
        for pixel in self.foreground:
            if not _int_pair(pixel):
                raise SheafcalcError(f"pixel {pixel!r} is not an integer pair")
            x, y = pixel
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise SheafcalcError(
                    f"pixel ({x},{y}) outside {self.width}x{self.height}")

    @classmethod
    def of(cls, width, height, pixels):
        return cls(width, height, frozenset(pixels))

    def issubset(self, other: "BinaryImage") -> bool:
        if (self.width, self.height) != (other.width, other.height):
            raise SheafcalcError("images differ in size")
        return self.foreground <= other.foreground


def _dilated(pixels, offsets, width, height) -> frozenset:
    """Every pixel translated by every offset, clipped to the grid."""
    return frozenset(
        (x + dx, y + dy) for x, y in pixels for dx, dy in offsets
        if 0 <= x + dx < width and 0 <= y + dy < height)


def dilate(image: BinaryImage, element: StructuringElement) -> BinaryImage:
    return BinaryImage(image.width, image.height, _dilated(
        image.foreground, element.offsets, image.width, image.height))


def erode(image: BinaryImage, element: StructuringElement) -> BinaryImage:
    # a pixel leaves exactly when some on-grid sample is background
    w, h = image.width, image.height
    grid = frozenset((x, y) for x in range(w) for y in range(h))
    return BinaryImage(w, h, grid - _dilated(
        grid - image.foreground, [(-x, -y) for x, y in element.offsets], w, h))


def opening(image: BinaryImage, element: StructuringElement) -> BinaryImage:
    return dilate(erode(image, element), element)


def closing(image: BinaryImage, element: StructuringElement) -> BinaryImage:
    return erode(dilate(image, element), element)


# ------------------------------------------------------------- grayscale

def _sampled(signal, offsets, pick, empty):
    """out[i] = pick of the in-range samples signal[i + o], taken in the
    offsets' order, or ``empty`` when none is in range."""
    signal, offsets = tuple(signal), tuple(offsets)
    n = len(signal)
    out = []
    for i in range(n):
        samples = [signal[i + o] for o in offsets if 0 <= i + o < n]
        out.append(pick(samples) if samples else empty)
    return tuple(out)


def flat_dilate(signal, window):
    """out[i] = sup of signal through the reflected window at i."""
    return _sampled(signal, (-o for o in window), max, NEG_INF)


def flat_erode(signal, window):
    """out[i] = inf of signal through the window at i."""
    return _sampled(signal, window, min, POS_INF)


def flat_filter(signal, window, which: str):
    if which not in ("dilate", "erode"):
        raise SheafcalcError(f"which must be dilate or erode, not {which!r}")
    window = frozenset(window)
    if not window:
        raise SheafcalcError("window must be nonempty")
    if which == "dilate":
        return flat_dilate(signal, window)
    return flat_erode(signal, window)


# ---------------------------------------------------- filter composites

class FilterLattice(Record):
    filters: dict              # name -> BinaryImage, incl. "identity"
    idempotent: bool
    chain_ok: bool
    closed: bool               # phi/kappa never leave the seven values
    witness: tuple | None


CHAIN = [
    ("open", "open_close_open"),
    ("open_close_open", "close_open"),
    ("open_close_open", "open_close"),
    ("close_open", "close_open_close"),
    ("open_close", "close_open_close"),
    ("close_open_close", "close"),
]


def composite_filter_lattice(image: BinaryImage,
                             element: StructuringElement) -> FilterLattice:
    """Generate every filter obtainable from opening and closing at x.

    Exactly four composites beyond the opening and closing themselves
    show up; the absorption laws make anything longer collapse onto one
    of the seven values (identity included), and the six non-identity
    values sit in a fixed pointwise order.  A composite's name lists
    its filters outermost first.  Each filter runs once per distinct
    image: the composites, the idempotence test and the closure test all
    read one table keyed by (filter, image).
    """
    ops = {"open": opening, "close": closing}
    table = {}

    def apply(name, img):
        for step in reversed(name.split("_")):
            if (step, img) not in table:
                table[step, img] = ops[step](img, element)
            img = table[step, img]
        return img

    names = ("open", "close", "close_open", "open_close", "open_close_open",
             "close_open_close")
    values = {"identity": image, **{name: apply(name, image) for name in names}}
    witness = None
    idempotent = True
    for name in names[2:]:
        if apply(name, values[name]) != values[name]:
            idempotent = False
            witness = witness or ("idempotence", name)
    chain_ok = True
    for lo, hi in CHAIN:
        if not values[lo].issubset(values[hi]):
            chain_ok = False
            witness = witness or ("chain", lo, hi)
    closed = True
    known = set(values.values())
    for name, img in values.items():
        for opname in ops:
            if apply(opname, img) not in known:
                closed = False
                witness = witness or ("escape", opname, name)
    return FilterLattice(values, idempotent, chain_ok, closed, witness)
