"""Reference pmf algebra: every pmf through the validating constructor.

This is ``repro.core.distribution`` as the repository shipped it before
derived pmfs got a private construction path: ``SampleCounts.pmf``,
``shift``, ``scale`` and the three convolution kernels all hand their
arrays to ``DiscretePMF(...)``, which re-validates, re-sorts, clamps and
renormalizes them, and ``resolution()`` is an ``np.diff`` pass.  The
module body is verbatim; only this header changed, plus **one marked
difference** (search for ``MARKED``): a grid-tagged singleton takes its
rounding decimals and dust tolerance from its ``bin_width`` instead of
from the ``inf`` gap of a one-atom support — the bug fixed in the same
change, bit-identical on every grid >= 1e-6.  The shipped module has
since dropped the grid machinery kept here (per-pmf decimals and dust
tolerances, float grid tags, the mismatch error, the sparse-lattice
guard): it keeps the 1 ms lattice, 9 decimals and 1e-9, which is what
this module derives itself wherever atoms are at least 1e-6 apart.

It lives under ``tests/`` as the ``==`` oracle of
``tests/properties/test_distribution_oracle.py`` (every array, bitwise)
and as the pmf algebra of ``tests/core/estimator_oracle.py``, so that
the shipped estimator is compared against an implementation that shares
no pmf code with it.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

__all__ = [
    "BinWidthMismatchError",
    "DiscretePMF",
    "SampleCounts",
    "batch_convolve",
    "quantize",
]

# Sums of bin-aligned values accumulate float dust; keys are rounded when
# aggregating convolution results.  Nine decimals is the paper-era default
# for millisecond-scale grids; finer grids get more decimals via
# :func:`_grid_decimals` so sub-1e-8 bins are not flattened to zero.
_KEY_DECIMALS = 9

# Dense-lattice convolution switches from ``np.convolve`` to an FFT once
# both operands span at least this many lattice slots; below it the
# direct product beats the transform setup.
_FFT_CROSSOVER = 64

# A grid-aligned pmf can still be *sparse* on its lattice (a handful of
# atoms spread over a huge range, e.g. nanosecond bins under millisecond
# values).  The dense path is only taken when the output lattice is not
# grossly larger than the pairwise work it replaces, nor beyond an
# absolute slot cap; otherwise the exact pairwise path runs.
_DENSE_BUDGET_FACTOR = 8
_DENSE_SLOT_CAP = 1 << 22


class BinWidthMismatchError(ValueError):
    """Convolution of two grid-tagged pmfs with different bin widths.

    Summing variables quantized on different grids silently lands the
    result off either grid: downstream dust tolerances and cache keys
    assume one lattice, so the misalignment surfaces as wrong CDF reads
    far from the construction site.  The operation is refused instead;
    re-bin one operand (or build it untagged) to opt in explicitly.
    """


def _grid_decimals(resolution: float) -> int:
    """Rounding decimals that preserve a grid of spacing ``resolution``.

    Coarse grids (``resolution >= 1e-6``) keep the historical 9 decimals;
    finer grids get three decimal orders of headroom below their spacing,
    capped at 15 (the edge of double precision for O(1) magnitudes).
    """
    if resolution <= 0 or not math.isfinite(resolution):
        return _KEY_DECIMALS
    return max(_KEY_DECIMALS, min(15, 3 - int(math.floor(math.log10(resolution)))))


def quantize(value: float, bin_width: float) -> float:
    """Round ``value`` to the nearest multiple of ``bin_width``."""
    if bin_width <= 0:
        raise ValueError(f"bin_width must be > 0, got {bin_width}")
    return round(round(value / bin_width) * bin_width, _grid_decimals(bin_width))


class SampleCounts:
    """Incrementally maintained bin counts of a measurement stream.

    This is the count-delta backend of :meth:`DiscretePMF.from_samples`:
    a sliding window that pushes one sample and evicts another updates two
    dictionary entries instead of recounting all ``l`` samples.  The
    repository's windows own one instance per bin width (see
    ``SlidingWindow.pmf``).
    """

    __slots__ = ("bin_width", "_decimals", "_counts", "_total")

    def __init__(self, bin_width: float, samples: Iterable[float] = ()) -> None:
        if bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {bin_width}")
        self.bin_width = float(bin_width)
        self._decimals = _grid_decimals(self.bin_width)
        self._counts: Dict[float, int] = {}
        self._total = 0
        for sample in samples:
            self.add(sample)

    def _key(self, sample: float) -> float:
        # quantize(sample, bin_width), minus the log10 it spends per call
        # on a width that never changes: same two rounds, same float.
        width = self.bin_width
        return round(round(float(sample) / width) * width, self._decimals)

    def add(self, sample: float) -> None:
        """Count one new sample."""
        key = self._key(sample)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._total += 1

    def evict(self, sample: float) -> None:
        """Remove one previously added sample."""
        key = self._key(sample)
        count = self._counts.get(key, 0)
        if count == 0:
            raise ValueError(f"cannot evict {sample!r}: bin {key!r} is empty")
        if count == 1:
            del self._counts[key]
        else:
            self._counts[key] = count - 1
        self._total -= 1

    def replace(self, new_sample: float, evicted: Optional[float] = None) -> None:
        """Push ``new_sample``, evicting ``evicted`` first when given."""
        if evicted is not None:
            self.evict(evicted)
        self.add(new_sample)

    def counts(self) -> Dict[float, int]:
        """Current bin counts (copy)."""
        return dict(self._counts)

    def __len__(self) -> int:
        return self._total

    def pmf(self) -> "DiscretePMF":
        """The relative-frequency pmf of the counted samples."""
        return DiscretePMF.from_counts(self._counts, bin_width=self.bin_width)

    def __repr__(self) -> str:
        return (
            f"<SampleCounts bins={len(self._counts)} total={self._total} "
            f"bin_width={self.bin_width}>"
        )


class DiscretePMF:
    """A probability mass function over a finite set of float values.

    Instances are immutable; all operations return new pmfs.  Values are
    kept sorted, probabilities sum to 1 (within float tolerance).  The
    cumulative-probability array and the grid resolution are computed
    lazily and cached, so repeated :meth:`cdf` queries cost a binary
    search.

    ``bin_width`` optionally tags the pmf as living on a regular grid of
    that spacing (set automatically by the sample-based constructors).
    Two pmfs tagged with the *same* width convolve on the dense lattice
    (direct or FFT, see :meth:`convolve`); tagged with different widths
    they refuse with :class:`BinWidthMismatchError` rather than silently
    misaligning the result's support.
    """

    __slots__ = ("_values", "_probs", "_cum", "_gap", "_bin_width")

    def __init__(
        self,
        values: Sequence[float],
        probs: Sequence[float],
        bin_width: Optional[float] = None,
    ) -> None:
        if len(values) != len(probs):
            raise ValueError("values and probs must have equal length")
        if len(values) == 0:
            raise ValueError("a pmf needs at least one atom")
        if bin_width is not None and bin_width <= 0:
            raise ValueError(f"bin_width must be > 0, got {bin_width}")
        values_arr = np.asarray(values, dtype=float)
        probs_arr = np.asarray(probs, dtype=float)
        if np.any(probs_arr < -1e-12):
            raise ValueError("probabilities must be non-negative")
        total = float(probs_arr.sum())
        if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-6):
            raise ValueError(f"probabilities must sum to 1, got {total}")
        order = np.argsort(values_arr)
        self._values = values_arr[order]
        self._probs = np.maximum(probs_arr[order], 0.0)
        # Renormalize away any float dust introduced by clipping.
        self._probs = self._probs / self._probs.sum()
        self._cum = None
        self._gap = None
        self._bin_width = float(bin_width) if bin_width is not None else None

    # -- constructors ------------------------------------------------------
    @classmethod
    def degenerate(cls, value: float) -> "DiscretePMF":
        """The pmf of a constant."""
        return cls([float(value)], [1.0])

    @classmethod
    def from_samples(
        cls, samples: Sequence[float], bin_width: float = 1.0
    ) -> "DiscretePMF":
        """Relative-frequency pmf of ``samples`` on a ``bin_width`` grid.

        This is exactly the paper's estimator: "we first compute the
        probability mass function of S_i and W_i based on the relative
        frequency of their values recorded in the sliding window".  To
        maintain the counts under add/evict, keep a
        :class:`SampleCounts` instead of re-invoking this constructor.
        """
        if len(samples) == 0:
            raise ValueError("cannot build a pmf from zero samples")
        return SampleCounts(bin_width, samples).pmf()

    @classmethod
    def from_counts(
        cls, counts: Mapping[float, int], bin_width: Optional[float] = None
    ) -> "DiscretePMF":
        """Relative-frequency pmf from pre-quantized ``{value: count}``."""
        if not counts:
            raise ValueError("cannot build a pmf from zero samples")
        total = float(sum(counts.values()))
        values = sorted(counts)
        probs = [counts[v] / total for v in values]
        return cls(values, probs, bin_width=bin_width)

    # -- accessors ----------------------------------------------------------
    @property
    def bin_width(self) -> Optional[float]:
        """Grid spacing this pmf is tagged with (``None`` when off-grid)."""
        return self._bin_width
    @property
    def values(self) -> npt.NDArray[np.float64]:
        """Atom locations, sorted ascending (read-only view)."""
        view = self._values.view()
        view.flags.writeable = False
        return view

    @property
    def probs(self) -> npt.NDArray[np.float64]:
        """Atom probabilities aligned with :attr:`values` (read-only)."""
        view = self._probs.view()
        view.flags.writeable = False
        return view

    @property
    def support_size(self) -> int:
        """Number of atoms."""
        return int(self._values.size)

    def items(self) -> List[Tuple[float, float]]:
        """``(value, probability)`` pairs, ascending by value."""
        return list(zip(self._values.tolist(), self._probs.tolist()))

    # -- derived caches ------------------------------------------------------
    def cumulative_probs(self) -> npt.NDArray[np.float64]:
        """``P(X <= values[k])`` per atom, cached (read-only view)."""
        if self._cum is None:
            self._cum = np.cumsum(self._probs)
        view = self._cum.view()
        view.flags.writeable = False
        return view

    def resolution(self) -> float:
        """Smallest gap between adjacent atoms (``inf`` for a singleton)."""
        if self._gap is None:
            if self._values.size > 1:
                self._gap = float(np.min(np.diff(self._values)))
            else:
                self._gap = math.inf
        return self._gap

    def _spacing(self) -> float:
        # MARKED: the one difference from the parent.  A singleton has no
        # gap; when it carries a grid tag, that is its spacing.
        if self._values.size == 1 and self._bin_width is not None:
            return self._bin_width
        return self.resolution()

    def dust_tolerance(self) -> float:
        """Absolute tolerance that absorbs grid float dust.

        Derived from the atom spacing: one decimal-rounding quantum of the
        grid, never more than half the spacing (so neighbouring atoms can
        never be conflated).  Millisecond-scale grids keep the historical
        1e-9.
        """
        gap = self._spacing()  # MARKED
        tol = 10.0 ** (-_grid_decimals(gap))
        if math.isfinite(gap):
            tol = min(tol, 0.5 * gap)
        return tol

    # -- statistics ---------------------------------------------------------
    def mean(self) -> float:
        """Expected value."""
        return float(np.dot(self._values, self._probs))

    def variance(self) -> float:
        """Variance."""
        mu = self.mean()
        return float(np.dot((self._values - mu) ** 2, self._probs))

    def cdf(self, t: float) -> float:
        """``P(X <= t)`` — the distribution function ``F(t)``.

        A grid-derived tolerance (:meth:`dust_tolerance`) absorbs bin
        float dust so that ``cdf(value)`` includes the atom at ``value``;
        the result is clamped to [0, 1] against summation roundoff.
        """
        tol = self.dust_tolerance()
        if t >= self._values[-1] - tol:
            return 1.0  # at or beyond the largest atom: certain
        index = int(np.searchsorted(self._values, t + tol, side="right"))
        if index == 0:
            return 0.0
        return min(1.0, max(0.0, float(self.cumulative_probs()[index - 1])))

    def survival(self, t: float) -> float:
        """``P(X > t) = 1 − F(t)``."""
        return max(0.0, 1.0 - self.cdf(t))

    def quantile(self, q: float) -> float:
        """Smallest value ``v`` with ``F(v) >= q``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile level must be in [0, 1], got {q}")
        cumulative = self.cumulative_probs()
        index = int(np.searchsorted(cumulative, q - 1e-12))
        index = min(index, self._values.size - 1)
        return float(self._values[index])

    def min(self) -> float:
        """Smallest atom."""
        return float(self._values[0])

    def max(self) -> float:
        """Largest atom."""
        return float(self._values[-1])

    # -- algebra ------------------------------------------------------------
    def shift(self, delta: float) -> "DiscretePMF":
        """The pmf of ``X + delta`` (adding a constant, e.g. ``T_i``).

        A translation keeps the atom spacing, so the grid tag survives
        (the offset moves, which the lattice convolution handles).
        """
        decimals = _grid_decimals(self._spacing())  # MARKED
        values = np.round(self._values + float(delta), decimals)
        return DiscretePMF(values, self._probs, bin_width=self._bin_width)

    def scale(self, factor: float) -> "DiscretePMF":
        """The pmf of ``factor · X`` (used by queue-scaling extensions).

        Scaling by an arbitrary factor leaves the estimator's bin grid,
        so the result is returned *untagged*: a later convolution falls
        back to the exact pairwise path instead of pretending the atoms
        still sit on the original lattice.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        if factor == 0:
            return DiscretePMF.degenerate(0.0)
        decimals = _grid_decimals(self._spacing() * float(factor))  # MARKED
        values = np.round(self._values * float(factor), decimals)
        # Scaling cannot merge distinct atoms (it is injective for f>0),
        # so values stay unique.
        return DiscretePMF(values, self._probs)

    def convolve(self, other: "DiscretePMF") -> "DiscretePMF":
        """The pmf of the sum of two independent variables.

        The discrete convolution of §5.3.1, dispatched by shape:

        * a singleton operand is a constant shift (translation);
        * two pmfs tagged with the same ``bin_width`` convolve on the
          dense lattice — ``np.convolve`` below :data:`_FFT_CROSSOVER`
          slots, FFT above it — in ``O(L log L)`` instead of ``O(L²)``;
        * differing tags raise :class:`BinWidthMismatchError`;
        * untagged (or lattice-hostile, see :data:`_DENSE_BUDGET_FACTOR`)
          operands take the exact pairwise outer-product path.
        """
        settled, lattice = _dense_admission(self, other)
        if settled is not None:
            return settled
        if lattice is None:
            return self._convolve_pairwise(other)
        return self._convolve_lattice(other, *lattice)

    def _convolve_pairwise(self, other: "DiscretePMF") -> "DiscretePMF":
        """Exact ``O(L²)`` pairwise-sum convolution (the general path)."""
        sums = np.add.outer(self._values, other._values).ravel()
        weights = np.multiply.outer(self._probs, other._probs).ravel()
        decimals = _grid_decimals(min(self._spacing(), other._spacing()))  # MARKED
        keys = np.round(sums, decimals)
        unique, inverse = np.unique(keys, return_inverse=True)
        probs = np.bincount(inverse, weights=weights)
        width = None
        if self._bin_width is not None and other._bin_width is not None:
            width = self._bin_width
        return DiscretePMF(unique, probs, bin_width=width)

    def _lattice_indices(self) -> Optional[npt.NDArray[np.int64]]:
        """Integer lattice offsets of the atoms, or ``None`` off-grid.

        Guards the dense path against a stale grid tag: every atom must
        sit within a relative hair of ``values[0] + k · bin_width``.
        """
        width = self._bin_width
        offsets = (self._values - self._values[0]) / width
        indices = np.rint(offsets)
        if not np.all(np.abs(offsets - indices) <= 1e-6):
            return None
        return indices.astype(np.int64)

    def _convolve_lattice(
        self,
        other: "DiscretePMF",
        ia: npt.NDArray[np.int64],
        ib: npt.NDArray[np.int64],
    ) -> "DiscretePMF":
        """Dense same-grid convolution of a :func:`_dense_admission` pair."""
        width = self._bin_width
        len_a = int(ia[-1]) + 1
        len_b = int(ib[-1]) + 1
        out_len = len_a + len_b - 1
        dense_a = np.zeros(len_a)
        dense_a[ia] = self._probs
        dense_b = np.zeros(len_b)
        dense_b[ib] = other._probs
        if min(len_a, len_b) >= _FFT_CROSSOVER:
            full = _fft_convolve(dense_a, dense_b, out_len)
            # FFT round-off leaves ± noise in empty slots and drifts the
            # total mass; clamp negatives and drop the noise floor (the
            # constructor renormalizes the surviving mass to exactly 1).
            floor = out_len * np.finfo(float).eps
        else:
            full = np.convolve(dense_a, dense_b)
            floor = 0.0
        keep = np.nonzero(full > floor)[0]
        offset = float(self._values[0]) + float(other._values[0])
        decimals = _grid_decimals(width)
        values = np.round(offset + keep * width, decimals)
        return DiscretePMF(values, full[keep], bin_width=width)

    def __add__(self, other: "DiscretePMF") -> "DiscretePMF":
        if not isinstance(other, DiscretePMF):
            return NotImplemented
        return self.convolve(other)

    # -- comparison ----------------------------------------------------------
    def allclose(self, other: "DiscretePMF", tol: float = 1e-9) -> bool:
        """Structural equality within ``tol``."""
        return (
            self.support_size == other.support_size
            and bool(np.allclose(self._values, other._values, atol=tol))
            and bool(np.allclose(self._probs, other._probs, atol=tol))
        )

    def __repr__(self) -> str:
        return (
            f"<DiscretePMF atoms={self.support_size} "
            f"mean={self.mean():.3f} range=[{self.min():.3f}, {self.max():.3f}]>"
        )


def _fft_convolve(
    a: npt.NDArray[np.float64], b: npt.NDArray[np.float64], out_len: int
) -> npt.NDArray[np.float64]:
    """Linear convolution of two dense prob vectors via a real FFT."""
    size = 1 << max(0, out_len - 1).bit_length()
    product = np.fft.rfft(a, size) * np.fft.rfft(b, size)
    return np.fft.irfft(product, size)[:out_len]


_Lattice = Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]


def _dense_admission(
    a: "DiscretePMF", b: "DiscretePMF"
) -> Tuple[Optional["DiscretePMF"], Optional[_Lattice]]:
    """How ``a ⊛ b`` is computed: ``(settled result, lattice indices)``.

    A singleton operand settles the convolution as a shift.  Otherwise
    the pair is admitted to the dense path — and its integer lattice
    offsets returned — when both operands carry the same grid tag
    (differing tags raise :class:`BinWidthMismatchError`), every atom
    sits on that grid and the output lattice is within the slot budget.
    ``(None, None)`` leaves the exact pairwise path.
    """
    if b._values.size == 1:
        return a.shift(float(b._values[0])), None
    if a._values.size == 1:
        return b.shift(float(a._values[0])), None
    if a._bin_width is None or b._bin_width is None:
        return None, None
    if not math.isclose(a._bin_width, b._bin_width, rel_tol=1e-9, abs_tol=0.0):
        raise BinWidthMismatchError(
            f"cannot convolve pmfs on different grids: bin widths "
            f"{a._bin_width} and {b._bin_width}"
        )
    ia = a._lattice_indices()
    ib = b._lattice_indices()
    if ia is None or ib is None:
        return None, None
    out_len = int(ia[-1]) + int(ib[-1]) + 1
    if out_len > _DENSE_SLOT_CAP or (
        out_len > 4096
        and out_len > _DENSE_BUDGET_FACTOR * a._values.size * b._values.size
    ):
        return None, None
    return None, (ia, ib)


def batch_convolve(
    pairs: Sequence[Tuple["DiscretePMF", "DiscretePMF"]],
) -> List[Optional["DiscretePMF"]]:
    """Convolve many same-grid pmf pairs in one padded FFT pass.

    The array kernel behind the estimator's batched ``S_i ⊛ W_i``
    refresh: every lattice-compatible pair contributes one row to a pair
    of zero-padded dense matrices, a single ``rfft``/``irfft`` along the
    row axis convolves them all, and each row is pruned back to a sparse
    :class:`DiscretePMF` (FFT noise clamped, mass renormalized by the
    constructor — same guarantees as :meth:`DiscretePMF.convolve`).

    Returns a list aligned with ``pairs``.  :func:`_dense_admission`
    decides each pair exactly as it does for the scalar method; pairs it
    leaves to the pairwise path come back as ``None`` so the caller can
    fall back to ``convolve``.
    """
    results: List[Optional[DiscretePMF]] = [None] * len(pairs)
    rows: List[Tuple[int, DiscretePMF, DiscretePMF, _Lattice]] = []
    for index, (a, b) in enumerate(pairs):
        results[index], lattice = _dense_admission(a, b)
        if lattice is not None:
            rows.append((index, a, b, lattice))
    if not rows:
        return results

    len_a = max(int(ia[-1]) + 1 for _, _, _, (ia, _) in rows)
    len_b = max(int(ib[-1]) + 1 for _, _, _, (_, ib) in rows)
    out_len = len_a + len_b - 1
    size = 1 << max(0, out_len - 1).bit_length()
    dense_a = np.zeros((len(rows), len_a))
    dense_b = np.zeros((len(rows), len_b))
    for row, (_, a, b, (ia, ib)) in enumerate(rows):
        dense_a[row, ia] = a._probs
        dense_b[row, ib] = b._probs
    full = np.fft.irfft(
        np.fft.rfft(dense_a, size, axis=1) * np.fft.rfft(dense_b, size, axis=1),
        size,
        axis=1,
    )
    floor = size * np.finfo(float).eps
    for row, (index, a, b, (ia, ib)) in enumerate(rows):
        row_len = int(ia[-1]) + int(ib[-1]) + 1
        dense = full[row, :row_len]
        keep = np.nonzero(dense > floor)[0]
        width = a._bin_width
        offset = float(a._values[0]) + float(b._values[0])
        values = np.round(offset + keep * width, _grid_decimals(width))
        results[index] = DiscretePMF(values, dense[keep], bin_width=width)
    return results
