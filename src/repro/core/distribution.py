"""Empirical discrete distributions and their convolution.

The heart of the paper's online model (§5.3.1): the pmfs of the service
time ``S_i`` and queuing delay ``W_i`` are estimated from the relative
frequency of the values in a sliding window, and the response-time pmf is
their *discrete convolution* shifted by the most recent gateway-to-gateway
delay ``T_i``:

    R_i = S_i + W_i + T_i          (Equation 2)

Continuous measurements are quantized onto a bin grid before counting so
the convolution support stays bounded (``O(l²)`` points for window size
``l``), which is also what makes the Fig. 3 overhead curve meaningful.

Two pieces keep the estimator's per-write work small (see
docs/PERFORMANCE.md):

* :class:`SampleCounts` maintains the bin counts of a stream under
  single-sample add/evict, so a sliding window that replaces one sample
  costs two dict updates instead of an ``O(l)`` recount.
* There is one grid, :data:`BIN_WIDTH_MS`, and one tolerance: atoms are
  rounded to :data:`_KEY_DECIMALS` decimals and ``F(t)`` absorbs
  :data:`CDF_TOLERANCE` of float dust.  A pmf counted on the lattice is
  tagged as such; two tagged pmfs convolve on the dense lattice, every
  other pair on the exact pairwise path.

:func:`batch_convolve` is the one place that picks a pair's kernel, and
so which pairs share an FFT and what their last bits are;
:meth:`DiscretePMF.convolve` is its one-pair call.  A pmf remembers
whether its probabilities sum to exactly 1, so a shift or scaling of it
does not sum them again.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

__all__ = [
    "BIN_WIDTH_MS",
    "CDF_TOLERANCE",
    "DiscretePMF",
    "SampleCounts",
    "batch_convolve",
]

#: Quantization grid of every window pmf, ms.
BIN_WIDTH_MS = 1.0

# Sums of bin-aligned values accumulate float dust; atoms are rounded to
# this many decimals whenever they are computed.
_KEY_DECIMALS = 9

#: Absolute tolerance with which ``F(t)`` counts an atom at ``t``.  The
#: public constructor keeps atoms more than twice it apart, so it can
#: never conflate two neighbours.
CDF_TOLERANCE = 1e-9

# A lattice pair convolved alone switches from ``np.convolve`` to an FFT
# once both operands span at least this many lattice slots; below it the
# direct product beats the transform setup.
_FFT_CROSSOVER = 64


def _check_mass(probs: npt.NDArray[np.float64]) -> None:
    """Reject negative probabilities and a total mass that is not 1."""
    # (.any() and .sum() without their python wrappers: every row pays this.)
    if np.logical_or.reduce(probs < -1e-12):
        raise ValueError("probabilities must be non-negative")
    total = float(np.add.reduce(probs))
    if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-6):
        raise ValueError(f"probabilities must sum to 1, got {total}")


class SampleCounts:
    """Incrementally maintained bin counts of a measurement stream.

    This is the count-delta backend of :meth:`DiscretePMF.from_samples`:
    a sliding window that pushes one sample and evicts another updates two
    dictionary entries instead of recounting all ``l`` samples.  Each of
    the repository's windows owns one (see ``SlidingWindow.pmf``).

    The pmf is a value of the counts, so the one last built is kept until
    a count changes: :meth:`add` drops it, :meth:`replace` only when the
    two samples fall in different bins.
    """

    __slots__ = ("_counts", "_total", "_pmf")

    def __init__(self, samples: Iterable[float] = ()) -> None:
        self._counts: Dict[float, int] = {}
        self._total = 0
        self._pmf: Optional[DiscretePMF] = None
        for sample in samples:
            self.add(sample)

    @staticmethod
    def _key(sample: float) -> float:
        """The lattice point ``sample`` is counted at."""
        # An integer times BIN_WIDTH_MS == 1.0 is already on the 9-decimal grid.
        return round(float(sample) / BIN_WIDTH_MS) * BIN_WIDTH_MS

    def add(self, sample: float) -> None:
        """Count one new sample."""
        key = self._key(sample)
        self._counts[key] = self._counts.get(key, 0) + 1
        self._total += 1
        self._pmf = None

    def replace(self, new_sample: float, evicted: Optional[float] = None) -> None:
        """Push ``new_sample``, evicting ``evicted`` first when given.

        The same ``round`` per sample as :meth:`add`; evicting from an
        empty bin is a ``ValueError``.  Both bins are found before
        anything changes; when they are one bin no count changes and the
        kept pmf stands.
        """
        width, counts = BIN_WIDTH_MS, self._counts
        key = round(float(new_sample) / width) * width
        if evicted is not None:
            gone = round(float(evicted) / width) * width
            count = counts.get(gone, 0)
            if count == 0:
                raise ValueError(f"cannot evict {evicted!r}: bin {gone!r} is empty")
            if gone == key:
                return
            if count == 1:
                del counts[gone]
            else:
                counts[gone] = count - 1
            self._total -= 1
        counts[key] = counts.get(key, 0) + 1
        self._total += 1
        self._pmf = None

    def counts(self) -> Dict[float, int]:
        """Current bin counts (copy)."""
        return dict(self._counts)

    def __len__(self) -> int:
        return self._total

    def pmf(self) -> "DiscretePMF":
        """The relative-frequency pmf of the counted samples (kept until a
        count changes)."""
        if self._pmf is None:
            counts, total = self._counts, self._total
            if not counts:
                raise ValueError("cannot build a pmf from zero samples")
            values = sorted(counts)
            probs = np.array([counts[v] / total for v in values])
            self._pmf = DiscretePMF._derived(np.array(values), probs, True)
        return self._pmf

    def __repr__(self) -> str:
        return f"<SampleCounts bins={len(self._counts)} total={self._total}>"


class DiscretePMF:
    """A probability mass function over a finite set of float values.

    Instances are immutable; all operations return new pmfs.  Values are
    kept sorted, probabilities sum to 1 (within float tolerance).  The
    cumulative-probability array is computed lazily and cached, so
    repeated :meth:`cdf` queries cost a binary search.

    A pmf counted on the :data:`BIN_WIDTH_MS` lattice (by the sample
    constructors) carries a tag that :meth:`shift` and the lattice
    convolution keep; two tagged pmfs convolve on the dense lattice (see
    :meth:`convolve`).  The tag, not where the atoms happen to sit,
    decides: :meth:`scale` and the public constructor leave it off.
    """

    __slots__ = ("_values", "_probs", "_cum", "_lattice", "_unit")

    def __init__(self, values: Sequence[float], probs: Sequence[float]) -> None:
        if len(values) != len(probs):
            raise ValueError("values and probs must have equal length")
        if len(values) == 0:
            raise ValueError("a pmf needs at least one atom")
        values_arr = np.asarray(values, dtype=float)
        probs_arr = np.asarray(probs, dtype=float)
        _check_mass(probs_arr)
        order = np.argsort(values_arr)
        self._values = values_arr[order]
        gap = float(np.diff(self._values).min()) if len(values) > 1 else math.inf
        if gap <= 2 * CDF_TOLERANCE:
            raise ValueError(
                f"atoms must be more than {2 * CDF_TOLERANCE} apart, got {gap}"
            )
        self._probs = np.maximum(probs_arr[order], 0.0)
        # Renormalize away any float dust introduced by clipping.
        self._probs = self._probs / self._probs.sum()
        self._cum = None
        self._lattice = False
        self._unit = False

    # -- constructors ------------------------------------------------------
    @classmethod
    def _derived(
        cls,
        values: npt.NDArray[np.float64],
        probs: npt.NDArray[np.float64],
        lattice: bool,
        unit: bool = False,
    ) -> "DiscretePMF":
        """A pmf over arrays this module computed itself (RL008 keeps it so):
        sorted values and non-negative probs are not re-sorted or re-scanned.
        The renormalising division fixes last bits; ``x / 1.0`` is ``x``.
        ``unit`` vouches that ``probs`` sums to exactly 1 (a pmf's own array,
        handed on by :meth:`shift` or :meth:`scale`), so it is not summed
        again; the pmf records the same of the array it keeps."""
        pmf = cls.__new__(cls)
        if not unit:
            total = np.add.reduce(probs)  # (probs.sum() without its wrapper)
            unit = bool(total == 1.0)
            if not unit:
                probs = probs / total
        pmf._values = values
        pmf._probs = probs
        pmf._cum = None
        pmf._lattice = lattice
        pmf._unit = unit
        return pmf

    def validated(self) -> "DiscretePMF":
        """``self``, once it passes the constructor's sign/mass check."""
        _check_mass(self._probs)
        return self

    @classmethod
    def degenerate(cls, value: float) -> "DiscretePMF":
        """The pmf of a constant."""
        return cls._derived(np.array([float(value)]), np.array([1.0]), False)

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "DiscretePMF":
        """Relative-frequency pmf of ``samples`` on the lattice.

        This is exactly the paper's estimator: "we first compute the
        probability mass function of S_i and W_i based on the relative
        frequency of their values recorded in the sliding window".  To
        maintain the counts under add/evict, keep a
        :class:`SampleCounts` instead of re-invoking this constructor.
        """
        if len(samples) == 0:
            raise ValueError("cannot build a pmf from zero samples")
        return SampleCounts(samples).pmf()

    @classmethod
    def from_counts(cls, counts: Mapping[float, int]) -> "DiscretePMF":
        """Relative-frequency pmf from pre-quantized ``{value: count}``."""
        if not counts:
            raise ValueError("cannot build a pmf from zero samples")
        total = float(sum(counts.values()))
        values = sorted(counts)
        probs = [counts[v] / total for v in values]
        return cls(values, probs)

    # -- accessors ----------------------------------------------------------
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
            self._cum = self._probs.cumsum()
        view = self._cum.view()
        view.flags.writeable = False
        return view

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

        The one reader of ``F`` off a pmf, the estimator's batch pass
        included: the atoms at or below ``t + CDF_TOLERANCE`` (so
        ``cdf(value)`` includes the atom at ``value`` despite bin float
        dust) number the answer — 0 for none, exactly 1 for all, else
        the cached running sum clamped to [0, 1] against roundoff.  A NaN
        ``t`` is refused (``ValueError``).
        """
        if not t >= -math.inf:  # (NaN fails every comparison)
            raise ValueError(f"cannot read F at {t}")
        values = self._values
        index = int(values.searchsorted(t + CDF_TOLERANCE, "right"))
        if index == values.size:
            return 1.0  # every atom at or below t: certain
        if index == 0:
            return 0.0
        if self._cum is None:
            self._cum = self._probs.cumsum()
        return min(1.0, max(0.0, float(self._cum[index - 1])))

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

        A translation keeps the atom spacing, so the lattice tag survives
        (the offset moves, which the lattice convolution handles).  The
        probabilities are this pmf's own array, handed on with what
        :meth:`_derived` knew of its mass: summed to exactly 1 or not.

        A lattice-tagged pmf shifted by zero is returned as it is: its
        atoms are on the 9-decimal grid, where ``round`` changes nothing,
        and ``x + 0.0`` is ``x`` unless ``x`` is ``-0.0``, which the sign
        bit of the smallest atom rules out (negative atoms with it).
        """
        if (
            delta == 0.0
            and self._lattice
            and math.copysign(1.0, self._values[0]) == 1.0
        ):
            return self
        values = (self._values + float(delta)).round(_KEY_DECIMALS)
        return DiscretePMF._derived(values, self._probs, self._lattice, self._unit)

    def scale(self, factor: float) -> "DiscretePMF":
        """The pmf of ``factor · X`` (used by queue-scaling extensions).

        Scaling by an arbitrary factor leaves the lattice, so the result
        is returned *untagged*: a later convolution takes the exact
        pairwise path — even when the factor is an integer and the atoms
        happen to land on lattice points.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        if factor == 0:
            return DiscretePMF.degenerate(0.0)
        values = (self._values * float(factor)).round(_KEY_DECIMALS)
        # Scaling cannot merge distinct atoms (it is injective for f>0),
        # so values stay unique.
        return DiscretePMF._derived(values, self._probs, False, self._unit)

    def convolve(self, other: "DiscretePMF") -> "DiscretePMF":
        """The pmf of the sum of two independent variables.

        The discrete convolution of §5.3.1: the one-pair call of
        :func:`batch_convolve`, which picks the kernel by shape.
        """
        return batch_convolve([(self, other)])[0]

    def _lattice_indices(self) -> npt.NDArray[np.int64]:
        """Integer lattice offsets of the atoms from the first one."""
        offsets = (self._values - self._values[0]) / BIN_WIDTH_MS
        return np.rint(offsets).astype(np.int64)

    def __add__(self, other: "DiscretePMF") -> "DiscretePMF":
        if not isinstance(other, DiscretePMF):
            return NotImplemented
        return self.convolve(other)

    def __repr__(self) -> str:
        return (
            f"<DiscretePMF atoms={self.support_size} "
            f"mean={self.mean():.3f} range=[{self.min():.3f}, {self.max():.3f}]>"
        )


def _pairwise(pairs: Sequence[Tuple[DiscretePMF, DiscretePMF]]) -> List[DiscretePMF]:
    """Exact ``O(L²)`` pairwise-sum convolution of every pair, in one pass.

    Pair ``r`` fills row ``r`` of a ``(rows, L_a, L_b)`` block with its sums
    ``a_i + b_j`` and products ``p_i · q_j``, i-major; a mask by the row's
    sizes keeps its own entries.  The keys are rounded to the grid once and
    sorted by one stable ``lexsort`` on ``(row, key)``, so equal keys of two
    rows never merge and a group's products stay in input order: one
    ``bincount`` adds them in the order a one-pair call adds them, and
    every row's bits are those of its own one-pair call.
    """
    sizes_a = [a._values.size for a, _ in pairs]
    sizes_b = [b._values.size for _, b in pairs]
    width_a, width_b = max(sizes_a), max(sizes_b)
    inside = np.array([sizes_a, sizes_b])[:, :, None] > np.arange(max(width_a, width_b))
    # Four padded planes: a's values, a's probs, b's values, b's probs.
    padded = np.zeros((4,) + inside.shape[1:])
    padded[inside[[0, 0, 1, 1]]] = np.concatenate(
        [a._values for a, _ in pairs] + [a._probs for a, _ in pairs]
        + [b._values for _, b in pairs] + [b._probs for _, b in pairs]
    )
    values_a, probs_a = padded[:2, :, :width_a, None]
    values_b, probs_b = padded[2:, :, None, :width_b]
    kept = inside[0, :, :width_a, None] & inside[1, :, None, :width_b]
    keys = (values_a + values_b)[kept].round(_KEY_DECIMALS)
    weights = (probs_a * probs_b)[kept]
    order = np.lexsort((keys, kept.nonzero()[0]))
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    pair_ends = list(accumulate(a * b for a, b in zip(sizes_a, sizes_b)))
    first[[0] + pair_ends[:-1]] = True  # each row's first key starts a group
    group = np.add.accumulate(first, dtype=np.intp)  # each key's group, from 1
    probs = np.bincount(group, weights=weights[order])[1:]
    values = keys[first]
    atom_ends = group[[end - 1 for end in pair_ends]].tolist()
    return [
        DiscretePMF._derived(values[start:end], probs[start:end], False)
        for start, end in zip([0] + atom_ends, atom_ends)
    ]


def _lattice(
    pairs: Sequence[Tuple[DiscretePMF, DiscretePMF]], alone: bool
) -> List[DiscretePMF]:
    """Dense-lattice convolution of lattice-tagged pairs, in one pass.

    Every pair contributes one row to a pair of zero-padded dense
    matrices, and a single ``rfft``/``irfft`` along the row axis convolves
    them all.  A pair convolved ``alone`` (the whole of a one-pair call)
    is sized to itself: ``np.convolve`` while an operand spans fewer than
    :data:`_FFT_CROSSOVER` slots, an FFT above.  FFT round-off leaves ±
    noise in empty slots and drifts the total mass: slots at or below the
    noise floor (``out_len · eps`` for a pair alone, ``size · eps`` in a
    batch; which slots survive is part of a row's pinned bits) are
    dropped, negatives with them, and the surviving mass is renormalized
    to exactly 1.
    """
    indices = [(a._lattice_indices(), b._lattice_indices()) for a, b in pairs]
    len_a = max([int(ia[-1]) for ia, _ in indices]) + 1
    len_b = max([int(ib[-1]) for _, ib in indices]) + 1
    out_len = len_a + len_b - 1
    dense_a = np.zeros((len(pairs), len_a))
    dense_b = np.zeros((len(pairs), len_b))
    for row, ((a, b), (ia, ib)) in enumerate(zip(pairs, indices)):
        dense_a[row][ia] = a._probs
        dense_b[row][ib] = b._probs
    if alone and min(len_a, len_b) < _FFT_CROSSOVER:
        full = np.convolve(dense_a[0], dense_b[0])[None]
        floor = 0.0
    else:
        size = 1 << (out_len - 1).bit_length()
        full = np.fft.irfft(
            np.fft.rfft(dense_a, size, axis=1) * np.fft.rfft(dense_b, size, axis=1),
            size,
            axis=1,
        )
        floor = (out_len if alone else size) * np.finfo(float).eps
    results = []
    for row, ((a, b), (ia, ib)) in enumerate(zip(pairs, indices)):
        dense = full[row, : int(ia[-1]) + int(ib[-1]) + 1]
        keep = np.nonzero(dense > floor)[0]
        offset = float(a._values[0]) + float(b._values[0])
        values = np.round(offset + keep * BIN_WIDTH_MS, _KEY_DECIMALS)
        results.append(DiscretePMF._derived(values, dense[keep], True))
    return results


def batch_convolve(
    pairs: Sequence[Tuple[DiscretePMF, DiscretePMF]],
) -> List[DiscretePMF]:
    """``a ⊛ b`` for every pair: the one place a pair's kernel is picked.

    The pairs are walked once and settled by shape:

    * a pair with a singleton operand is a shift (a translation);
    * pairs whose operands are both lattice-tagged convolve on the dense
      lattice (:func:`_lattice`), all in one padded FFT when the call
      holds more than one pair; the pair of a one-pair call is convolved
      alone, ``np.convolve`` below :data:`_FFT_CROSSOVER` slots;
    * every other pair goes into one call of the exact pairwise kernel,
      each row bit-equal to its own one-pair call.

    A shift or pairwise row therefore does not depend on the other pairs;
    a lattice row's last bits do (the FFT size), which is why the
    estimator hands a derivation's stale rows over in one call.
    """
    results: List[Optional[DiscretePMF]] = []
    lattice: List[int] = []
    untagged: List[int] = []
    for a, b in pairs:
        if b._values.size == 1:
            results.append(a.shift(float(b._values[0])))
            continue
        if a._values.size == 1:
            results.append(b.shift(float(a._values[0])))
            continue
        (lattice if a._lattice and b._lattice else untagged).append(len(results))
        results.append(None)
    if lattice:
        convolved = _lattice([pairs[i] for i in lattice], len(pairs) == 1)
        for index, pmf in zip(lattice, convolved):
            results[index] = pmf
    if untagged:
        for index, pmf in zip(untagged, _pairwise([pairs[i] for i in untagged])):
            results[index] = pmf
    return results  # type: ignore[return-value]  # (every None was filled)
