"""Exact desk-scale encoding, decoding and moment experiments.

Everything here enumerates codewords exhaustively, which is the point: these
are the oracles that the asymptotic bounds in :mod:`compoundcode.analysis`
are checked against.  Every search reduces, with numpy, the blocks of packed
codewords that :func:`_span_blocks` yields in Gray-code order; its table of
at most 2^14 codewords bounds the memory of a search, whatever the dimension.
One search at the cap of 2^26 codewords took 0.25 s (n = 48) to 1.0 s
(n = 250) on a 2-core Xeon VM with Python 3.11 and numpy 2.4.  Distortion is
normalized Hamming distance; a weight threshold "within D" means
``weight <= floor(D * n)`` (with a 1e-9 guard against float dust).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import gammaln

from .ensembles import Coset, CompoundCode, assemble, random_bitvector, trial_rng
from .gf2 import BitVector, SparseBitMatrix, matvec, null_space_basis

ENUMERATION_CAP_BITS = 26
_BLOCK_BITS = 14  # the kernel's table holds at most 2^14 codewords


class EnumerationCapError(RuntimeError):
    """Raised when an exhaustive operation would exceed the iteration cap."""

    def __init__(self, dimension: int):
        super().__init__(
            f"enumeration dimension {dimension} exceeds cap of "
            f"{ENUMERATION_CAP_BITS} bits ({2 ** ENUMERATION_CAP_BITS} codewords)")
        self.dimension = dimension


def weight_threshold(D: float, n: int) -> int:
    """Integer threshold floor(D*n) used for 'distortion D-good' tests."""
    return int(np.floor(D * n + 1e-9))


def _resolve_constraint(code: CompoundCode, constraint) -> tuple[BitVector, list[BitVector]]:
    """(offset, basis) of the information-word set selected by ``constraint``.

    ``"full"`` is the whole code (H y = 0), ``"h1"`` the H1-only supercode,
    and a :class:`Coset` a syndrome-shifted member of the nested partition.
    """
    if constraint == "full":
        return BitVector.zeros(code.m), code.null_basis_H
    if constraint == "h1":
        return BitVector.zeros(code.m), code.null_basis_H1
    if isinstance(constraint, Coset):
        if not constraint.feasible:
            raise ValueError("cannot enumerate an infeasible coset")
        return constraint.y0, constraint.basis
    raise ValueError(f"unknown constraint {constraint!r}")


def enumerate_codewords(code: CompoundCode, constraint="full"):
    """Yield every (y, x = G y) over the constrained information-word set.

    Walks ``y0 XOR span(basis)`` in Gray-code order, updating x with one
    basis-image XOR per step; each information word appears exactly once.
    Nothing in the package calls it: it is the scalar reference that the
    tests compare the block kernel against.
    """
    y0, basis = _resolve_constraint(code, constraint)
    dim = len(basis)
    if dim > ENUMERATION_CAP_BITS:
        raise EnumerationCapError(dim)
    images = [matvec(code.G, b) for b in basis]
    y = y0
    x = matvec(code.G, y0)
    yield y, x
    for i in range(1, 1 << dim):
        j = (i & -i).bit_length() - 1
        y = y ^ basis[j]
        x = x ^ images[j]
        yield y, x


def _span(code: CompoundCode, constraint):
    """(y0, basis, G y0, G basis) for the words selected by ``constraint``."""
    y0, basis = _resolve_constraint(code, constraint)
    return y0, basis, matvec(code.G, y0), [matvec(code.G, b) for b in basis]


def _span_blocks(x0: BitVector, images: list[BitVector]):
    """Yield ``x0 ^ span(images)`` as blocks of packed ``uint64`` words,
    one column per codeword (numpy reduces fast over the leading axis).

    Column ``i`` of the concatenated blocks XORs onto ``x0`` the images
    picked by the bits of ``gray(i) = i ^ (i >> 1)``, the order of
    :func:`enumerate_codewords`.  The first ``b = min(dim, _BLOCK_BITS)``
    images form a 2^b-column table by reflected-Gray doubling; block ``h`` is
    that table (reversed for odd ``h``) XOR the images picked by ``gray(h)``.
    """
    if len(images) > ENUMERATION_CAP_BITS:
        raise EnumerationCapError(len(images))
    words = np.array([x0._words] + [v._words for v in images])[:, :, None]
    b = min(len(images), _BLOCK_BITS)
    table = words[0]
    for j in range(1, b + 1):
        table = np.concatenate([table, table[:, ::-1] ^ words[j]], axis=1)
    offset = np.zeros_like(words[0])
    for h in range(1 << (len(images) - b)):
        if h:
            offset ^= words[b + (h & -h).bit_length()]
        yield (table[:, ::-1] if h & 1 else table) ^ offset


def _nearest(code: CompoundCode, constraint, target: BitVector):
    """(y, x, distance) of the first codeword in Gray order nearest ``target``;
    ``y`` is rebuilt from the bits of ``gray(i)`` of the winning column ``i``."""
    y, basis, x0, images = _span(code, constraint)
    best_d, best_i, best_x = code.n + 1, 0, None
    for h, block in enumerate(_span_blocks(x0, images)):
        d = np.bitwise_count(block ^ target._words[:, None]).sum(axis=0)
        i = int(d.argmin())
        if d[i] < best_d:
            best_d, best_i, best_x = int(d[i]), h * block.shape[1] + i, block[:, i].copy()
    for j, b in enumerate(basis):
        if (best_i ^ best_i >> 1) >> j & 1:
            y = y ^ b
    return y, BitVector(code.n, best_x), best_d


def _distance_counts(x0: BitVector, images: list[BitVector],
                     targets: list[BitVector]) -> np.ndarray:
    """Distinct codewords of ``x0 ^ span(images)`` by distance to each target.
    Each codeword has as many information words as ``x0``: counts divide."""
    counts = np.zeros((len(targets), x0.length + 1), dtype=np.int64)
    multiplicity = 0
    for block in _span_blocks(x0, images):
        multiplicity += int(np.count_nonzero((block == x0._words[:, None]).all(axis=0)))
        for t, target in enumerate(targets):
            d = np.bitwise_count(block ^ target._words[:, None]).sum(axis=0, dtype=np.intp)
            counts[t] += np.bincount(d, minlength=x0.length + 1)
    if np.any(counts % multiplicity):
        raise RuntimeError(f"codeword counts {counts.tolist()} are not multiples "
                           f"of {multiplicity} information words per codeword")
    return counts // multiplicity


def _within(code: CompoundCode, constraint, targets: list[BitVector], radius):
    """Distinct codewords within ``radius`` of each target."""
    counts = _distance_counts(*_span(code, constraint)[2:], targets)
    return counts[:, np.arange(code.n + 1) <= radius].sum(axis=1)


@dataclass(frozen=True)
class SourceEncodeResult:
    y_hat: BitVector
    x_hat: BitVector
    distortion: float


def source_encode_exhaustive(code: CompoundCode, s: BitVector,
                             constraint="full") -> SourceEncodeResult:
    """Globally minimum-distortion quantization of ``s``.

    Ties break to the first codeword in enumeration order, which makes the
    result deterministic.
    """
    if s.length != code.n:
        raise ValueError(f"source length {s.length} != n = {code.n}")
    y, x, d = _nearest(code, constraint, s)
    return SourceEncodeResult(y_hat=y, x_hat=x, distortion=d / code.n)


@dataclass(frozen=True)
class DecodeResult:
    status: str  # "decoded" | "erasure"
    x_hat: BitVector | None
    y_hat: BitVector | None
    distance: int | None


def channel_decode_ml(code: CompoundCode, v: BitVector,
                      constraint="full") -> DecodeResult:
    """Minimum-distance decoding (ML for a symmetric channel); always decodes.

    Ties break to the first codeword in enumeration order.
    """
    if v.length != code.n:
        raise ValueError(f"received length {v.length} != n = {code.n}")
    y, x, d = _nearest(code, constraint, v)
    return DecodeResult(status="decoded", x_hat=x, y_hat=y, distance=d)


def channel_decode_threshold(code: CompoundCode, v: BitVector, p: float,
                             epsilon_n: float | None = None,
                             constraint="full") -> DecodeResult:
    """Threshold rule: decode iff exactly one codeword lies within p*n + eps_n.

    ``epsilon_n`` defaults to n^(2/3).  Zero or multiple candidates give an
    erasure status, never an exception.  Candidates are counted as distinct
    codeword vectors, not information words.
    """
    if v.length != code.n:
        raise ValueError(f"received length {v.length} != n = {code.n}")
    if epsilon_n is None:
        epsilon_n = code.n ** (2.0 / 3.0)
    if _within(code, constraint, [v], p * code.n + epsilon_n)[0] != 1:
        return DecodeResult(status="erasure", x_hat=None, y_hat=None, distance=None)
    # The one codeword in range is the nearest; its first preimage is the first hit.
    y, x, d = _nearest(code, constraint, v)
    return DecodeResult(status="decoded", x_hat=x, y_hat=y, distance=d)


def count_good_codewords(code: CompoundCode, s: BitVector, D: float,
                         constraint="full") -> int:
    """Number of distinct codewords within floor(D*n) of ``s``."""
    if s.length != code.n:
        raise ValueError(f"source length {s.length} != n = {code.n}")
    return int(_within(code, constraint, [s], weight_threshold(D, code.n))[0])


# ---------------------------------------------------------------------------
# weight enumerator


@dataclass(frozen=True)
class WeightHistogram:
    """Exact codeword counts per integer Hamming weight (index = weight)."""

    length: int
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def normalized_weights(self) -> np.ndarray:
        return np.arange(self.length + 1) / self.length

    def write_csv(self, path) -> None:
        lines = ["w,count"]
        norm = self.normalized_weights()
        lines.extend(f"{norm[i]:.11e},{int(c)}"
                     for i, c in enumerate(self.counts) if c)
        Path(path).write_text("\n".join(lines) + "\n")


def weight_enumerator_exact(obj, constraint="full") -> WeightHistogram:
    """Exact weight histogram of a code's codewords.

    For a :class:`SparseBitMatrix` the argument is read as a parity-check
    matrix and the histogram is over its null-space vectors.  For a
    :class:`CompoundCode` the histogram is over distinct codewords x; when G
    is non-injective on the information-word span every x is reached the same
    number of times (the kernel is a subspace), so counts divide exactly.
    """
    if isinstance(obj, SparseBitMatrix):
        x0, images = BitVector.zeros(obj.cols), null_space_basis(obj)
    else:
        _, _, x0, images = _span(obj, constraint)
    counts = _distance_counts(x0, images, [BitVector.zeros(x0.length)])[0]
    return WeightHistogram(length=x0.length, counts=counts)


# ---------------------------------------------------------------------------
# second-moment decomposition experiment


@dataclass(frozen=True)
class MomentEstimate:
    """Monte Carlo estimates of the good-codeword count moments.

    ``decomposition_rhs`` is E[T] (1 + sum of conditional overlap
    probabilities), estimated from the same trials; ``diff`` and ``se_diff``
    quantify its agreement with the directly estimated E[T^2].
    """

    trials: int
    threshold: int
    mean_T: float
    mean_T_squared: float
    mean_overlap_sum: float
    decomposition_rhs: float
    se_T: float
    se_T_squared: float
    se_overlap_sum: float
    diff: float
    se_diff: float

    def within_se(self, k: float = 3.0) -> bool:
        return abs(self.diff) <= k * self.se_diff

    def to_dict(self) -> dict:
        return {
            "trials": self.trials, "threshold": self.threshold,
            "mean_T": self.mean_T, "mean_T_squared": self.mean_T_squared,
            "mean_overlap_sum": self.mean_overlap_sum,
            "decomposition_rhs": self.decomposition_rhs,
            "se_T": self.se_T, "se_T_squared": self.se_T_squared,
            "se_overlap_sum": self.se_overlap_sum,
            "diff": self.diff, "se_diff": self.se_diff,
        }


def _conditional_weight_sampler(n: int, thr: int):
    """Sampler for source words conditioned on weight <= thr (exact law)."""
    ts = np.arange(thr + 1)
    logc = gammaln(n + 1) - gammaln(ts + 1) - gammaln(n - ts + 1)
    probs = np.exp(logc - logc.max())
    probs /= probs.sum()

    def sample(rng: np.random.Generator) -> BitVector:
        t = int(rng.choice(thr + 1, p=probs))
        pos = rng.choice(n, size=t, replace=False)
        return BitVector.from_support(n, pos)

    return sample


def moment_experiment(params, D: float, trials: int, master_seed: int) -> MomentEstimate:
    """Monte Carlo check of the second-moment decomposition on tiny codes.

    Per trial (fresh code + sources from an independent substream): T counts
    distinct codewords within floor(D*n) of a uniform source word; the
    overlap term counts distinct *nonzero* codewords within the threshold of
    a source word drawn from the exact conditional weight law.  Codes with
    rank-deficient G or H are kept as sampled, so the estimate is honest
    about the ensemble actually simulated.
    """
    n = params.n
    thr = weight_threshold(D, n)
    sample_conditional = _conditional_weight_sampler(n, thr)
    t_vals = np.empty(trials)
    o_vals = np.empty(trials)
    for i in range(trials):
        rng = trial_rng(master_seed, i)
        code = assemble(params, k1=params.k, rng=rng)
        s = random_bitvector(n, rng)
        s_cond = sample_conditional(rng)
        t, o = _within(code, "full", [s, s_cond], thr)
        t_vals[i] = t
        o_vals[i] = o - (s_cond.weight() <= thr)  # the zero codeword is no overlap

    t2_vals = t_vals ** 2
    mean_t, mean_t2, mean_o = t_vals.mean(), t2_vals.mean(), o_vals.mean()
    cov = np.cov(np.vstack([t_vals, t2_vals, o_vals])) / trials
    se_t, se_t2, se_o = np.sqrt(np.diag(cov))
    rhs = mean_t * (1.0 + mean_o)
    # Delta method for var(rhs) and its covariance with mean_t2.
    var_rhs = ((1.0 + mean_o) ** 2 * cov[0, 0] + mean_t ** 2 * cov[2, 2]
               + 2.0 * (1.0 + mean_o) * mean_t * cov[0, 2])
    cov_lhs_rhs = (1.0 + mean_o) * cov[1, 0] + mean_t * cov[1, 2]
    var_diff = max(cov[1, 1] + var_rhs - 2.0 * cov_lhs_rhs, 0.0)
    return MomentEstimate(
        trials=trials, threshold=thr,
        mean_T=float(mean_t), mean_T_squared=float(mean_t2),
        mean_overlap_sum=float(mean_o), decomposition_rhs=float(rhs),
        se_T=float(se_t), se_T_squared=float(se_t2), se_overlap_sum=float(se_o),
        diff=float(mean_t2 - rhs), se_diff=float(np.sqrt(var_diff)),
    )
