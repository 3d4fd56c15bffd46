"""Side-information pipelines over the nested compound code.

Two coding procedures share the partition of the lower checks into (H1, H2):

* SCSI (source coding with decoder side information): quantize the source
  with the H1-constrained code, transmit only the k2 syndrome bits H2 y-hat,
  and let the decoder recover the quantized word inside the syndrome-selected
  coset from its noisy observation of the source.

* CCSI (channel coding with encoder side information): the k2-bit message
  selects a coset; the encoder quantizes the known host signal inside that
  coset and transmits the quantization error, which doubles as the channel
  input under the weight budget.  The decoder decodes the H1-constrained
  code and reads the message back off the H2 syndrome.

The rate planner turns entropy targets into integer blocklength allocations
(m, k1, k2) and reports the rounding residuals; the simulators measure the
actual quantization noise rather than assuming it i.i.d., so the classical
approximation is visible in the reported statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import bernoulli_convolve, binary_entropy
from .codec import channel_decode_ml, channel_decode_threshold, source_encode_exhaustive
from .ensembles import (
    CompoundCode,
    coset_code,
    coset_from_solution,
    random_bitvector,
    trial_rng,
)
from .gf2 import BitVector, matvec


class InfeasiblePlanError(ValueError):
    """Raised when rate targets cannot be met at the given blocklength."""


@dataclass(frozen=True)
class RatePlan:
    """Integer blocklength allocation realizing a pair of rate targets.

    For SCSI, r1 = (m-k1)/n is the quantizer rate and r2 = (m-k1-k2)/n the
    channel-decoding rate; for CCSI, r1 = (m-k1-k2)/n is the quantizer rate
    and r2 = (m-k1)/n the channel rate.  In both modes the transmitted rate
    is r_trans = k2/n = |r1 - r2| exactly in integer arithmetic.
    """

    mode: str
    n: int
    m: int
    k1: int
    k2: int
    r1: float
    r2: float
    r_trans: float
    epsilon: float
    target_r1: float
    target_r2: float
    analytic_gap: float
    target_r_trans: float
    gap_trans: float
    noise_p: float
    distortion_D: float | None = None
    weight_budget: float | None = None

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if v is not None}
        return out


def plan_rates_scsi(D: float, p: float, epsilon: float, n: int,
                    m: int | None = None, k1: int | None = None,
                    k2: int | None = None) -> RatePlan:
    """Allocate (m, k1, k2) for source coding with decoder side information.

    Targets r1 = 1 - h(D) + eps/2 and r2 = 1 - h(D*p) - eps/2; k1 is fixed
    by rounding the source rate first, then k2 by rounding the channel rate.
    The achieved k2/n approximates h(D*p) - h(D) + eps.  Passing explicit
    (k1, k2) skips the rounding (desk-scale runs far from the targets) while
    the targets and residuals stay recorded.
    """
    if not 0.0 < D < 0.5:
        raise InfeasiblePlanError(f"D must lie in (0, 1/2), got {D}")
    if not 0.0 < p <= 0.5:
        raise InfeasiblePlanError(f"p must lie in (0, 1/2], got {p}")
    if epsilon < 0.0:
        raise InfeasiblePlanError("epsilon must be >= 0")
    target_r1 = 1.0 - binary_entropy(D) + epsilon / 2.0
    target_r2 = 1.0 - binary_entropy(bernoulli_convolve(D, p)) - epsilon / 2.0
    analytic = binary_entropy(bernoulli_convolve(D, p)) - binary_entropy(D)
    return _integerize("scsi", n, m, target_r1, target_r2, epsilon, analytic,
                       source_is_r1=True, noise_p=p, distortion_D=D,
                       k1=k1, k2=k2)


def plan_rates_ccsi(w_budget: float, p: float, epsilon: float, n: int,
                    m: int | None = None, k1: int | None = None,
                    k2: int | None = None) -> RatePlan:
    """Allocate (m, k1, k2) for channel coding with encoder side information.

    Targets r1 = 1 - h(w) + eps/2 (quantizer) and r2 = 1 - h(p) - eps/2
    (channel); the embedding rate k2/n = r2 - r1 approximates
    h(w) - h(p) - eps, i.e. the slacks approach the analytic branch from
    below.  Explicit (k1, k2) skip the rounding as in
    :func:`plan_rates_scsi`.
    """
    if not 0.0 < w_budget <= 0.5:
        raise InfeasiblePlanError(f"w_budget must lie in (0, 1/2], got {w_budget}")
    if not 0.0 < p < 0.5:
        raise InfeasiblePlanError(f"p must lie in (0, 1/2), got {p}")
    if epsilon < 0.0:
        raise InfeasiblePlanError("epsilon must be >= 0")
    target_r1 = 1.0 - binary_entropy(w_budget) + epsilon / 2.0
    target_r2 = 1.0 - binary_entropy(p) - epsilon / 2.0
    analytic = binary_entropy(w_budget) - binary_entropy(p)
    return _integerize("ccsi", n, m, target_r1, target_r2, epsilon, analytic,
                       source_is_r1=False, noise_p=p, weight_budget=w_budget,
                       k1=k1, k2=k2)


def override_plan_counts(plan: RatePlan, k1: int | None = None,
                         k2: int | None = None) -> RatePlan:
    """Desk-scale override: keep the plan's targets but force the (k1, k2) split.

    Useful when the exhaustive codecs need dimensions far smaller than the
    rate targets would dictate; the residual ``gap_trans`` is recomputed so
    the distance to the analytic rate stays visible.
    """
    from dataclasses import replace

    k1 = plan.k1 if k1 is None else k1
    k2 = plan.k2 if k2 is None else k2
    if k1 < 0 or k2 < 0 or k1 + k2 > plan.m:
        raise InfeasiblePlanError(f"invalid split k1={k1}, k2={k2} for m={plan.m}")
    a, b = plan.m - k1, plan.m - k1 - k2
    r_hi, r_lo = a / plan.n, b / plan.n
    r1, r2 = (r_hi, r_lo) if plan.mode == "scsi" else (r_lo, r_hi)
    return replace(plan, k1=k1, k2=k2, r1=r1, r2=r2, r_trans=k2 / plan.n,
                   gap_trans=abs(k2 / plan.n - plan.target_r_trans))


def _integerize(mode, n, m, target_r1, target_r2, epsilon, analytic,
                source_is_r1, noise_p, distortion_D=None, weight_budget=None,
                k1=None, k2=None):
    m = n if m is None else m
    if source_is_r1:  # scsi: r1 >= r2
        hi, lo = target_r1, target_r2
    else:             # ccsi: r2 >= r1
        hi, lo = target_r2, target_r1
    if (k1 is None) != (k2 is None):
        raise InfeasiblePlanError("pass k1 and k2 together or not at all")
    if k1 is not None:
        if k1 < 0 or k2 < 0 or k1 + k2 > m:
            raise InfeasiblePlanError(f"invalid split k1={k1}, k2={k2} for m={m}")
        a, b = m - k1, m - k1 - k2
    else:
        a = round(n * hi)             # m - k1
        b = max(round(n * lo), 0)     # m - k1 - k2; a negative rate target
        k2 = a - b                    # means "send everything", i.e. rate 0
        if k2 < 0:
            raise InfeasiblePlanError(
                f"negative k2: rounded rate targets violate "
                f"{'r2 <= r1' if source_is_r1 else 'r1 <= r2'} "
                f"({lo:.6f} > {hi:.6f} at n = {n})")
        k1 = m - a
        if k1 < 0:
            raise InfeasiblePlanError(
                f"k1 = m - {a} negative; increase m (need m >= {a})")
    r_hi, r_lo = a / n, b / n
    r1, r2 = (r_hi, r_lo) if source_is_r1 else (r_lo, r_hi)
    r_trans = k2 / n
    # The +/-eps/2 slacks widen the scsi gap but narrow the ccsi one:
    # the transmitted rate approaches the analytic branch from above for
    # scsi and from below for ccsi.
    target_trans = analytic + (epsilon if source_is_r1 else -epsilon)
    return RatePlan(mode=mode, n=n, m=m, k1=k1, k2=k2, r1=r1, r2=r2,
                    r_trans=r_trans, epsilon=epsilon,
                    target_r1=target_r1, target_r2=target_r2,
                    analytic_gap=analytic,
                    target_r_trans=target_trans,
                    gap_trans=abs(r_trans - target_trans),
                    noise_p=noise_p, distortion_D=distortion_D,
                    weight_budget=weight_budget)


# ---------------------------------------------------------------------------
# pipeline traces


@dataclass
class PipelineTrace:
    """Every intermediate vector and flag of one pipeline run."""

    mode: str
    status: str                    # decoded | erasure | infeasible_message
    source: BitVector
    quantized: BitVector | None
    info_word: BitVector | None
    syndrome: BitVector | None     # transmitted bits (scsi) / message (ccsi)
    noise: BitVector | None
    received: BitVector | None
    decoded_x: BitVector | None
    decoded_y: BitVector | None
    message_out: BitVector | None
    recovered: bool
    quant_distortion: float | None
    end_distortion: float | None
    channel_weight: float | None
    violations: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        def bits(v):
            return v.to_string() if v is not None else None

        return {
            "mode": self.mode, "status": self.status,
            "source": bits(self.source), "quantized": bits(self.quantized),
            "info_word": bits(self.info_word), "syndrome": bits(self.syndrome),
            "noise": bits(self.noise), "received": bits(self.received),
            "decoded_x": bits(self.decoded_x), "decoded_y": bits(self.decoded_y),
            "message_out": bits(self.message_out), "recovered": self.recovered,
            "quant_distortion": self.quant_distortion,
            "end_distortion": self.end_distortion,
            "channel_weight": self.channel_weight,
            "violations": list(self.violations),
        }


def _check_plan(code: CompoundCode, plan: RatePlan) -> None:
    if (code.n, code.m, code.k1, code.k2) != (plan.n, plan.m, plan.k1, plan.k2):
        raise ValueError(
            f"code partition (n={code.n}, m={code.m}, k1={code.k1}, k2={code.k2}) "
            f"does not match plan (n={plan.n}, m={plan.m}, k1={plan.k1}, k2={plan.k2})")


def _decode(code, v, p, decoder, constraint):
    if decoder == "ml":
        return channel_decode_ml(code, v, constraint)
    if decoder == "threshold":
        return channel_decode_threshold(code, v, p, constraint=constraint)
    raise ValueError(f"unknown decoder {decoder!r}")


def run_scsi(code: CompoundCode, plan: RatePlan, s: BitVector,
             rng: np.random.Generator, decoder: str = "ml") -> PipelineTrace:
    """One source-coding-with-side-information round trip.

    Quantizes ``s`` against the H1-constrained code, transmits the H2
    syndrome, then decodes the quantized word from the noisy side information
    inside the syndrome-selected coset.  Algebraic identities are re-checked
    on the actual vectors and recorded as violations if they fail.
    """
    _check_plan(code, plan)
    if plan.mode != "scsi":
        raise ValueError("plan mode must be 'scsi'")
    enc = source_encode_exhaustive(code, s, "h1")
    syndrome = matvec(code.H2, enc.y_hat)
    e = s ^ enc.x_hat
    noise = random_bitvector(code.n, rng, plan.noise_p)
    z = s ^ noise
    coset = coset_from_solution(code, enc.y_hat)
    dec = _decode(code, z, plan.noise_p, decoder, coset)

    violations = []
    if matvec(code.H1, enc.y_hat).weight() != 0:
        violations.append("encoder info word violates H1 y = 0")
    if (z ^ enc.x_hat) != (e ^ noise):
        violations.append("side information identity z = s-hat + e + noise failed")
    recovered = False
    end_distortion = None
    if dec.status == "decoded":
        if matvec(code.H2, dec.y_hat) != syndrome:
            violations.append("decoded word violates transmitted syndrome")
        if matvec(code.H1, dec.y_hat).weight() != 0:
            violations.append("decoded word violates H1 y = 0")
        recovered = dec.x_hat == enc.x_hat
        end_distortion = (dec.x_hat ^ s).weight() / code.n

    return PipelineTrace(
        mode="scsi", status=dec.status, source=s, quantized=enc.x_hat,
        info_word=enc.y_hat, syndrome=syndrome, noise=noise, received=z,
        decoded_x=dec.x_hat, decoded_y=dec.y_hat, message_out=None,
        recovered=recovered, quant_distortion=enc.distortion,
        end_distortion=end_distortion,
        channel_weight=e.weight() / code.n, violations=violations)


def run_ccsi(code: CompoundCode, plan: RatePlan, message: BitVector,
             host_s: BitVector, rng: np.random.Generator,
             decoder: str = "ml") -> PipelineTrace:
    """One information-embedding round trip.

    The message selects a coset; the host signal is quantized inside it and
    the quantization error is the (weight-constrained) channel input.  An
    infeasible coset is reported as a planning failure, not a decode error.
    """
    _check_plan(code, plan)
    if plan.mode != "ccsi":
        raise ValueError("plan mode must be 'ccsi'")
    coset = coset_code(code, message)
    if not coset.feasible:
        return PipelineTrace(
            mode="ccsi", status="infeasible_message", source=host_s,
            quantized=None, info_word=None, syndrome=message, noise=None,
            received=None, decoded_x=None, decoded_y=None, message_out=None,
            recovered=False, quant_distortion=None, end_distortion=None,
            channel_weight=None)
    enc = source_encode_exhaustive(code, host_s, coset)
    e = host_s ^ enc.x_hat
    noise = random_bitvector(code.n, rng, plan.noise_p)
    z = enc.x_hat ^ noise
    dec = _decode(code, z, plan.noise_p, decoder, "h1")

    violations = []
    if matvec(code.H2, enc.y_hat) != message:
        violations.append("encoder info word does not carry the message syndrome")
    if matvec(code.H1, enc.y_hat).weight() != 0:
        violations.append("encoder info word violates H1 y = 0")
    if (e ^ host_s ^ noise) != z:
        violations.append("channel identity z = e + host + noise failed")
    recovered = False
    m_hat = None
    if dec.status == "decoded":
        m_hat = matvec(code.H2, dec.y_hat)
        recovered = m_hat == message

    return PipelineTrace(
        mode="ccsi", status=dec.status, source=host_s, quantized=enc.x_hat,
        info_word=enc.y_hat, syndrome=message, noise=noise, received=z,
        decoded_x=dec.x_hat, decoded_y=dec.y_hat, message_out=m_hat,
        recovered=recovered, quant_distortion=enc.distortion,
        end_distortion=None, channel_weight=e.weight() / code.n,
        violations=violations)


# ---------------------------------------------------------------------------
# trial batches


@dataclass
class BatchSummary:
    """Aggregate statistics of a pipeline trial batch."""

    mode: str
    trials: int
    decoded: int
    erasures: int
    infeasible: int
    recovered: int
    recovery_rate: float
    recovery_se: float
    mean_quant_distortion: float
    mean_end_distortion: float | None
    mean_channel_weight: float
    violation_count: int
    rows: list = field(default_factory=list)  # (trial, recovered, distortion, channel_weight)

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "rows"}


def _summarize(mode: str, traces: list[PipelineTrace]) -> BatchSummary:
    trials = len(traces)
    decoded = sum(t.status == "decoded" for t in traces)
    erasures = sum(t.status == "erasure" for t in traces)
    infeasible = sum(t.status == "infeasible_message" for t in traces)
    recovered = sum(t.recovered for t in traces)
    rate = recovered / trials if trials else 0.0
    se = math.sqrt(rate * (1.0 - rate) / trials) if trials else 0.0
    quant = [t.quant_distortion for t in traces if t.quant_distortion is not None]
    end = [t.end_distortion for t in traces if t.end_distortion is not None]
    chan = [t.channel_weight for t in traces if t.channel_weight is not None]
    rows = []
    for i, t in enumerate(traces):
        dist = t.end_distortion if mode == "scsi" else t.quant_distortion
        rows.append((i, int(t.recovered),
                     dist if dist is not None else math.nan,
                     t.channel_weight if t.channel_weight is not None else math.nan))
    return BatchSummary(
        mode=mode, trials=trials, decoded=decoded, erasures=erasures,
        infeasible=infeasible, recovered=recovered, recovery_rate=rate,
        recovery_se=se,
        mean_quant_distortion=float(np.mean(quant)) if quant else math.nan,
        mean_end_distortion=float(np.mean(end)) if end else None,
        mean_channel_weight=float(np.mean(chan)) if chan else math.nan,
        violation_count=sum(len(t.violations) for t in traces),
        rows=rows)


def run_trial_batch(worker, trials: int, threads: int) -> list:
    """``[worker(i) for i in range(trials)]``; ``threads`` is ignored (manifests keep it)."""
    return [worker(i) for i in range(trials)]


def simulate_scsi(code: CompoundCode, plan: RatePlan, trials: int,
                  master_seed: int, decoder: str = "ml",
                  threads: int = 1) -> tuple[BatchSummary, list[PipelineTrace]]:
    """Batch of SCSI trials with per-trial substreams (source, then noise)."""

    def worker(i: int) -> PipelineTrace:
        rng = trial_rng(master_seed, i)
        s = random_bitvector(code.n, rng)
        return run_scsi(code, plan, s, rng, decoder)

    traces = run_trial_batch(worker, trials, threads)
    return _summarize("scsi", traces), traces


def simulate_ccsi(code: CompoundCode, plan: RatePlan, trials: int,
                  master_seed: int, decoder: str = "ml",
                  threads: int = 1) -> tuple[BatchSummary, list[PipelineTrace]]:
    """Batch of CCSI trials (message, then host, then noise per substream)."""

    def worker(i: int) -> PipelineTrace:
        rng = trial_rng(master_seed, i)
        message = random_bitvector(code.k2, rng)
        host = random_bitvector(code.n, rng)
        return run_ccsi(code, plan, message, host, rng, decoder)

    traces = run_trial_batch(worker, trials, threads)
    return _summarize("ccsi", traces), traces
