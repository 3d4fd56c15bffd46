"""Command-line surface: sampling, bound curves, simulations, verify suites.

Every command that writes files also writes ``<prefix>_manifest.json``
recording the subcommand, the full parameter set, the master seed, the tool
version, and a SHA-256 digest of each output file.  ``replay`` re-runs a
manifest under a fresh prefix and checks that the digests match, which is
the reproducibility contract.

Exit codes: 0 success, 2 invalid parameters, 3 resource cap exceeded,
4 verification failure (1 is reserved for I/O errors).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis
from .codec import (
    EnumerationCapError,
    channel_decode_ml,
    channel_decode_threshold,
    moment_experiment,
    source_encode_exhaustive,
)
from .ensembles import (
    CompoundCode,
    EnsembleParams,
    assemble,
    random_bitvector,
    save_code,
    trial_rng,
)
from .gf2 import BitVector, matvec
from .sideinfo import (
    InfeasiblePlanError,
    plan_rates_ccsi,
    plan_rates_scsi,
    run_trial_batch,
    simulate_ccsi,
    simulate_scsi,
)

EXIT_OK = 0
EXIT_BAD_PARAMS = 2
EXIT_RESOURCE_CAP = 3
EXIT_VERIFY_FAILED = 4


class VerificationFailure(RuntimeError):
    def __init__(self, message: str, checks: list | None = None):
        super().__init__(message)
        self.checks = checks or []


def _sig12(x: float) -> float:
    """Round to 12 significant digits (output stability policy)."""
    if x is None or isinstance(x, bool):
        return x
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            return x
        return float(f"{x:.11e}")
    return x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return _sig12(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(prefix: Path, subcommand: str, params: dict,
                    outputs: list[Path]) -> Path:
    manifest = {
        "tool": "compoundcode",
        "version": __version__,
        "subcommand": subcommand,
        "seed": params.get("seed"),
        "params": {k: v for k, v in params.items()
                   if k not in ("func", "out", "json")},
        "out_basename": prefix.name,
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    path = prefix.parent / f"{prefix.name}_manifest.json"
    return _write_json(path, manifest)


def _emit(ns, payload: dict, lines: list[str]) -> None:
    """Print either human-readable lines or one JSON object (--json)."""
    if getattr(ns, "json", False):
        print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _prefix(ns) -> Path:
    prefix = Path(ns.out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return prefix


# ---------------------------------------------------------------------------
# sample


def cmd_sample(ns) -> int:
    params = EnsembleParams(n=ns.n, m=ns.m, k=ns.k, d_top=ns.d_top,
                            dv=ns.dv, dc_prime=ns.dc_prime, seed=ns.seed)
    k1 = ns.k if ns.k1 is None else ns.k1
    code = assemble(params, k1=k1)
    prefix = _prefix(ns)
    code_path = prefix.parent / f"{prefix.name}_code.json"
    save_code(code, code_path)
    r = code.rates
    rates = {"r_G": r.r_G, "r_H": r.r_H, "nominal": r.nominal,
             "effective": r.effective}
    _emit(ns, {"n": code.n, "m": code.m, "k": code.k, "k1": code.k1,
               "k2": code.k2, "rates": rates},
          [f"sampled compound code n={code.n} m={code.m} k={code.k} "
           f"k1={code.k1} k2={code.k2}",
           f"rates: r_G={_sig12(r.r_G)} r_H={_sig12(r.r_H)} "
           f"nominal={_sig12(r.nominal)} effective={_sig12(r.effective)}"])
    _write_manifest(prefix, "sample", vars(ns), [code_path])
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds


def cmd_bounds_rd(ns) -> int:
    prefix = _prefix(ns)
    outputs = []
    compound = analysis.rd_bound_curve(ns.distortion, ns.d_top, ns.dv,
                                       ns.dc_prime, grid=ns.grid)
    uncoded = analysis.rd_bound_curve(ns.distortion, ns.d_top, None, None,
                                      grid=ns.grid)
    for name, curve in (("compound", compound), ("uncoded", uncoded)):
        p = prefix.parent / f"{prefix.name}_{name}.csv"
        curve.write_csv(p)
        outputs.extend([p, p.with_name(p.stem + ".meta.json")])
    bound = analysis.rd_min_rate(ns.distortion, ns.d_top, ns.dv, ns.dc_prime,
                                 grid=ns.grid)
    bound_unc = analysis.rd_min_rate(ns.distortion, ns.d_top, grid=ns.grid)
    _emit(ns, {"compound_max_rate": bound.min_rate,
               "compound_argmax_w": bound.argmax_w,
               "uncoded_max_rate": bound_unc.min_rate,
               "uncoded_argmax_w": bound_unc.argmax_w,
               "shannon": bound.shannon},
          [f"compound max rate = {_sig12(bound.min_rate)} at w = {_sig12(bound.argmax_w)}",
           f"uncoded  max rate = {_sig12(bound_unc.min_rate)} at w = {_sig12(bound_unc.argmax_w)}",
           f"shannon reference 1-h(D) = {_sig12(bound.shannon)}"])
    _write_manifest(prefix, "bounds.rd", vars(ns), outputs)
    return EXIT_OK


def cmd_bounds_overlap(ns) -> int:
    prefix = _prefix(ns)
    degrees = [int(t) for t in ns.d_top.split(",")]
    outputs = []
    payload = {"reference": -(1 - analysis.binary_entropy(ns.distortion)),
               "curves": {}}
    lines = []
    for d in degrees:
        curve = analysis.overlap_curve(ns.distortion, d, grid=ns.grid)
        p = prefix.parent / f"{prefix.name}_d{d}.csv"
        curve.write_csv(p)
        outputs.extend([p, p.with_name(p.stem + ".meta.json")])
        payload["curves"][str(d)] = {"at_zero": float(curve.values[0]),
                                     "at_half": float(curve.values[-1])}
        lines.append(f"d_top={d}: value at w=0 is {_sig12(curve.values[0])}, "
                     f"at w=1/2 is {_sig12(curve.values[-1])}")
    lines.append(f"reference -(1-h(D)) = {_sig12(payload['reference'])}")
    _emit(ns, payload, lines)
    _write_manifest(prefix, "bounds.overlap", vars(ns), outputs)
    return EXIT_OK


def cmd_bounds_enum(ns) -> int:
    prefix = _prefix(ns)
    outputs = []
    payload = {"curves": {}}
    lines = []
    for pair in ns.pairs.split(","):
        dv, dc = (int(t) for t in pair.split(":"))
        curve = analysis.enum_curve(dv, dc, grid=ns.grid)
        p = prefix.parent / f"{prefix.name}_dv{dv}dc{dc}.csv"
        curve.write_csv(p)
        outputs.extend([p, p.with_name(p.stem + ".meta.json")])
        peak = float(np.max(curve.values))
        payload["curves"][f"{dv}:{dc}"] = {
            "rate": analysis.ldpc_rate(dv, dc), "peak": peak}
        lines.append(f"(dv={dv}, dc'={dc}): rate = "
                     f"{_sig12(analysis.ldpc_rate(dv, dc))}, "
                     f"peak B(1/2) = {_sig12(peak)}")
    _emit(ns, payload, lines)
    _write_manifest(prefix, "bounds.enum", vars(ns), outputs)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def _build_code(ns) -> CompoundCode:
    params = EnsembleParams(n=ns.n, m=ns.m, k=ns.k, d_top=ns.d_top,
                            dv=ns.dv, dc_prime=ns.dc_prime, seed=ns.seed)
    k1 = ns.k if getattr(ns, "k1", None) is None else ns.k1
    return assemble(params, k1=k1)


def _write_rows_csv(path: Path, header: str, rows) -> Path:
    lines = [header]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append("" if math.isnan(cell) else f"{cell:.11e}")
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


def cmd_simulate_rd(ns) -> int:
    code = _build_code(ns)

    def worker(i: int):
        rng = trial_rng(ns.seed, i)
        s = random_bitvector(code.n, rng)
        enc = source_encode_exhaustive(code, s, "h1")
        return (i, enc.distortion)

    rows = run_trial_batch(worker, ns.trials, ns.threads)
    dists = np.array([r[1] for r in rows]) if rows else np.zeros(0)
    summary = {
        "kind": "rd", "trials": ns.trials,
        "mean_distortion": float(dists.mean()) if rows else None,
        "se_distortion": float(dists.std(ddof=1) / math.sqrt(len(dists)))
        if len(dists) > 1 else None,
        "rate_nominal": code.rates.nominal,
        "rate_effective": code.rates.effective,
    }
    prefix = _prefix(ns)
    outputs = [
        _write_json(prefix.parent / f"{prefix.name}_summary.json", summary),
        _write_rows_csv(prefix.parent / f"{prefix.name}_trials.csv",
                        "trial,distortion", rows),
    ]
    _emit(ns, summary,
          [f"rd: {ns.trials} trials, mean distortion = "
           f"{_sig12(summary['mean_distortion'])}" if rows
           else "rd: 0 trials, empty summary"])
    _write_manifest(prefix, "simulate.rd", vars(ns), outputs)
    return EXIT_OK


def cmd_simulate_channel(ns) -> int:
    code = _build_code(ns)
    basis = code.null_basis_H

    def worker(i: int):
        rng = trial_rng(ns.seed, i)
        y = BitVector.zeros(code.m)
        picks = rng.integers(0, 2, size=len(basis))
        for b, bit in zip(basis, picks):
            if bit:
                y = y ^ b
        x = matvec(code.G, y)
        noise = random_bitvector(code.n, rng, ns.p)
        v = x ^ noise
        ml = channel_decode_ml(code, v)
        thr = channel_decode_threshold(code, v, ns.p)
        ml_ok = ml.x_hat == x
        thr_ok = thr.status == "decoded" and thr.x_hat == x
        return (i, int(ml_ok), thr.status, int(thr_ok))

    rows = run_trial_batch(worker, ns.trials, ns.threads)
    n_tr = max(len(rows), 1)

    def rate_and_se(count):
        rate = count / n_tr
        return rate, math.sqrt(rate * (1.0 - rate) / n_tr)

    ml_err, ml_se = rate_and_se(sum(1 - r[1] for r in rows))
    thr_eras, eras_se = rate_and_se(sum(r[2] == "erasure" for r in rows))
    thr_err, thr_se = rate_and_se(
        sum(r[2] == "decoded" and not r[3] for r in rows))
    summary = {
        "kind": "channel", "trials": ns.trials, "p": ns.p,
        "ml_error_rate": ml_err if rows else None,
        "ml_error_se": ml_se if rows else None,
        "threshold_error_rate": thr_err if rows else None,
        "threshold_error_se": thr_se if rows else None,
        "threshold_erasure_rate": thr_eras if rows else None,
        "threshold_erasure_se": eras_se if rows else None,
    }
    prefix = _prefix(ns)
    outputs = [
        _write_json(prefix.parent / f"{prefix.name}_summary.json", summary),
        _write_rows_csv(prefix.parent / f"{prefix.name}_trials.csv",
                        "trial,ml_ok,threshold_status,threshold_ok", rows),
    ]
    _emit(ns, summary,
          [f"channel: ml error {_sig12(ml_err)}, threshold error "
           f"{_sig12(thr_err)}, erasure {_sig12(thr_eras)}" if rows
           else "channel: 0 trials"])
    _write_manifest(prefix, "simulate.channel", vars(ns), outputs)
    return EXIT_OK


def _simulate_sideinfo(ns, mode: str) -> int:
    if mode == "scsi":
        plan = plan_rates_scsi(ns.distortion, ns.p, ns.epsilon, ns.n,
                               m=ns.m, k1=ns.k1, k2=ns.k2)
    else:
        plan = plan_rates_ccsi(ns.weight_budget, ns.p, ns.epsilon, ns.n,
                               m=ns.m, k1=ns.k1, k2=ns.k2)
    k = plan.k1 + plan.k2
    params = EnsembleParams(n=ns.n, m=plan.m, k=k, d_top=ns.d_top,
                            dv=ns.dv, dc_prime=ns.dc_prime, seed=ns.seed)
    code = assemble(params, k1=plan.k1)
    sim = simulate_scsi if mode == "scsi" else simulate_ccsi
    summary, traces = sim(code, plan, ns.trials, ns.seed,
                          decoder=ns.decoder, threads=ns.threads)
    payload = {"kind": mode, "plan": plan.to_dict(), "summary": summary.to_dict()}
    prefix = _prefix(ns)
    outputs = [
        _write_json(prefix.parent / f"{prefix.name}_summary.json", payload),
        _write_rows_csv(prefix.parent / f"{prefix.name}_trials.csv",
                        "trial,recovered,distortion,channel_weight",
                        summary.rows),
    ]
    if ns.dump_traces:
        outputs.append(_write_json(prefix.parent / f"{prefix.name}_traces.json",
                                   [t.to_dict() for t in traces]))
    _emit(ns, payload,
          [f"{mode}: {summary.trials} trials, recovery rate "
           f"{_sig12(summary.recovery_rate)} +- {_sig12(summary.recovery_se)}, "
           f"violations {summary.violation_count}" if summary.trials
           else f"{mode}: 0 trials, empty summary"])
    _write_manifest(prefix, f"simulate.{mode}", vars(ns), outputs)
    return EXIT_OK


def cmd_simulate_scsi(ns) -> int:
    return _simulate_sideinfo(ns, "scsi")


def cmd_simulate_ccsi(ns) -> int:
    return _simulate_sideinfo(ns, "ccsi")


# ---------------------------------------------------------------------------
# verify


def _check(lines: list, name: str, ok: bool, detail: str) -> bool:
    lines.append({"name": name, "passed": ok, "detail": detail})
    return ok


def _verify_exponents(seed: int) -> list[dict]:
    lines = []
    ok = True
    for D in (0.05, 0.11, 0.25, 0.316):
        f_half = analysis.overlap_exponent_F(0.5, D)
        target = -(1.0 - analysis.binary_entropy(D))
        ok &= _check(lines, f"F(1/2;{D}) sentinel", abs(f_half - target) < 1e-10,
                     f"F={f_half:.12f} target={target:.12f} "
                     f"margin={abs(f_half - target):.2e}")
        ok &= _check(lines, f"F(0;{D})", analysis.overlap_exponent_F(0.0, D) == 0.0,
                     "continuous extension at zero")
    worst = 0.0
    worst_val = 0.0
    for D in (0.05, 0.11, 0.25, 0.316):
        for t in np.linspace(0.025, 0.5, 20):
            closed = analysis.overlap_lambda_star(float(t), D)
            numeric = analysis.overlap_lambda_numeric(float(t), D)
            worst = max(worst, abs(closed.lambda_star - numeric))
            golden = analysis.overlap_exponent_numeric(float(t), D)
            worst_val = max(worst_val, abs(closed.value_nats / analysis.LN2 - golden))
    ok &= _check(lines, "lambda* closed vs numeric (20x4 grid)", worst < 1e-8,
                 f"max deviation {worst:.2e}")
    ok &= _check(lines, "F closed vs golden-section minimum (20x4 grid)",
                 worst_val < 1e-8, f"max deviation {worst_val:.2e}")
    for dv, dc in ((3, 6), (4, 8), (5, 10)):
        b_half = analysis.ldpc_enum_bound_B(0.5, dv, dc)
        target = analysis.ldpc_rate(dv, dc)
        ok &= _check(lines, f"B(1/2;{dv},{dc})", abs(b_half - target) < 1e-10,
                     f"B={b_half:.12f} target={target}")
    ws = np.linspace(0.0, 1.0, 500)
    sym = max(abs(analysis.ldpc_enum_bound_B(float(w), 3, 6)
                  - analysis.ldpc_enum_bound_B(float(1.0 - w), 3, 6)) for w in ws)
    ok &= _check(lines, "B symmetry (500 grid)", sym < 1e-10, f"max asymmetry {sym:.2e}")
    neg = max(analysis.ldpc_enum_bound_B(float(w), 3, 6)
              for w in np.linspace(1e-4, 0.02, 50))
    ok &= _check(lines, "B(3,6) < 0 on (0, 0.02]", neg < 0.0, f"max value {neg:.2e}")
    if not ok:
        raise VerificationFailure("exponents suite failed", lines)
    return lines


def _verify_derivatives(seed: int) -> list[dict]:
    lines = []
    ok = True
    for chk in analysis.derivative_checks():
        detail = (f"value={chk.value:.6e} ref={chk.reference:.6e} "
                  f"tol={chk.tolerance:g}{' (rel)' if chk.relative else ''}")
        ok &= _check(lines, chk.name, chk.passed, detail)
    if not ok:
        raise VerificationFailure("derivative suite failed", lines)
    return lines


def _verify_moments(seed: int) -> list[dict]:
    lines = []
    params = EnsembleParams(n=20, m=10, k=5, d_top=3, dv=3, dc_prime=6, seed=seed)
    est = moment_experiment(params, D=0.2, trials=10_000, master_seed=seed)
    ok = _check(lines, "second-moment decomposition",
                est.within_se(3.0),
                f"E[T^2]={est.mean_T_squared:.5f} rhs={est.decomposition_rhs:.5f} "
                f"diff={est.diff:.5f} (3se={3 * est.se_diff:.5f})")
    ok &= _check(lines, "moment ordering",
                 est.mean_T_squared >= est.mean_T ** 2,
                 f"E[T^2]={est.mean_T_squared:.5f} >= (E[T])^2={est.mean_T ** 2:.5f}")
    if not ok:
        raise VerificationFailure("moment suite failed", lines)
    return lines


def _verify_overlap(seed: int) -> list[dict]:
    lines = []
    w, D, d = 0.3, 0.11, 4
    ref = analysis.overlap_exponent_F(analysis.delta_fun(w, d), D) * analysis.LN2
    prev = None
    ok = True
    for n in (100, 200, 400, 800):
        gap = abs(analysis.exact_overlap_log_prob(n, w, D, d) - ref)
        shrinking = prev is None or gap < prev
        ok &= _check(lines, f"overlap gap n={n}", shrinking,
                     f"|gap|={gap:.6f} nats")
        prev = gap
    ok &= _check(lines, "final gap < 0.02 nats", prev < 0.02, f"|gap|={prev:.6f}")
    if not ok:
        raise VerificationFailure("overlap suite failed", lines)
    return lines


def _verify_partition(seed: int) -> list[dict]:
    from .ensembles import new_rng, sample_ldgm
    lines = []
    # Shape fixed by the partition check: m=12, k1=4, k2=3.  A regular
    # ensemble cannot realize k=7 checks on m=12 bits, so H is drawn as
    # sparse random rows; the partition property is pure linear algebra and
    # does not depend on how H was sampled.
    rng = new_rng(seed)
    G = sample_ldgm(16, 12, 3, rng)
    H = sample_ldgm(7, 12, 3, rng)
    code = CompoundCode(G, H, k1=4)
    ok = _run_partition_check(lines, code)
    if not ok:
        raise VerificationFailure("partition suite failed", lines)
    return lines


def _run_partition_check(lines: list[dict], code: CompoundCode) -> bool:
    from itertools import product

    from .codec import _span_blocks
    from .ensembles import coset_code

    def rows(y0, basis):
        return np.concatenate(list(_span_blocks(y0, basis)), axis=1).T

    # Every H1-null word next to its H2 syndrome, both in the same Gray order.
    basis = code.null_basis_H1
    words = rows(BitVector.zeros(code.m), basis)
    syndromes = rows(BitVector.zeros(code.k2), [matvec(code.H2, b) for b in basis])
    ok = True
    covered = 0
    feasible = 0
    for bits in product((0, 1), repeat=code.k2):
        m_bits = BitVector.from_bits(bits)
        in_group = (syndromes == m_bits._words).all(axis=1)
        coset = coset_code(code, m_bits)
        if not coset.feasible:
            ok &= _check(lines, f"syndrome {m_bits.to_string()}",
                         not in_group.any(),
                         "infeasible and absent from enumeration")
            continue
        feasible += 1
        members = np.unique(rows(coset.y0, coset.basis), axis=0)
        ok &= _check(lines, f"coset {m_bits.to_string()}",
                     np.array_equal(members, np.unique(words[in_group], axis=0)),
                     f"{len(members)} members match enumeration")
        covered += len(members)
    ok &= _check(lines, "disjoint union covers null(H1)", covered == len(words),
                 f"{covered} coset members vs {len(words)} H1-null vectors "
                 f"({feasible} feasible syndromes)")
    return ok


_VERIFY_SUITES = {
    "exponents": _verify_exponents,
    "derivatives": _verify_derivatives,
    "moments": _verify_moments,
    "overlap": _verify_overlap,
    "partition": _verify_partition,
}


def cmd_verify(ns) -> int:
    suite = _VERIFY_SUITES[ns.suite]
    failed = None
    try:
        checks = suite(ns.seed)
    except VerificationFailure as exc:
        checks = exc.checks
        failed = str(exc)
    if getattr(ns, "json", False):
        print(json.dumps(_jsonable({"suite": ns.suite, "seed": ns.seed,
                                    "passed": failed is None,
                                    "checks": checks}),
                         indent=2, sort_keys=True))
    else:
        for chk in checks:
            print(f"{'PASS' if chk['passed'] else 'FAIL'} "
                  f"{chk['name']}: {chk['detail']}")
    if failed is not None:
        print(f"verification failed: {failed}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# replay


def cmd_replay(ns) -> int:
    manifest = json.loads(Path(ns.manifest).read_text())
    try:
        handler, parser_defaults = _REPLAYABLE[manifest["subcommand"]]
        params, old_base = dict(manifest["params"]), manifest["out_basename"]
        digests = manifest["outputs"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"cannot replay {ns.manifest}: no replayable subcommand, "
                         f"params, out_basename and outputs ({exc!r})") from None
    out_prefix = ns.out if ns.out else str(Path(ns.manifest).parent / "replay")
    params["out"] = out_prefix
    namespace = argparse.Namespace(**{**parser_defaults, **params})
    rc = handler(namespace)
    if rc != EXIT_OK:
        return rc
    new_base = Path(out_prefix).name
    all_ok = True
    for name, digest in digests.items():
        new_name = new_base + name[len(old_base):]
        new_path = Path(out_prefix).parent / new_name
        ok = new_path.exists() and _sha256(new_path) == digest
        all_ok &= ok
        print(f"{'MATCH' if ok else 'MISMATCH'} {name} -> {new_name}")
    if not all_ok:
        print("replay failed: outputs differ from manifest", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("replay ok: all digests match")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_code_args(p, n=24, m=16, k=8, d_top=4, dv=3, dc=6):
    p.add_argument("--n", type=int, default=n)
    p.add_argument("--m", type=int, default=m)
    p.add_argument("--k", type=int, default=k)
    p.add_argument("--k1", type=int, default=None)
    p.add_argument("--d-top", dest="d_top", type=int, default=d_top)
    p.add_argument("--dv", type=int, default=dv)
    p.add_argument("--dc-prime", dest="dc_prime", type=int, default=dc)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compoundcode",
        description="Compound LDGM/LDPC codes: sampling, bounds, simulation, verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample and serialize a compound code")
    _add_code_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    bounds = sub.add_parser("bounds", help="write bound/exponent curves as CSV")
    bsub = bounds.add_subparsers(dest="bounds_kind", required=True)

    p = bsub.add_parser("rd", help="rate-distortion achievability curves")
    p.add_argument("--distortion", type=float, default=0.11)
    p.add_argument("--d-top", dest="d_top", type=int, default=4)
    p.add_argument("--dv", type=int, default=3)
    p.add_argument("--dc-prime", dest="dc_prime", type=int, default=6)
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds_rd)

    p = bsub.add_parser("overlap", help="overlap-probability exponent curves")
    p.add_argument("--distortion", type=float, default=0.11)
    p.add_argument("--d-top", dest="d_top", default="3,4,5",
                   help="comma-separated top degrees")
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds_overlap)

    p = bsub.add_parser("enum", help="LDPC weight-enumerator bound curves")
    p.add_argument("--pairs", default="3:6,4:8,5:10",
                   help="comma-separated dv:dc' pairs")
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bounds_enum)

    sim = sub.add_parser("simulate", help="desk-scale Monte Carlo pipelines")
    ssub = sim.add_subparsers(dest="simulate_kind", required=True)

    p = ssub.add_parser("rd", help="exhaustive quantization of random sources")
    _add_code_args(p)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate_rd)

    p = ssub.add_parser("channel", help="paired ML/threshold decoding over a BSC")
    _add_code_args(p)
    p.add_argument("--p", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate_channel)

    # Desk-scale defaults keep m*dv = (k1+k2)*dc' consistent.
    for kind, k1_d, k2_d, dv_d, dc_d in (("scsi", 8, 4, 3, 4), ("ccsi", 6, 4, 5, 8)):
        p = ssub.add_parser(kind, help=f"{kind} end-to-end pipeline")
        p.add_argument("--n", type=int, default=24)
        p.add_argument("--m", type=int, default=16)
        p.add_argument("--k1", type=int, default=k1_d)
        p.add_argument("--k2", type=int, default=k2_d)
        p.add_argument("--d-top", dest="d_top", type=int, default=4)
        p.add_argument("--dv", type=int, default=dv_d)
        p.add_argument("--dc-prime", dest="dc_prime", type=int, default=dc_d)
        if kind == "scsi":
            p.add_argument("--distortion", type=float, default=0.11)
        else:
            p.add_argument("--weight-budget", dest="weight_budget",
                           type=float, default=0.25)
        p.add_argument("--p", type=float, default=0.03)
        p.add_argument("--epsilon", type=float, default=0.02)
        p.add_argument("--decoder", choices=("ml", "threshold"), default="ml")
        p.add_argument("--trials", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--dump-traces", dest="dump_traces", action="store_true")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_simulate_scsi if kind == "scsi" else cmd_simulate_ccsi)

    p = sub.add_parser("verify", help="run an invariant suite; nonzero exit on failure")
    p.add_argument("suite", choices=sorted(_VERIFY_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("replay", help="re-run a manifest and compare digests")
    p.add_argument("manifest")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_replay)

    return parser


# Replayable subcommands with the defaults their parsers would supply.
def _collect_defaults() -> dict:
    parser = build_parser()
    table = {}
    specs = {
        "sample": ["sample", "--out", "x"],
        "bounds.rd": ["bounds", "rd", "--out", "x"],
        "bounds.overlap": ["bounds", "overlap", "--out", "x"],
        "bounds.enum": ["bounds", "enum", "--out", "x"],
        "simulate.rd": ["simulate", "rd", "--out", "x"],
        "simulate.channel": ["simulate", "channel", "--out", "x"],
        "simulate.scsi": ["simulate", "scsi", "--out", "x"],
        "simulate.ccsi": ["simulate", "ccsi", "--out", "x"],
    }
    for name, argv in specs.items():
        ns = parser.parse_args(argv)
        defaults = {k: v for k, v in vars(ns).items() if k not in ("func", "out")}
        table[name] = (ns.func, defaults)
    return table


_REPLAYABLE = _collect_defaults()


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except (InfeasiblePlanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
