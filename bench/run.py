"""Benchmark for compoundcode: three workloads, pinned outputs, a traced run.

Run from the root of a checkout; the package is imported from ``src/`` and
nothing needs installing:

    python3 bench/run.py --workload quantize --seed 0 --seconds 30 --trace 0

Each workload is a fixed cycle of operations made from ``--seed``.  The run
repeats whole cycles until ``--seconds`` of operations have run, so every
run times the same mix.  The single-threaded workloads are pinned to one
CPU, and every operation and set-up probe is timed next to a fixed reference
computation (``calibrate.py``), so that their timings do not move with other
tenants of the machine.  Every operation's output is checked: at the
default seed against ``bench/pinned.json``, at any seed against its own
first run in this process and against the workload's invariants.  ``bench/README.md`` says why each workload exists and which
per-layer figure should move which end-to-end one.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes of one cycle and reports
the per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-pins`` runs one cycle at the default seed and records its outputs
in ``bench/pinned.json``; use it only when a workload definition changes.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibrate import REFERENCE_S, Calibrator
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pinned.json"
DEFAULT_SEED = 0
SETUP_PROBES = 7

# Operations are kept short (about 0.3 s), so that a run repeats each of them
# fifteen times or more.
# quantize: one long search (2^16 words) against one code per command.
QUANTIZE_CODE = ["--n", "32", "--m", "24", "--k", "8", "--d-top", "4",
                 "--dv", "3", "--dc-prime", "9"]
QUANTIZE_TRIALS = 1
QUANTIZE_COMMANDS = 3
# ensemble: the `verify moments` shape, a fresh code every trial.
MOMENT_SHAPE = dict(n=20, m=10, k=5, d_top=3, dv=3, dc_prime=6)
MOMENT_D = 0.2
MOMENT_TRIALS = 100
MOMENT_CALLS = 3
# pipelines: every side-information pipeline and decoder at the CLI
# defaults, with the trial counts spelled out so the size cannot drift.  The
# counts are below the CLI's 200 so that every command takes about as long.
PIPELINE_COMMANDS = [
    ["simulate", "channel", "--trials", "100"],
    ["simulate", "scsi", "--decoder", "ml", "--trials", "100", "--dump-traces"],
    ["simulate", "scsi", "--decoder", "threshold", "--trials", "100", "--dump-traces"],
    ["simulate", "ccsi", "--decoder", "ml", "--trials", "40", "--dump-traces"],
    ["simulate", "ccsi", "--decoder", "threshold", "--trials", "120", "--dump-traces"],
]
PIPELINE_THREADS = "2"
# Workloads that run on one thread, and so are pinned to one CPU and
# calibrated.  pipelines is not: pinning its two threads to one CPU would hide
# the cost of handing the interpreter lock between cores, and a one-core
# reference cannot follow a load spread over two.
CALIBRATED_WORKLOADS = ("quantize", "ensemble")


class BenchError(RuntimeError):
    """The benchmark cannot run or is inconsistent; exit 2 without a result."""


def import_package() -> types.SimpleNamespace:
    init = SRC / "compoundcode" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"package source {init} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import compoundcode
    from compoundcode import cli, codec, ensembles, gf2, sideinfo

    if Path(compoundcode.__file__).resolve() != init.resolve():
        raise BenchError(f"imported {compoundcode.__file__}, not {init}")
    return types.SimpleNamespace(package=compoundcode, gf2=gf2,
                                 ensembles=ensembles, codec=codec,
                                 sideinfo=sideinfo, cli=cli)


# ---------------------------------------------------------------------------
# operations


@dataclass
class Outcome:
    seconds: float
    signature: object = None       # compared against pins and repeats
    problems: list = field(default_factory=list)
    bytes_written: int = 0


def _sig12(x):
    return float(f"{x:.11e}") if isinstance(x, float) else x


class CliOp:
    """One ``cli.main`` command; its signature is the manifest's output digests."""

    def __init__(self, argv: list[str], trials: int):
        self.argv = argv
        self.trials = trials
        self.label = " ".join(argv)

    def run(self, pkg, workdir: Path) -> Outcome:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = pkg.cli.main(self.argv + ["--out", str(workdir / "op")])
        seconds = perf_counter() - t0
        if rc != 0:
            return Outcome(seconds, problems=[f"exit code {rc}"])
        manifest = json.loads((workdir / "op_manifest.json").read_text())
        summary = json.loads((workdir / "op_summary.json").read_text())
        problems = []
        violations = summary.get("summary", summary).get("violation_count", 0)
        if violations:
            problems.append(f"violation_count = {violations}")
        written = sum(p.stat().st_size for p in workdir.iterdir())
        return Outcome(seconds, manifest["outputs"], problems, written)


class MomentOp:
    """One ``codec.moment_experiment`` call; its signature is the estimate
    at 12 significant digits."""

    def __init__(self, master_seed: int, trials: int):
        self.master_seed = master_seed
        self.trials = trials
        self.label = (f"moment_experiment {MOMENT_SHAPE} D={MOMENT_D} "
                      f"trials={trials} master_seed={master_seed}")

    def run(self, pkg, workdir: Path) -> Outcome:
        params = pkg.ensembles.EnsembleParams(seed=self.master_seed, **MOMENT_SHAPE)
        t0 = perf_counter()
        est = pkg.codec.moment_experiment(params, MOMENT_D, self.trials,
                                          self.master_seed)
        seconds = perf_counter() - t0
        problems = []
        if not est.mean_T_squared >= est.mean_T ** 2:
            problems.append(f"E[T^2] = {est.mean_T_squared} < E[T]^2 = {est.mean_T ** 2}")
        return Outcome(seconds, {k: _sig12(v) for k, v in est.to_dict().items()},
                       problems)


def build_ops(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")

    def cli_seed() -> list[str]:
        return ["--seed", str(rng.randrange(1 << 31))]

    if workload == "quantize":
        return [CliOp(["simulate", "rd", *QUANTIZE_CODE, "--threads", "1",
                       "--trials", str(QUANTIZE_TRIALS), *cli_seed()],
                      QUANTIZE_TRIALS)
                for _ in range(QUANTIZE_COMMANDS)]
    if workload == "ensemble":
        return [MomentOp(rng.randrange(1 << 31), MOMENT_TRIALS)
                for _ in range(MOMENT_CALLS)]
    if workload == "pipelines":
        return [CliOp([*argv, "--threads", PIPELINE_THREADS, *cli_seed()],
                      int(argv[argv.index("--trials") + 1]))
                for argv in PIPELINE_COMMANDS]
    raise BenchError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checking


class Checker:
    """Compares each outcome with the pins (default seed) and with the first
    outcome of the same operation in this run; counts failed operations."""

    def __init__(self, pins: dict | None):
        self.pins = pins
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0

    def check(self, op, outcome: Outcome) -> None:
        problems = list(outcome.problems)
        if outcome.signature is not None:
            sig = json.loads(json.dumps(outcome.signature))
            if sig != self.first.setdefault(op.label, sig):
                problems.append("output differs from this operation's first run")
            if self.pins is not None and sig != self.pins[op.label]:
                problems.append("output differs from bench/pinned.json")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)


def load_pins(workload: str, ops: list) -> dict:
    try:
        pinned = json.loads(PINS_PATH.read_text())[workload]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no pins for {workload} in {PINS_PATH}: {exc!r}")
    if [p["op"] for p in pinned] != [op.label for op in ops]:
        raise BenchError(f"pins for {workload} do not match its operations; "
                         "rerun with --write-pins if the workload changed")
    return {p["op"]: p["expect"] for p in pinned}


def run_op(op, pkg, workdir: Path) -> Outcome:
    t0 = perf_counter()
    try:
        return op.run(pkg, workdir)
    except Exception as exc:  # one broken operation must not end the run
        traceback.print_exc()
        return Outcome(perf_counter() - t0, problems=[f"raised {exc!r}"])


def run_pass(ops, pkg, workdir, checker, tracer=None) -> list[Outcome]:
    outcomes = []
    for op in ops:
        outcome = run_op(op, pkg, workdir)
        checker.check(op, outcome)
        if tracer is not None:
            tracer.count("cli.bytes_written", outcome.bytes_written)
        outcomes.append(outcome)
    return outcomes


# ---------------------------------------------------------------------------
# tracing


def _search_dim(code, constraint) -> int:
    if isinstance(constraint, str):
        return len(code.null_basis_H if constraint == "full" else code.null_basis_H1)
    return len(constraint.basis)


def _search_hook(fn, extra=None):
    sig = inspect.signature(fn)

    def hook(tracer, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        tracer.count("codec.words_searched", 1 << _search_dim(a["code"], a["constraint"]))
        if extra is not None:
            extra(tracer, result)

    return hook


def _on_threshold(tracer, result):
    if result.status == "decoded":
        tracer.count("codec.threshold_decoded")


def _on_assemble(tracer, args, kwargs, code):
    dim_h = len(code.null_basis_H)
    tracer.count("ensembles.rank_deficit_H", code.k - (code.m - dim_h))
    tracer.count("ensembles.rank_deficit_G", dim_h - round(code.rates.effective * code.n))
    if tracer.active("codec.moment_experiment"):
        # moment_experiment walks every codeword of each code it assembles.
        tracer.count("codec.words_searched", 1 << dim_h)


def _on_coset(tracer, args, kwargs, coset):
    if not coset.feasible:
        tracer.count("sideinfo.infeasible_cosets")


def _on_pipeline(tracer, args, kwargs, trace):
    if trace.status == "erasure":
        tracer.count("sideinfo.erasures")
    tracer.count("sideinfo.violations", len(trace.violations))


def span_table(pkg) -> dict:
    g, e, c, s = pkg.gf2, pkg.ensembles, pkg.codec, pkg.sideinfo
    return {
        "gf2.null_space_basis": (g.null_space_basis, None),
        "gf2.solve_particular": (g.solve_particular, None),
        "gf2.matvec": (g.matvec, None),
        "ensembles.sample_ldgm": (e.sample_ldgm, None),
        "ensembles.sample_regular_ldpc": (e.sample_regular_ldpc, None),
        "ensembles.image_log2_size": (e.image_log2_size, None),
        "ensembles.assemble": (e.assemble, _on_assemble),
        "ensembles.coset_code": (e.coset_code, _on_coset),
        "codec.source_encode_exhaustive": (
            c.source_encode_exhaustive, _search_hook(c.source_encode_exhaustive)),
        "codec.channel_decode_ml": (
            c.channel_decode_ml, _search_hook(c.channel_decode_ml)),
        "codec.channel_decode_threshold": (
            c.channel_decode_threshold,
            _search_hook(c.channel_decode_threshold, _on_threshold)),
        "codec.moment_experiment": (c.moment_experiment, None),
        "sideinfo.run_scsi": (s.run_scsi, _on_pipeline),
        "sideinfo.run_ccsi": (s.run_ccsi, _on_pipeline),
        "sideinfo.run_trial_batch": (s.run_trial_batch, None),
        # Not reported: spans so that batch summaries do not count as CLI time.
        "sideinfo.simulate_scsi": (s.simulate_scsi, None),
        "sideinfo.simulate_ccsi": (s.simulate_ccsi, None),
        "cli.main": (pkg.cli.main, None),
    }


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer figures of one traced pass."""
    calls, count = tr.calls, tr.counts

    def busy(name: str) -> float:
        return float(tr.busy_s[name])

    def self_s(name: str) -> float:
        return float(tr.self_s[name])

    search_s = (busy("codec.source_encode_exhaustive") + busy("codec.channel_decode_ml")
                + busy("codec.channel_decode_threshold")
                + self_s("codec.moment_experiment"))
    thr_calls = calls["codec.channel_decode_threshold"]
    out = {}
    for name in ("gf2.null_space_basis", "gf2.solve_particular", "gf2.matvec"):
        out[f"{name}.busy_s"] = busy(name)
        out[f"{name}.calls"] = calls[name]
    for name in ("ensembles.sample_ldgm", "ensembles.sample_regular_ldpc",
                 "ensembles.image_log2_size", "ensembles.coset_code",
                 "codec.source_encode_exhaustive", "codec.channel_decode_ml",
                 "codec.channel_decode_threshold", "sideinfo.run_trial_batch"):
        out[f"{name}.busy_s"] = busy(name)
    for name in ("ensembles.assemble", "sideinfo.run_scsi", "sideinfo.run_ccsi"):
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.calls"] = calls[name]
    out.update({
        "ensembles.rank_deficit_G": count["ensembles.rank_deficit_G"],
        "ensembles.rank_deficit_H": count["ensembles.rank_deficit_H"],
        "codec.moment_experiment.self_s": self_s("codec.moment_experiment"),
        "codec.words_searched": count["codec.words_searched"],
        "codec.words_per_s": count["codec.words_searched"] / search_s if search_s else 0.0,
        "codec.channel_decode_threshold.calls": thr_calls,
        "codec.threshold_decoded_ratio":
            count["codec.threshold_decoded"] / thr_calls if thr_calls else 0.0,
        "sideinfo.infeasible_cosets": count["sideinfo.infeasible_cosets"],
        "sideinfo.erasures": count["sideinfo.erasures"],
        "sideinfo.violations": count["sideinfo.violations"],
        "cli.self_s": self_s("cli.main"),
        "cli.bytes_written": count["cli.bytes_written"],
    })
    return out


def run_traced(ops, pkg, workdir, checker, seconds) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes (at least two of each) until
    ``seconds`` have passed.  Returns the per-layer metrics and any
    drift found in the traced counts."""
    modules = [pkg.package, pkg.gf2, pkg.ensembles, pkg.codec, pkg.sideinfo, pkg.cli]
    spans = span_table(pkg)
    tracer = Tracer()
    untraced_s, traced_s, passes, counts = [], [], [], []
    t_start = perf_counter()
    while len(traced_s) < 2 or perf_counter() - t_start < seconds:
        untraced_s.append(sum(o.seconds for o in run_pass(ops, pkg, workdir, checker)))
        tracer.reset()
        tracer.install(modules, spans)
        try:
            outcomes = run_pass(ops, pkg, workdir, checker, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(sum(o.seconds for o in outcomes))
        passes.append(layer_metrics(tracer))
        counts.append(tracer.snapshot_counts())
    drift = sorted({k for c in counts[1:] for k in set(c) | set(counts[0])
                    if c.get(k) != counts[0].get(k)})
    metrics = {}
    for name, value in passes[0].items():
        if isinstance(value, int):
            metrics[name] = value
        else:
            metrics[name] = statistics.median(p[name] for p in passes)
    metrics["trace.untraced_pass_s"] = statistics.median(untraced_s)
    metrics["trace.traced_pass_s"] = statistics.median(traced_s)
    return metrics, drift


# ---------------------------------------------------------------------------
# end-to-end run


def setup_probe(workload: str, seed: int) -> float:
    """Wall seconds from starting a fresh interpreter until it has imported
    the package and built the workload's operations."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise BenchError(f"setup probe failed (exit {proc.returncode})")
    return elapsed


def run_timed(ops, pkg, workdir, checker, seconds, probe, cal) -> tuple[list, list]:
    """Repeat whole cycles until ``seconds`` of operations have run.

    Setup probes run between cycles, spread evenly over the run.  With a
    calibrator, every operation and probe is followed by a reference timing.
    Returns each operation's (raw, calibrated) times, in cycle order, and the
    (raw, calibrated) setup samples; without a calibrator both are raw.
    """
    times = [[] for _ in ops]
    setup = []
    op_s = 0.0

    def factor() -> float:
        return cal.factor() if cal is not None else 1.0

    def setup_sample():
        elapsed = probe()
        setup.append((elapsed, elapsed * factor()))

    while not times[0] or op_s < seconds:
        for op, op_times in zip(ops, times):
            outcome = run_op(op, pkg, workdir)
            op_times.append((outcome.seconds, outcome.seconds * factor()))
            checker.check(op, outcome)
            op_s += outcome.seconds
        if op_s >= len(setup) * seconds / SETUP_PROBES:
            setup_sample()
    while len(setup) < SETUP_PROBES:
        setup_sample()
    return times, setup


def pin_to_one_cpu() -> int:
    """Run this process, its threads and the setup probes on one CPU, so that
    the reference timings see the same core as the operations."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc!r}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("quantize", "ensemble", "pipelines"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)

    if ns.setup_probe:
        import_package()
        build_ops(ns.workload, ns.seed)
        print("ready", flush=True)
        return 0

    if ns.write_pins and ns.seed != DEFAULT_SEED:
        raise BenchError(f"pins are for the default seed {DEFAULT_SEED} only")
    units = declared_metrics(bool(ns.trace))
    env = environment()
    calibrated = ns.workload in CALIBRATED_WORKLOADS
    env["pinned_cpu"] = pin_to_one_cpu() if calibrated else None
    pkg = import_package()
    ops = build_ops(ns.workload, ns.seed)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    try:
        if ns.write_pins:
            return write_pins(ns.workload, ops, pkg, workdir)
        pins = load_pins(ns.workload, ops) if ns.seed == DEFAULT_SEED else None
        checker = Checker(pins)
        if ns.trace:
            metrics, drift = run_traced(ops, pkg, workdir, checker, ns.seconds)
        else:
            cal = Calibrator() if calibrated else None
            times, setup = run_timed(ops, pkg, workdir, checker, ns.seconds,
                                     lambda: setup_probe(ns.workload, ns.seed), cal)
            drift = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    notes, unbounded = {}, []
    if not ns.trace:
        op_s = [t for op_times in times for _, t in op_times]
        cycle_trials = sum(op.trials for op in ops)
        cycle_s = sum(statistics.median(t for _, t in op_times) for op_times in times)
        how = "calibrated" if calibrated else "raw"
        n = f"n={len(op_s)}"
        metrics = {
            "setup_s": statistics.median(t for _, t in setup),
            "trials_per_s": cycle_trials / cycle_s,
            "op_s_p50": statistics.median(op_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "setup_s": f"{how} median of {len(setup)} fresh processes",
            "trials_per_s": f"{cycle_trials} trials per cycle over {cycle_s:.4g} s, each "
                            f"operation at its {how} median of {len(times[0])} cycles",
            "op_s_p50": f"{how} median of {n} operations",
        }
        # Reported but not bounded: the tail, and the raw figures of a
        # calibrated run, which move with the other tenants of the machine.
        unbounded = [("op_s_p90", statistics.quantiles(op_s, n=10)[-1], "s",
                      f"{how} 90th percentile of {n} operations")]
        if calibrated:
            raw = [t for op_times in times for t, _ in op_times]
            unbounded += [
                ("raw.setup_s", statistics.median(t for t, _ in setup), "s", "uncalibrated"),
                ("raw.op_s_p50", statistics.median(raw), "s", f"uncalibrated, {n}"),
                ("raw.op_s_p90", statistics.quantiles(raw, n=10)[-1], "s",
                 f"uncalibrated, {n}"),
                ("raw.reference_s", statistics.median(cal.reference_s), "s",
                 f"median of {len(cal.reference_s)} reference timings; "
                 f"quiet: {REFERENCE_S} s"),
            ]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                         "BENCHMARK.json")

    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:<40} {metrics[name]:<14.6g} {unit:<6} {notes.get(name, '')}")
    for name, value, unit, note in unbounded:
        print(f"{name:<40} {value:<14.6g} {unit:<6} {note} (not bounded)")
    print(f"{'ops_failed_frac':<40} {checker.failed / checker.attempted:<14.6g} "
          f"{'ratio':<6} {checker.failed} failed of {checker.attempted} attempted")
    print("outputs checked against " + (
        f"bench/pinned.json (seed {DEFAULT_SEED})" if ns.seed == DEFAULT_SEED
        else "invariants and repeated operations"))
    if drift:
        print(f"error: traced counts differ between passes: {', '.join(drift)}",
              file=sys.stderr)
    print(json.dumps({
        "correct": checker.failed == 0 and not drift,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def write_pins(workload: str, ops: list, pkg, workdir: Path) -> int:
    checker = Checker(None)
    outcomes = run_pass(ops, pkg, workdir, checker)
    if checker.failed:
        raise BenchError("not pinning: an operation failed its invariants")
    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    pins[workload] = [{"op": op.label, "expect": o.signature}
                      for op, o in zip(ops, outcomes)]
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ops)} operations of {workload}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
