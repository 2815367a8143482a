"""Seeded latcode workloads, their correctness checks and the traced run.

``bench/run.py`` starts this file in a child process with ``src`` on
``PYTHONPATH``; it can also be run by hand from the repository root:

    PYTHONPATH=src python3 bench/harness.py --workload awgn_nld --seed 1 \
        --seconds 30 --trace 0

One *pass* of a workload is a fixed list of operations made from the seed:
CLI calls through ``latcode.cli.main`` and direct ``latcode.codebook.carve``
calls.  Passes repeat until ``--seconds`` are used up, every output is
checked, and one JSON object with the per-pass timings and the tally of
failed operations is printed.  With ``--trace 1`` the first part of the time
runs untraced and the rest with span-recording wrappers installed on each
module's entry points, and the per-layer metrics are added.  ``--record``
runs one pass and stores its outputs as the correctness reference.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import importlib
import io
import json
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import latcode
from latcode import cli, codebook, numberfield

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# Why each workload exists:
# - awgn_nld: the basis is fixed for every trial at an SNR point, yet NLD
#   reduces it again on each trial; a cached reduction shows here.
# - fading_nld: each trial decodes a fresh faded basis, so caching the
#   reduction gains nothing and deep fades set the decode-time tail.  It
#   also runs the complex ambient path, the fading stream and the Chernoff
#   bound (reached only at the upper SNR point of each grid).
# - carve_ml: no NLD at all.  Ball enumeration, shift search, catalog
#   validation and the ML scan, at rate 1.5 (working set about 262 KB, in
#   L2) and rate 2 (about 4.2 MB, beyond L2).
# Every workload also carves its own codebooks directly and builds its
# fields' tables, so carve_s and table_s exist on each.  The workload seed
# reaches the program as simulate's --seed, which also seeds the codebook
# each simulate call carves.  Direct carves use the fixed carve seeds
# 0..count-1 instead: shift-search tries are roughly geometric (about two
# per carve, up to six seen at rate 2), so seeding them from the workload
# seed would make carve_s measure retry luck rather than carving.
WORKLOADS = {
    "awgn_nld": {
        "tables": [("invariants", "F8-17"), ("invariants", "F4-725"),
                   ("ideal", "F8-17"), ("ideal", "F4-725")],
        "carves": [("F8-17", 1.0, 9.0, 16), ("F4-725", 1.0, 9.0, 16)],
        "simulates": [
            ("F8-17", "awgn_real", 1.0, (6.0, 9.0, 12.0), 200, "both"),
            ("F4-725", "awgn_real", 1.0, (6.0, 9.0, 12.0), 600, "both"),
        ],
    },
    "fading_nld": {
        "tables": [("invariants", "F8-17"), ("invariants", "F4-725"),
                   ("invariants", "Qzeta5"), ("ideal", "F8-17"),
                   ("ideal", "F4-725"), ("ideal", "Qzeta5")],
        "carves": [("F8-17", 1.0, 10.0, 12), ("F4-725", 1.0, 10.0, 12),
                   ("Qzeta5", 1.0, 10.0, 12)],
        "simulates": [
            ("F4-725", "rayleigh_real", 1.0, (10.0, 18.0), 300, "both"),
            ("F8-17", "rayleigh_real", 1.0, (10.0, 18.0), 100, "both"),
            ("Qzeta5", "rayleigh_complex", 1.0, (10.0, 18.0), 300, "both"),
        ],
    },
    "carve_ml": {
        "tables": [("invariants", None), ("ideal", None)],
        "carves": [("F8-17", 1.0, 10.0, 12), ("F8-17", 1.5, 10.0, 12),
                   ("F8-17", 2.0, 10.0, 2)],
        "simulates": [
            ("F8-17", "awgn_real", 1.5, (10.0,), 1000, "ml"),
            ("F8-17", "awgn_real", 2.0, (10.0,), 500, "ml"),
        ],
    },
}

# Machine-speed calibration.  The benchmark was written on a shared 2-vCPU
# machine whose speed swings by up to 2x within seconds, so raw times mostly
# measured the neighbours.  A fixed piece of work that does not touch
# latcode (the probe) runs before and after every operation, and a timer
# runs it every _PROBE_PERIOD_S inside long operations too.  Each
# operation's time, less the probe's own time, is scaled by _CAL_REF_S over
# the median probe time around and inside it, so the gated timings read as
# seconds at the speed where the probe takes _CAL_REF_S (about its median on
# that machine).  Raw times are kept in the run record.
_CAL_REF_S = 0.0025
_PROBE_PERIOD_S = 0.2
_CAL_ARRAY = np.linspace(0.0, 1.0, 1 << 16)
_CAL_LIST = [float(i) for i in range(256)]


def calibration_chunk() -> float:
    """Seconds taken by the fixed calibration work (interpreter and numpy)."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        for x in _CAL_LIST:
            acc = acc * 0.5 + x * x
    for _ in range(8):
        acc += float(np.sum((_CAL_ARRAY - 0.5) ** 2))
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples between operations and, on a timer, inside them."""

    def __init__(self):
        self.inside: list[tuple[float, float]] = []  # (end, seconds)

    def _tick(self, signum, frame):
        took = calibration_chunk()
        self.inside.append((time.perf_counter(), took))

    def between(self) -> float:
        """One probe sample with the timer held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return calibration_chunk()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def scale(self, r: "OpResult", before: float, after: float):
        """Set the result's net and scaled seconds."""
        inside = [took for end, took in self.inside
                  if end - took >= r.start and end <= r.end]
        self.inside.clear()
        r.seconds = r.end - r.start - sum(inside)
        r.scaled = (r.seconds * _CAL_REF_S
                    / statistics.median([before, after] + inside))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, _PROBE_PERIOD_S, _PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


# Table calls take tens of milliseconds; repeating them steadies table_s.
_TABLE_REPEATS = 5
_POWER_TOL = 1e-9
_MISMATCH_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str                   # "table", "carve" or "simulate"
    key: str                    # names the op in the reference
    argv: tuple[str, ...] = ()  # CLI arguments (table, simulate)
    carve: tuple = ()           # (field, rate, power, seed)
    points: int = 0             # simulate: SNR points
    trials: int = 0             # simulate: trials over all points
    decoder: str = ""
    fading: bool = False


def build_ops(workload: str, seed: int) -> list[Op]:
    spec = WORKLOADS[workload]
    ops = []
    for _ in range(_TABLE_REPEATS):
        for cmd, field in spec["tables"]:
            argv = (cmd,) + (("--field", field) if field else ())
            ops.append(Op("table", " ".join(argv), argv))
    for field, rate, snr, count in spec["carves"]:
        for j in range(count):
            ops.append(Op("carve", f"carve {field} rate={rate:g} snr={snr:g} seed={j}",
                          carve=(field, rate, 10.0 ** (snr / 10.0), j)))
    for field, model, rate, snrs, trials, decoder in spec["simulates"]:
        grid = ",".join(f"{s:g}" for s in snrs)
        argv = ("simulate", "--field", field, "--model", model,
                "--rate", f"{rate:g}", "--snr", grid, "--trials", str(trials),
                "--seed", str(seed), "--decoder", decoder, "--workers", "1")
        key = (f"simulate {field} {model} rate={rate:g} snr={grid} "
               f"trials={trials} decoder={decoder}")
        ops.append(Op("simulate", key, argv, points=len(snrs),
                      trials=trials * len(snrs), decoder=decoder,
                      fading=model.startswith("rayleigh")))
    return ops


# ---------------------------------------------------------------- passes


@dataclass
class OpResult:
    start: float
    end: float
    output: list | None   # canonical output, compared across runs
    problems: list[str]
    seconds: float = 0.0  # end - start, less the speed probe's time
    scaled: float = 0.0   # seconds at the calibration reference speed


def _data_rows(lines: list[str]) -> list[dict]:
    return list(csv.DictReader(l for l in lines if not l.startswith("#")))


def _check_cli(op: Op, lines: list[str]) -> list[str]:
    """Checks that need no reference."""
    rows = _data_rows(lines)
    problems = []
    if op.kind == "simulate":
        if len(rows) != op.points:
            problems.append(f"{len(rows)} rows for {op.points} SNR points")
        for r in rows:
            if int(r["trials"]) * op.points != op.trials:
                problems.append(f"trials column {r['trials']}")
            if op.decoder == "both" and int(r["errors_ml"]) > int(r["errors_nld"]):
                problems.append(f"errors_ml {r['errors_ml']} > errors_nld "
                                f"{r['errors_nld']} at {r['snr_db']} dB")
    elif op.argv[0] == "invariants":
        for r in rows:
            for col in ("nsv_mismatch", "ndp_mismatch"):
                if not float(r[col]) <= _MISMATCH_TOL:
                    problems.append(f"{r['field']} {col} = {r[col]}")
    elif op.argv[0] == "ideal":
        # N(I) divides Nr(x) for x in I, so the normalized minimum is >= 1
        for r in rows:
            if not float(r["min_I"]) >= 1.0 - _MISMATCH_TOL:
                problems.append(f"{r['field']}/{r['ideal']} min_I = {r['min_I']}")
    if not rows:
        problems.append("no data rows")
    return problems


def _check_carve(op: Op, cb) -> list[str]:
    power = op.carve[2]
    worst = float(np.max(np.sum(np.abs(cb.points) ** 2, axis=1))) / cb.n
    if worst > power * (1.0 + _POWER_TOL):
        return [f"carved point power {worst!r} > {power!r}"]
    return []


def run_op(op: Op, fields) -> OpResult:
    # module attributes are looked up per call, so installed wrappers apply
    t0 = time.perf_counter()
    try:
        if op.kind == "carve":
            field, rate, power, seed = op.carve
            cb = codebook.carve(codebook.CodeConfig(
                rate=rate, power=power, field=fields[field], seed=seed))
            t1 = time.perf_counter()
            digest = hashlib.sha256(
                np.ascontiguousarray(cb.shift).tobytes()).hexdigest()[:16]
            return OpResult(t0, t1, [cb.size, cb.achieved_rate, digest],
                            _check_carve(op, cb))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
        t1 = time.perf_counter()
    except Exception as exc:  # a raised error is a failed operation
        return OpResult(t0, time.perf_counter(), None,
                        [f"{type(exc).__name__}: {exc}"])
    if rc != 0:
        return OpResult(t0, t1, None, [f"exit code {rc}"])
    lines = [l for l in buf.getvalue().splitlines()
             if not l.startswith("# config:")]
    return OpResult(t0, t1, lines, _check_cli(op, lines))


def run_pass(ops: list[Op], fields, probe: SpeedProbe) -> list[OpResult]:
    results = []
    before = probe.between()
    for op in ops:
        r = run_op(op, fields)
        after = probe.between()
        probe.scale(r, before, after)
        results.append(r)
        before = after
    return results


def pass_timings(ops: list[Op], results: list[OpResult], scaled: bool = True) -> dict:
    def seconds(r):
        return r.scaled if scaled else r.seconds

    def total(kind):
        return sum(seconds(r) for op, r in zip(ops, results) if op.kind == kind)

    def count(kind):
        return sum(1 for op in ops if op.kind == kind)

    trials = sum(op.trials for op in ops)
    return {
        "wall_s": sum(seconds(r) for r in results),
        "trials_per_s": trials / total("simulate"),
        "carve_s": total("carve") / count("carve"),
        "table_s": total("table") / count("table"),
    }


class Tally:
    """Counts attempted and failed operations and keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(problems[:3])}")


def check_pass(ops, results, first, reference, seed_recorded, tally: Tally,
               label: str):
    """Tally one pass: own checks, same outputs as ``first``, the reference."""
    for i, (op, r) in enumerate(zip(ops, results)):
        problems = list(r.problems)
        if first is not None and r.output != first[i].output:
            problems.append("output differs from the first untraced pass")
        if reference is not None and (seed_recorded or op.kind != "simulate"):
            expected = reference.get(op.key)
            if expected is None:
                problems.append("missing from the reference")
            elif r.output != expected:
                problems.append("output differs from the reference")
        tally.add(f"{label} {op.key}", problems)


def run_until(ops, fields, probe, deadline: float,
              on_pass=None) -> list[list[OpResult]]:
    """Run passes while the next one is expected to end before the deadline."""
    passes = []
    last = 0.0
    while not passes or time.perf_counter() + last <= deadline:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, fields, probe))
        last = time.perf_counter() - t0
        if on_pass is not None:
            on_pass()
    return passes


# ---------------------------------------------------------------- reference


def _reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str, seed: int) -> tuple[dict | None, bool]:
    """Expected outputs keyed by op, and whether this seed was recorded.

    Table and carve outputs do not depend on the workload seed, so they are
    checked on every seed; simulate outputs only on recorded seeds.
    """
    path = _reference_path(workload)
    if not path.exists():
        return None, False
    data = json.loads(path.read_text())
    per_seed = data["seeds"].get(str(seed))
    return {**data["common"], **(per_seed or {})}, per_seed is not None


def record_reference(workload: str, seed: int, ops, results):
    path = _reference_path(workload)
    data = (json.loads(path.read_text()) if path.exists()
            else {"workload": workload, "common": {}, "seeds": {}})
    # only simulate outputs depend on the workload seed
    data["common"].update({op.key: r.output for op, r in zip(ops, results)
                           if op.kind != "simulate"})
    data["seeds"][str(seed)] = {op.key: r.output for op, r in zip(ops, results)
                                if op.kind == "simulate"}
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------- tracing

# The entry points wrapped in each module.  Time in unwrapped helpers (LLL,
# QR, the Schnorr-Euchner search, ball enumeration, channel draws through
# the private _rng alias) counts in the self time of the wrapped caller.
TRACED = {
    "cli": ("main", "run", "simulate_point"),
    "numberfield": ("load_catalog", "embedding_matrix", "ideal_lattice",
                    "min_ideal"),
    "lattice": ("volume", "shortest_vector", "closest_vector_coords",
                "points_in_ball", "min_product_distance", "invariants"),
    "codebook": ("energy_normalization", "shift_search", "count_points",
                 "carve"),
    "channel": ("stream_rng", "transmit"),
    "decoder": ("nld_decode", "ml_decode"),
    "analysis": ("sphere_bound", "fading_error_bound"),
    "specfun": ("chernoff_solve",),
}

# Deterministic counts read from return values.
OBSERVERS = {
    "lattice.points_in_ball": lambda r: {"lattice.points_in_ball.points": len(r[0])},
    "codebook.carve": lambda r: {"codebook.points_carved": r.size},
    "decoder.nld_decode": lambda r: {"decoder.nld_errors": not r.correct,
                                     "decoder.nld_off_codebook": not r.is_codeword},
    "decoder.ml_decode": lambda r: {"decoder.ml_errors": not r.correct},
}


class Tracer:
    """Records one span per wrapped call: [name, start_ns, end_ns, parent]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                counts.update(observe(result))
            return result

        return traced

    def take(self) -> tuple[dict, dict]:
        """Per-name calls, self time and durations of the spans so far; resets."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_ns": 0, "durations_ns": []})
            s["calls"] += 1
            s["self_ns"] += end - start - child_ns[i]
            s["durations_ns"].append(end - start)
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return stats, counts


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch each traced name in every latcode module that looks it up.

    Names imported with ``from ... import`` are patched where they were
    imported; other aliases (such as ``channel._rng``) are left alone, so
    calls through them count in their caller.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "latcode" or name.startswith("latcode.")]
    undo = []
    try:
        for mod_name, funcs in TRACED.items():
            home = importlib.import_module(f"latcode.{mod_name}")
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = tracer.wrap(f"{mod_name}.{fname}", original)
                for m in modules:
                    if getattr(m, fname, None) is original:
                        undo.append((m, fname, original))
                        setattr(m, fname, wrapper)
        yield
    finally:
        for m, fname, original in reversed(undo):
            setattr(m, fname, original)


def traced_names() -> list[str]:
    return [f"{m}.{f}" for m, funcs in TRACED.items() for f in funcs]


def expected_zero(ops: list[Op]) -> set[str]:
    """Traced names the workload's operations should never reach."""
    sims = [op for op in ops if op.kind == "simulate"]
    zero = set()
    if not any(op.decoder in ("nld", "both") for op in sims):
        zero |= {"lattice.closest_vector_coords", "decoder.nld_decode"}
    if not any(op.decoder in ("ml", "both") for op in sims):
        zero.add("decoder.ml_decode")
    if not any(op.fading for op in sims):
        zero |= {"analysis.fading_error_bound", "specfun.chernoff_solve"}
    return zero


def implied_counts(ops: list[Op], results: list[OpResult]) -> dict:
    """Call and outcome counts one pass must show, derived from its outputs."""
    c: Counter = Counter()
    for op, r in zip(ops, results):
        if op.kind == "carve":
            c["codebook.carve.calls"] += 1
            continue
        for name in ("cli.main", "cli.run", "numberfield.load_catalog"):
            c[f"{name}.calls"] += 1
        if op.kind != "simulate":
            continue
        rows = _data_rows(r.output or [])
        for name in ("cli.simulate_point", "codebook.carve", "analysis.sphere_bound"):
            c[f"{name}.calls"] += op.points
        if op.fading:
            c["analysis.fading_error_bound.calls"] += op.points
        for name in ("channel.transmit", "channel.stream_rng"):
            c[f"{name}.calls"] += op.trials
        if op.decoder in ("nld", "both"):
            c["decoder.nld_decode.calls"] += op.trials
            c["lattice.closest_vector_coords.calls"] += op.trials
            c["decoder.nld_errors"] += sum(int(x["errors_nld"]) for x in rows)
        if op.decoder in ("ml", "both"):
            c["decoder.ml_decode.calls"] += op.trials
            c["decoder.ml_errors"] += sum(int(x["errors_ml"]) for x in rows)
    return dict(c)


def _counts_of(stats: dict, counts: dict) -> dict:
    out = {f"{name}.calls": stats.get(name, {}).get("calls", 0)
           for name in traced_names()}
    for key in ("lattice.points_in_ball.points", "codebook.points_carved",
                "decoder.nld_errors", "decoder.ml_errors",
                "decoder.nld_off_codebook"):
        out[key] = counts.get(key, 0)
    out["codebook.shift_retries"] = (out["codebook.count_points.calls"]
                                     - out["codebook.carve.calls"])
    return out


def per_layer(ops, untraced, traced, traced_stats, tally: Tally) -> dict:
    """Per-layer metrics of the traced passes, after the self-checks."""
    names = traced_names()
    pass_counts = [_counts_of(s, c) for s, c in traced_stats]
    metrics = dict(pass_counts[0])

    tally.add("trace: deterministic counts repeat in every traced pass",
              [f"pass {i} differs" for i, pc in enumerate(pass_counts)
               if pc != pass_counts[0]])
    implied = implied_counts(ops, untraced[0])
    tally.add("trace: counts match the untraced outputs",
              [f"{k} = {metrics[k]}, outputs imply {v}"
               for k, v in implied.items() if metrics[k] != v])
    zero = expected_zero(ops)
    tally.add("trace: every wrapper reached exactly where expected",
              [f"{n}.calls = {metrics[f'{n}.calls']}" for n in names
               if (metrics[f"{n}.calls"] == 0) != (n in zero)])

    for name in names:
        self_ns = [s.get(name, {}).get("self_ns", 0) for s, _ in traced_stats]
        metrics[f"{name}.self_s"] = statistics.median(self_ns) / 1e9
        durations = [d for s, _ in traced_stats
                     for d in s.get(name, {}).get("durations_ns", [])]
        p50, p99 = (np.percentile(durations, [50, 99]) / 1e3 if durations
                    else (0.0, 0.0))
        metrics[f"{name}.p50_us"] = float(p50)
        metrics[f"{name}.p99_us"] = float(p99)
        metrics[f"{name}.samples"] = len(durations)

    traced_wall = [sum(r.seconds for r in p) for p in traced]
    untraced_wall = [sum(r.seconds for r in p) for p in untraced]
    traced_scaled = [sum(r.scaled for r in p) for p in traced]
    untraced_scaled = [sum(r.scaled for r in p) for p in untraced]
    for module in TRACED:
        self_ns = sum(s.get(n, {}).get("self_ns", 0) for s, _ in traced_stats
                      for n in names if n.startswith(module + "."))
        metrics[f"{module}.share"] = self_ns / 1e9 / sum(traced_wall)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_scaled)
                                       / statistics.median(untraced_scaled) - 1.0)
    metrics["trace.passes"] = len(traced)
    return metrics


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="run one pass and store its outputs as the "
                        "reference for this seed; delete the reference file "
                        "first to re-record table and carve outputs")
    args = parser.parse_args(argv)

    src = (BENCH_DIR.parent / "src").resolve()
    if src not in Path(latcode.__file__).resolve().parents:
        print(f"harness: latcode imported from {latcode.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("harness: --seed must be nonnegative", file=sys.stderr)
        return 2

    start = time.perf_counter()
    fields = {f.name: f for f in numberfield.load_catalog()}
    ops = build_ops(args.workload, args.seed)
    tally = Tally()

    reference, seed_recorded = load_reference(args.workload, args.seed)
    if args.record:
        # seed-independent outputs must agree with those already recorded
        results = [run_op(op, fields) for op in ops]
        known = reference or {}
        for op, r in zip(ops, results):
            stale = (op.kind != "simulate" and op.key in known
                     and r.output != known[op.key])
            tally.add(f"record {op.key}",
                      r.problems + (["differs from the reference"] if stale else []))
        if tally.failed:
            print("\n".join(tally.messages), file=sys.stderr)
            return 1
        record_reference(args.workload, args.seed, ops, results)
        return 0

    untraced_share = 0.4 if args.trace else 1.0
    probe = SpeedProbe()
    with probe:
        untraced = run_until(ops, fields, probe,
                             start + args.seconds * untraced_share)
    for p in untraced:
        check_pass(ops, p, untraced[0], reference, seed_recorded, tally,
                   "untraced")
    out = {
        "latcode": str(Path(latcode.__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "reference": ("none" if reference is None else "checked" if seed_recorded
                      else "checked except simulate (seed not recorded)"),
        "ops": [[op.key, op.kind, op.trials] for op in ops],
        "op_seconds": [[r.seconds for r in p] for p in untraced],
        "op_scaled": [[r.scaled for r in p] for p in untraced],
        "passes": [pass_timings(ops, p) for p in untraced],
        "raw_passes": [pass_timings(ops, p, scaled=False) for p in untraced],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    if args.trace:
        tracer = Tracer()
        traced_stats = []
        with probe, installed(tracer):
            traced = run_until(ops, fields, probe, start + args.seconds,
                               on_pass=lambda: traced_stats.append(tracer.take()))
        for p in traced:
            check_pass(ops, p, untraced[0], None, False, tally, "traced")
        out["traced_passes"] = [pass_timings(ops, p) for p in traced]
        out["per_layer"] = per_layer(ops, untraced, traced, traced_stats, tally)
    out.update(attempted=tally.attempted, failed=tally.failed,
               problems=tally.messages)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
