"""latcode benchmark: one seeded workload, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload awgn_nld --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times repeated fresh interpreter starts (``setup_s``),
then runs the workload in one child process (``bench/harness.py``) with
tracing off and reports the end-to-end metrics.  With ``--trace 1`` the
child also runs traced passes and the per-layer metrics are reported.  Each
metric is printed by name with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with the machine facts and the per-pass values
behind each median goes to ``.bench_out/``.  The program is taken from
``src/``; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_CODE = "import latcode; latcode.load_catalog()"
SETUP_STARTS = 11       # measured fresh starts, after one unmeasured start
TOTAL_LIMIT_S = 170.0   # the whole run, child included


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(env: dict) -> list[float]:
    """Wall time of fresh starts until latcode is imported and its catalog loaded."""
    samples = []
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                       check=True, timeout=60)
        if i:  # the first start may compile bytecode
            samples.append(time.perf_counter() - t0)
    return samples


def machine_facts() -> dict:
    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpu = next((line.split(":", 1)[1].strip()
                for line in read("/proc/cpuinfo", "").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read(index / "level")
        if level in ("2", "3"):
            caches[f"l{level}"] = read(index / "size")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {"git_sha": sha or "unknown", "nproc": os.cpu_count(),
            "cpu_model": cpu, "l2_cache": caches.get("l2", "unknown"),
            "l3_cache": caches.get("l3", "unknown")}


def run_child(args, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "harness.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"harness exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _basis(name: str, values: dict, passes: int, starts: int) -> str:
    """The samples behind a printed metric."""
    if name == "setup_s":
        return f"median of {starts} fresh starts"
    if name == "peak_rss_mb":
        return "one child process"
    if name.endswith((".p50_us", ".p99_us")):
        return f"of {values[name.rsplit('.', 1)[0] + '.samples']} calls"
    if name.endswith(".self_s"):
        return f"median of {values['trace.passes']} traced passes"
    if name in ("wall_s", "trials_per_s", "carve_s", "table_s"):
        return f"median of {passes} passes"
    return ""


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "latcode" / "__init__.py").is_file():
        print(f"bench: no latcode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = _env()
    try:
        setup = [] if args.trace else measure_setup(env)
        child = run_child(args, env, TOTAL_LIMIT_S - (time.perf_counter() - started))
    except (RuntimeError, subprocess.SubprocessError, json.JSONDecodeError,
            IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    passes = child["passes"]
    samples = {name: [p[name] for p in passes]
               for name in ("wall_s", "trials_per_s", "carve_s", "table_s")}
    samples["setup_s"] = setup
    raw = {name: [p[name] for p in child["raw_passes"]] for name in samples
           if name != "setup_s"}
    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = child["per_layer"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: statistics.median(v) for name, v in samples.items()}
        values["peak_rss_mb"] = child["peak_rss_mb"]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted.items()}
    attempted, failed = child["attempted"], child["failed"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    facts = machine_facts()
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"sha={facts['git_sha'][:12]} nproc={facts['nproc']} "
          f"python={child['python']} numpy={child['numpy']}")
    for name, m in metrics.items():
        raw_note = (f"; unscaled {statistics.median(raw[name]):.6g}"
                    if name in raw and not args.trace else "")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} "
              f"{_basis(name, values, len(passes), len(setup))}{raw_note}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} {'1':<6} "
          f"{failed} of {attempted} operations; reference {child['reference']}")
    for msg in child["problems"]:
        print(f"  FAILED {msg}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds,
              "machine": {**facts, "python": child["python"],
                          "numpy": child["numpy"]},
              "reference": child["reference"], "samples": samples,
              "raw_samples": raw, "ops": child["ops"],
              "op_seconds": child["op_seconds"], "op_scaled": child["op_scaled"],
              "problems": child["problems"], "result": result}
    if args.trace:
        record["per_layer_all"] = child["per_layer"]
        record["traced_passes"] = child["traced_passes"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
