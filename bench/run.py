"""Benchmark of the v0lver simulator, one workload per invocation.

    python3 bench/run.py --workload arb_sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --digest        # byte-identity of CLI artifacts, untimed
    python3 bench/run.py --record        # rewrite reference.json and digests.json

Run from the repository root. The package is imported from ``src/`` next to
this directory and nowhere else; without it the benchmark exits 1.

A run first times the workload's set-up in fresh processes, then runs unit 0
(warm-up, checked against the stored reference at seeds 0 and 1), then runs
units until ``--seconds`` have passed. Every unit's outputs go through the
correctness gate. All work is in this process, one unit at a time.

With ``--trace 0`` the metrics are end-to-end: set-up time, simulated blocks
and settled orders per wall second (medians over units), peak memory and the
share of units that passed. With ``--trace 1`` each unit runs twice with the
same seed, untraced and then with every layer wrapped (``tracing.py``); the
metrics are per layer, plus the traced-over-untraced wall time.

The last line of standard output is the result as one JSON object; the line
before it is a report with the environment, unit timings and any problems.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 11
CONFIG_REPEATS = 20
REFERENCE_SEEDS = (0, 1)
MAX_REPORTED_PROBLEMS = 20


def import_package():
    """Import v0lver from this checkout's ``src/``; exit 1 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "v0lver", "__init__.py")):
        sys.stderr.write(f"bench: package source {os.path.join(SRC, 'v0lver')} not found\n")
        raise SystemExit(1)
    sys.path.insert(0, SRC)
    import v0lver

    if os.path.dirname(os.path.dirname(os.path.abspath(v0lver.__file__))) != SRC:
        sys.stderr.write(f"bench: imported v0lver from {v0lver.__file__}, not {SRC}\n")
        raise SystemExit(1)


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over the package's source files, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "v0lver")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def time_setup(name: str, repeats: int) -> list[tuple[float, float]]:
    """``(set-up seconds, probe seconds)`` of ``repeats`` fresh processes.

    One untimed process runs first and writes the bytecode caches, so every
    timed process starts from the same state.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    times = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), name],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up of {name} failed: {done.stderr.strip()}")
        if i:
            setup_s, probe_s = done.stdout.split()
            times.append((float(setup_s), float(probe_s)))
    return times


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> dict:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"n": len(values), "q1": v, "median": v, "q3": v}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": med, "q3": q3}


class Runner:
    """Runs, times and checks the units of one workload at one seed."""

    def __init__(self, workload, seed: int):
        import workloads

        self.wl = workloads
        self.workload = workload
        self.seed = seed
        self.input = workload.build()
        reference = workloads.load_reference() if workload == type(workload)() else {}
        self.reference = reference.get(workload.name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.lvr_ci_hits = []

    def unit(self, u: int):
        """Run and check unit ``u``; None if it failed, else ``(seconds, nominal, outcome)``.

        ``nominal`` is the unit's time rescaled by the speed probes run just
        before and after it (``speed.py``).
        """
        self.attempted += 1
        try:
            before = speed.probe()
            t0 = time.perf_counter()
            raw = self.workload.run(self.input, self.wl.unit_seed(self.seed, u))
            seconds = time.perf_counter() - t0
            after = speed.probe()
            outcome = self.workload.check(raw)
        except Exception as e:  # noqa: BLE001 — a unit that raises counts as failed
            self._fail(u, [f"{type(e).__name__}: {e}"])
            return None
        problems = self.wl.gate(outcome, self.reference if u == 0 else None)
        if "ci95_contains_keep" in outcome.outputs:
            self.lvr_ci_hits.append(outcome.outputs["ci95_contains_keep"])
        if problems:
            self._fail(u, problems)
            return None
        return seconds, seconds * 2 * speed.NOMINAL_S / (before + after), outcome

    def _fail(self, u: int, problems: list[str]):
        self.failed += 1
        for p in problems:
            if len(self.problems) < MAX_REPORTED_PROBLEMS:
                self.problems.append(f"unit {u}: {p}")


def measure(workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, report)``."""
    from tracing import Tracer, layer_metrics

    load_start = os.getloadavg()
    setup = time_setup(workload.name, setup_repeats)
    runner = Runner(workload, seed)
    bytes_written = 0
    if runner.unit(0) is not None and hasattr(workload, "bytes_written"):
        bytes_written = workload.bytes_written()

    untraced, traced, overhead = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    u = 1
    while True:
        done = runner.unit(u)
        if done is not None:
            untraced.append(done)
            if trace:
                with tracer:
                    again = runner.unit(u)
                if again is not None:
                    traced.append(again)
                    overhead.append(again[0] / done[0])
        u += 1
        if time.perf_counter() - start >= seconds:
            break

    def rate(work, nominal):
        return median([work(o) / (t if nominal else s) for s, t, o in untraced])

    report = {
        "workload": workload.name,
        "units": {"attempted": runner.attempted, "failed": runner.failed,
                  "seconds": quartiles([s for s, _, _ in untraced]),
                  "nominal_seconds": quartiles([t for _, t, _ in untraced])},
        "setup": {"seconds": [s for s, _ in setup], "probe_seconds": [p for _, p in setup]},
        "wall_rates": {"blocks_per_s": rate(lambda o: o.blocks, False),
                       "orders_per_s": rate(lambda o: o.orders, False)},
        "problems": runner.problems,
    }
    if runner.lvr_ci_hits:
        report["ci95_contains_keep"] = f"{sum(runner.lvr_ci_hits)}/{len(runner.lvr_ci_hits)}"

    if trace:
        tracer.require_calls(workload.must_call)
        tracer.require_no_calls(workload.must_not_call)
        config = []
        for _ in range(CONFIG_REPEATS):
            t0 = time.perf_counter()
            workload.build()
            config.append(time.perf_counter() - t0)
        blocks = sum(o.blocks for _, _, o in traced)
        layers = layer_metrics(tracer, blocks, sum(s for s, _, _ in traced))
        layers["cli.bytes_written"] = (float(bytes_written), "bytes")
        layers["config.setup.ms"] = (1e3 * median(config), "ms")
        layers["trace.overhead"] = (median(overhead), "ratio")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in layers.items()}
        report["traced_units"] = len(traced)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = median([s * speed.NOMINAL_S / p for s, p in setup])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "blocks_per_s": {"value": rate(lambda o: o.blocks, True), "unit": "1/s"},
            "orders_per_s": {"value": rate(lambda o: o.orders, True), "unit": "1/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "success_rate": {"value": (runner.attempted - runner.failed) / runner.attempted,
                             "unit": "ratio"},
        }
    report["loadavg"] = {"start": load_start, "end": os.getloadavg()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, report


def record():
    """Rewrite the stored reference outputs and artifact digests from this code."""
    import digest
    import workloads

    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        inp = wl.build()
        reference[name] = {}
        for seed in REFERENCE_SEEDS:
            outputs = wl.check(wl.run(inp, workloads.unit_seed(seed, 0))).outputs
            reference[name][str(seed)] = {k: v for k, v in outputs.items()
                                          if not isinstance(v, bool)}
    with open(workloads.REFERENCE_PATH, "w") as f:
        json.dump(reference, f, indent=2, sort_keys=True)
        f.write("\n")
    digests = digest.compute_digests(os.path.join(workloads.WORK_DIR, "digest"))
    with open(digest.DIGESTS_PATH, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("arb_sweep", "limit_book", "market_flow"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="compare CLI artifact digests with digests.json (untimed)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json and digests.json from this code")
    args = parser.parse_args(argv)
    if not (args.workload or args.digest or args.record):
        parser.error("one of --workload, --digest or --record is required")

    import_package()
    env = environment(args.seed)
    if args.record:
        record()
        return 0
    if args.digest:
        import digest
        import workloads

        report = digest.compare(
            digest.compute_digests(os.path.join(workloads.WORK_DIR, "digest")),
            digest.load_digests())
        print(json.dumps({"environment": env, "digests": report["runs"]}, sort_keys=True))
        print(f"digests: {report['identical']} identical, {report['changed']} changed, "
              f"{report['unrecorded']} unrecorded")
        return 0

    import workloads
    from tracing import TraceTargetError

    try:
        result, report = measure(workloads.WORKLOADS[args.workload](), args.seed,
                                 args.seconds, bool(args.trace))
    except TraceTargetError as e:
        sys.stderr.write(f"bench: {e}\n")
        return 1
    print(json.dumps({"environment": env, "report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
