"""Benchmark for meadows: three seeded closed-loop workloads and a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload laws-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One caller issues one public-API request after another (a closed loop with a
single client, in one process and thread).  ``--trace 0`` measures for
``--seconds`` of wall time and reports the end-to-end metrics, with timings
corrected for the drift of machine speed (see ``calibrate.py``); set-up time
and peak memory come from fresh child interpreters.  ``--trace 1`` runs each
request of a fixed number of rounds untraced and then traced, and reports the
per-layer metrics from the spans (see ``tracing.py``).  Every answer is
checked against ``oracles.py``, which shares no code with meadows.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload both
ways, prints a table, and with ``--out`` also writes a report with machine
details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
MAX_REPORTED_FAILURES = 5
OUT_DIR = HERE / "out"


def _import_meadows():
    """Import meadows from this checkout's ``src``, or exit with a non-zero status."""
    sys.path.insert(0, str(SRC))
    try:
        import meadows
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import meadows from {SRC}: {exc}")
    if not Path(meadows.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: meadows came from {meadows.__file__}, not from {SRC}")


_import_meadows()

import calibrate  # noqa: E402
import tracing  # noqa: E402  (these need meadows on the path)
import workloads  # noqa: E402


class Tally:
    """Requests attempted and failed, with the first few failures kept for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, item, call=None) -> int:
        """Time one request, check its answer outside the timed region, return ns."""
        t0 = time.perf_counter_ns()
        try:
            out = (call or item.call)()
            error = None
        except Exception as exc:  # a raising request is a failed request
            error = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - t0
        if error is None:
            try:
                item.verify(out)
            except Exception as exc:  # an answer of any wrong shape is a wrong answer
                error = f"wrong answer: {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(f"{item.label}: {error}")
        return elapsed


def _rounds(wl, count: int) -> list:
    return [item for _ in range(count) for item in wl.round()]


# ---------------------------------------------------------------------------
# Child interpreters: set-up time and peak memory.
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(wl_class, repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median time of ``import meadows`` plus the workload's set-up, each in a fresh interpreter.

    Returns the median rescaled by the reference task timed in the same
    interpreter right after (see ``calibrate.py``), and the raw median.
    """
    code = "\n".join([
        "import time",
        "t0 = time.perf_counter()",
        "import meadows",
        wl_class.setup,
        "elapsed = time.perf_counter() - t0",
        f"import sys; sys.path.append({str(HERE)!r})",
        "import calibrate",
        "print(elapsed, calibrate.slowdown([calibrate.time_reference() for _ in range(15)]))",
    ])
    scaled, raw = [], []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        elapsed, slowdown = map(float, done.stdout.split()[-2:])
        scaled.append(elapsed / slowdown)
        raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def measure_peak_rss(name: str, seed: int) -> float:
    """Peak resident memory, in MiB, of a fresh interpreter that runs the workload's pass once."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--child-rss", "--workload", name,
                           "--seed", str(seed)], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.split()[-1]) / 1024


def _child_rss(name: str, seed: int) -> None:
    wl = workloads.WORKLOADS[name](seed)
    tally = Tally()  # answers are judged by the timed run, not here
    for item in _rounds(wl, wl.warmup_rounds + wl.pass_rounds):
        tally.run(item)
    print(_peak_rss_kib())


def _peak_rss_kib() -> int:
    """This process's peak resident set in KiB.

    ``VmHWM`` belongs to the process's own address space; ``ru_maxrss`` would
    also count the parent's resident set, which Linux carries across ``execve``.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


def _p99(sorted_ns: list[int]) -> int:
    """Nearest-rank 99th percentile."""
    return sorted_ns[max(0, math.ceil(0.99 * len(sorted_ns)) - 1)]


def run_untraced(name: str, seed: int, seconds: float, *, setup_repeats: int = SETUP_REPEATS) -> dict:
    wl_class = workloads.WORKLOADS[name]
    setup_s, raw_setup_s = measure_setup(wl_class, setup_repeats)
    peak_rss = measure_peak_rss(name, seed)
    wl = wl_class(seed)
    for item in _rounds(wl, wl.warmup_rounds):
        Tally().run(item)
    tally = Tally()
    latencies: list[int] = []
    round_rates = []  # requests per busy second of each completed round
    references = [calibrate.time_reference()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        items = wl.round()
        start = len(latencies)
        for item in items:
            latencies.append(tally.run(item))
            if time.perf_counter() >= deadline:
                break
        else:
            round_rates.append(len(items) * 1e9 / sum(latencies[start:]))
        references.append(calibrate.time_reference())
    busy_s = sum(latencies) / 1e9
    latencies.sort()
    p99_ns = _p99(latencies)
    p50, p99 = statistics.median(latencies) / 1e6, p99_ns / 1e6
    # The median round resists the bursts of a shared machine; a run too short
    # to finish a round falls back to the overall rate.
    rate = statistics.median(round_rates) if round_rates else len(latencies) / busy_s
    slowdown = calibrate.slowdown(references)
    metrics = {
        "items_per_s": (rate * slowdown, "1/s"),
        "latency_p50_ms": (p50 / slowdown, "ms"),
        "latency_p99_ms": (p99 / slowdown, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss, "MiB"),
    }
    info = {
        "samples": len(latencies),
        "beyond_p99": sum(1 for x in latencies if x > p99_ns),
        "busy_s": busy_s,
        "rounds": len(round_rates),
        "failed_ratio": tally.failed / tally.attempted,
        "slowdown": slowdown,
        "raw_items_per_s": rate,
        "raw_latency_p50_ms": p50,
        "raw_latency_p99_ms": p99,
        "raw_setup_s": raw_setup_s,
        "setup_repeats": setup_repeats,
    }
    return _result(tally, metrics, info)


def run_traced(name: str, seed: int, *, rounds: int | None = None, spans_path: Path | None = None) -> dict:
    wl = workloads.WORKLOADS[name](seed)
    for item in _rounds(wl, wl.warmup_rounds):
        Tally().run(item)
    items = _rounds(wl, wl.pass_rounds if rounds is None else rounds)
    tally = Tally()
    tracer = tracing.Tracer()
    untraced_ns = traced_ns = 0
    # Each request runs untraced and then traced, back to back, so that the
    # drift of a shared machine cancels out of the overhead ratio.
    for item in items:
        untraced_ns += tally.run(item)
        tracer.install()
        try:
            traced_ns += tally.run(item, lambda: tracer.request(item.call))
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = (traced_ns / untraced_ns - 1, "ratio")
    if name == "finite-symbolic" and tracer.exact_calls():
        tally.failed += 1
        tally.messages.append(f"finite-symbolic reached the exact kernel {tracer.exact_calls()} times")
    if spans_path is not None:
        tracer.write(spans_path, {"workload": name, "seed": seed, "requests": len(items)})
    info = {"requests": len(items), "spans": len(tracer.names), "untraced_s": untraced_ns / 1e9,
            "traced_s": traced_ns / 1e9, "failed_ratio": tally.failed / tally.attempted}
    return _result(tally, metrics, info)


def _result(tally: Tally, metrics: dict, info: dict) -> dict:
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": info,
        "messages": tally.messages,
    }


def _print_result(name: str, seed: int, result: dict) -> None:
    info = result["info"]
    print(f"# {name} seed={seed} attempted={result['attempted']} failed={result['failed']} "
          f"failed_ratio={info['failed_ratio']:.6g} " + " ".join(
              f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items() if k != "failed_ratio"))
    for k, m in result["metrics"].items():
        print(f"{k:32} {m['value']:>14.6g} {m['unit']}")
    for message in result["messages"]:
        print(f"FAILED {message}", file=sys.stderr)


def _contract_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def run_all(seed: int, seconds: float, out: Path | None) -> None:
    report = {
        "seed": seed,
        "seconds": seconds,
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count(), "python": sys.version.split()[0],
                    "implementation": platform.python_implementation()},
        "workloads": {},
    }
    whys = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for name in workloads.WORKLOADS:
        untraced = run_untraced(name, seed, seconds)
        traced = run_traced(name, seed, spans_path=OUT_DIR / f"trace-{name}.zip")
        _print_result(name, seed, untraced)
        _print_result(name, seed, traced)
        report["workloads"][name] = {"why": whys[name], "untraced": untraced, "traced": traced}
    names = list(workloads.WORKLOADS)
    print(f"\n{'metric':18}" + "".join(f"{n:>18}" for n in names))
    for metric in ("items_per_s", "latency_p50_ms", "latency_p99_ms", "setup_s", "peak_rss_mib"):
        row = [report["workloads"][n]["untraced"]["metrics"][metric]["value"] for n in names]
        print(f"{metric:18}" + "".join(f"{v:>18.6g}" for v in row))
    row = [report["workloads"][n]["untraced"]["info"]["failed_ratio"] for n in names]
    print(f"{'failed_ratio':18}" + "".join(f"{v:>18.6g}" for v in row))
    if out is not None:
        out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({n: {k: report["workloads"][n]["untraced"][k] for k in ("correct", "attempted", "failed", "metrics")}
                      for n in names}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="with --workload all: write the full report here")
    parser.add_argument("--child-rss", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child_rss:
        _child_rss(args.workload, args.seed)
        return 0
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.out)
        return 0
    if args.trace:
        result = run_traced(args.workload, args.seed, spans_path=OUT_DIR / f"trace-{args.workload}.zip")
    else:
        result = run_untraced(args.workload, args.seed, args.seconds)
    _print_result(args.workload, args.seed, result)
    print(_contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
