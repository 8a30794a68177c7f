"""harmfrac benchmark: one process, one thread, one client in a closed loop.

    python3 bench/run.py --workload grid-verify --seed 1 --seconds 30 --trace 0

Imports harmfrac from ``src/`` of the checkout this file sits in, makes
the workload's inputs from the seed, sends requests one after another for
``--seconds`` seconds of request time in PASSES passes (at least MIN_REQUESTS
distinct requests), and checks every result.  Times are scaled by a probe of
the machine's speed; the raw times go to the meta line.  With ``--trace 0``
the last line of stdout holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a second, traced phase of a fixed number of
requests, whose counts repeat exactly for a given seed.  See README.md in
this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

from tracing import Tracer
from workloads import GRID_ANGLES, GRID_RADII, WORKLOADS, CliResult

ROOT = Path(__file__).resolve().parent.parent
MIN_REQUESTS = 100  # so that p90 has ten samples beyond it
# Set-up is repeated at least SETUP_REPS times and for at least SETUP_MIN_S,
# and the median is reported: a fresh import takes only ~25 ms.
SETUP_REPS = 5
SETUP_MIN_S = 1.0
# Each request is sent once per pass and keeps its best latency, as timeit
# keeps the best of its repeats: on a shared machine, slow spells of several
# seconds otherwise decide where the median falls.
PASSES = 2
# A shared machine's speed also drifts by up to ~20% over tens of seconds,
# longer than a run.  So every PROBE_EVERY_S of request time a fixed task that
# never touches harmfrac is timed, and each time is scaled by
# PROBE_REF_S / (the latest probe time): reported times are those of a machine
# on which the probe takes 1 ms.  The raw times are reported beside them.
PROBE_REF_S = 1e-3
PROBE_EVERY_S = 0.25


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """q-th percentile, linear between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no values")
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def probe() -> float:
    """Best of 3 timings of a fixed pure-Python task (about 1 ms)."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc: dict[int, float] = {}
        s = 0.0
        for i in range(2000):
            acc[i] = math.lgamma(i * 0.37 + 1.0) + s
            s += acc[i] * 1e-9
        best = min(best, time.perf_counter() - t0)
    return best


class Sample(NamedTuple):
    raw: list[float]  # best latency of each request over the passes, s
    scaled: list[float]  # the same, each pass's time scaled by the probe
    probes: list[float]
    failures: list[tuple[int, str]]
    attempted: int


def fresh_import():
    """Import harmfrac (and its CLI) anew from ``src/`` of this checkout."""
    src = ROOT / "src"
    if not (src / "harmfrac" / "__init__.py").is_file():
        raise BenchError(f"no harmfrac package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "harmfrac" or n.startswith("harmfrac.")]:
        del sys.modules[name]
    hf = importlib.import_module("harmfrac")
    importlib.import_module("harmfrac.cli")
    if Path(hf.__file__).resolve().parent != (src / "harmfrac").resolve():
        raise BenchError(f"imported harmfrac from {hf.__file__}, not from {src}")
    return hf


def measure(wl, hf, seconds: float, min_requests: int, passes: int = PASSES, count=None,
            tracer=None) -> Sample:
    """Closed loop.  The first pass sends requests 0, 1, ... until
    ``seconds / passes`` of request time have passed and ``min_requests`` have
    completed (exactly ``count`` if given); each later pass sends the same
    requests again."""
    raw: list[float] = []
    scaled: list[float] = []
    probes: list[float] = []
    failures: list[tuple[int, str]] = []
    attempted = 0
    for rep in range(passes):
        wl.bind(hf)
        busy = 0.0
        since_probe = math.inf
        i = 0
        while (i < count) if count is not None else (busy < seconds / passes or i < min_requests):
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
            t0 = time.perf_counter()
            if tracer:
                tracer.begin_request()
            try:
                result, error = wl.request(i, rep), None
            except Exception as exc:  # a failed request is counted, never retried
                result, error = None, f"raised {exc!r}"
            finally:
                if tracer:
                    tracer.end_request()
            dt = time.perf_counter() - t0
            busy += dt
            since_probe += dt
            dt_scaled = dt * PROBE_REF_S / probes[-1]
            if rep == 0:
                raw.append(dt)
                scaled.append(dt_scaled)
            else:
                raw[i] = min(raw[i], dt)
                scaled[i] = min(scaled[i], dt_scaled)
            if tracer and isinstance(result, CliResult):
                size = result.output.stat().st_size if result.output.exists() else 0
                tracer.record_cli(result.code, result.stdout, size)
            if error is None:
                try:
                    error = wl.check(i, rep, result)
                except Exception as exc:
                    error = f"check raised {exc!r}"
            if error is not None:
                failures.append((i, error))
            i += 1
        count = i
        attempted += i
    return Sample(raw, scaled, probes, failures, attempted)


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result line dict, meta dict, report lines)."""
    workdir = ROOT / "bench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](seed, workdir)
        setup_times = []
        setup_scaled = []
        while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
            speed = probe()
            t0 = time.perf_counter()
            hf = fresh_import()
            wl.write_inputs()
            setup_times.append(time.perf_counter() - t0)
            setup_scaled.append(setup_times[-1] * PROBE_REF_S / speed)
        m = measure(wl, hf, seconds, MIN_REQUESTS)
        n = len(m.raw)
        ops_per_s = n / sum(m.scaled)
        failed, attempted = len(m.failures), m.attempted
        end_to_end = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (percentile(m.scaled, 50) * 1e3, "ms"),
            "latency_p90_ms": (percentile(m.scaled, 90) * 1e3, "ms"),
            "success_ratio": (1 - failed / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": n / sum(m.raw),
            "latency_p50_ms": percentile(m.raw, 50) * 1e3,
            "latency_p90_ms": percentile(m.raw, 90) * 1e3,
            "probe_ms": statistics.median(m.probes) * 1e3,
        }
        lines = [
            f"workload {workload}  seed {seed}  one client, closed loop, "
            f"{n} requests x {PASSES} passes, best latency of each",
            f"  {'metric':<16} {'scaled':<22} {'raw':<22} unit",
        ]
        lines += [
            f"  {k:<16} {v:<22.10g} {raw.get(k, v):<22.10g} {u}" for k, (v, u) in end_to_end.items()
        ]
        lines.append(f"  {'fail_ratio':<16} {failed / attempted:<22.10g} {'':<22} ratio ({failed}/{attempted})")
        lines.append(f"  {'probe_ms':<16} {PROBE_REF_S * 1e3:<22.10g} {raw['probe_ms']:<22.10g} ms (median)")
        metrics = end_to_end
        failures = m.failures
        traced_n = 0
        if trace:
            hf = fresh_import()
            tracer = Tracer(hf)
            traced_n = wl.traced_requests
            t = measure(wl, hf, 0, 0, passes=1, count=traced_n, tracer=tracer)
            failures += t.failures
            attempted, failed = attempted + traced_n, failed + len(t.failures)
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = (ops_per_s / (traced_n / sum(t.scaled)), "ratio")
            lines.append(f"traced phase: {traced_n} requests, {len(t.failures)} failed")
            lines += [f"  {k:<36} {v:<22.10g} {u}" for k, (v, u) in metrics.items()]
        meta = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "requests": n,
            "passes": PASSES,
            "traced_requests": traced_n,
            "setup_reps": len(setup_times),
            "raw": raw,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "git_sha": git_sha(ROOT),
            "harmfrac_version": hf.__version__,
            "grid": {"radii": list(GRID_RADII), "angles": GRID_ANGLES},
        }
        for i, error in failures[:5]:
            print(f"request {i} failed: {error}", file=sys.stderr)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        return result, meta, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, meta, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
