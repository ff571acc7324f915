"""allocsim benchmark: timed CLI workloads, output checks and a traced run.

Usage, from the repository root:

    python3 bench/run.py --workload kitchen-model --seed 1 --seconds 25 --trace 0

Every job is one ``allocsim.cli.main(argv)`` call in this process (a
closed loop with one client). The runner times at least two whole passes
over the workload's job pool, more while the next would end within
``--seconds``, and checks each job's outputs outside the timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` repeats the
untimed passes with spans around every layer (see tracer.py), checks that
the traced digest equals the untraced one, and prints the per-layer
metrics. Metric names and units come from BENCHMARK.json at the root.

The last stdout line is one JSON object: correct, attempted, failed,
metrics. Run artifacts (job outputs, spans, the full result with its
environment block) go under .bench_out/ at the repository root.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGEST_FILE = BENCH_DIR / "digest.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# A second pass checks determinism on every run, and times each of the two
# long kitchen-long jobs twice.
MIN_PASSES = 2
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
TAIL_MIN_BEYOND = 10


@dataclass
class JobResult:
    wall: float
    ok: bool
    record: Any
    stats: dict[str, int]


def _import_program():
    """Import allocsim from this checkout's src/, never from an installed copy."""
    if not (SRC / "allocsim" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/allocsim not found; run from an allocsim checkout")
    sys.path.insert(0, str(SRC))
    import allocsim

    if SRC.resolve() not in Path(allocsim.__file__).resolve().parents:
        raise SystemExit(f"error: imported allocsim from {allocsim.__file__}, not {SRC}")


def _digest(records: list[Any]) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, workload: Any, run_dir: Path):
        from allocsim import cli

        self.cli = cli
        self.workload = workload
        self.run_dir = run_dir
        self.job_id = 0
        self.errors: list[str] = []

    def run(self, job: Any, tracer: Any = None) -> JobResult:
        out = self.run_dir / f"job{self.job_id}"
        argv = job.argv + ["--output", str(out)]
        error = None
        if tracer is not None:
            tracer.job = self.job_id
        self.job_id += 1
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)  # looked up per call, so a tracer's wrapper applies
            except Exception:
                code, error = None, traceback.format_exc()
            wall = time.perf_counter() - start
        if tracer is not None:
            tracer.job = None
        record, stats = None, {}
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                record, stats = self.workload.check(job, out)
                stats["artifact_bytes"] = _dir_bytes(out)
            except Exception:
                error = traceback.format_exc()
        shutil.rmtree(out, ignore_errors=True)
        if error is not None:
            self.errors.append(f"{' '.join(job.argv)}\n{error}")
        return JobResult(wall, error is None, record, stats)

    def passes(self, jobs: list[Any], seconds: float | None = None, count: int | None = None,
               tracer: Any = None) -> list[list[JobResult]]:
        """Whole passes over the pool: ``count`` of them, or while the next fits in ``seconds``."""
        done: list[list[JobResult]] = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            done.append([self.run(job, tracer) for job in jobs])
            if count is not None:
                if len(done) >= count:
                    return done
                continue
            now = time.perf_counter()
            if len(done) >= MIN_PASSES and now - start + (now - pass_start) > seconds:
                return done


def _deterministic(passes: list[list[JobResult]], reference: list[Any]) -> int:
    """Fail, and count, the jobs whose record differs from the same job's in the reference pass."""
    bad = 0
    for results in passes:
        for result, expected in zip(results, reference):
            if result.ok and result.record != expected:
                result.ok = False
                bad += 1
    return bad


def _tail(walls: list[float]) -> dict[str, Any] | None:
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples beyond it (nearest rank)."""
    ordered = sorted(walls)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1 - pct / 100) >= TAIL_MIN_BEYOND:
            rank = math.ceil(pct / 100 * len(ordered))
            return {"percentile": pct, "ms": ordered[rank - 1] * 1e3, "samples": len(ordered)}
    return None


def _end_to_end(passes: list[list[JobResult]], setup_s: float) -> dict[str, float]:
    # Each job is timed at its fastest pass. On a host shared with other
    # tenants, execution slows in bursts shorter than a job; a job's fastest
    # repeat is the time least touched by them, and varies less between runs
    # than its mean or median (NOTES.md).
    fastest = [min(repeats, key=lambda r: r.wall) for repeats in zip(*passes)]
    walls = [r.wall for r in fastest]
    return {
        "setup_s": setup_s,
        "job_ms_p50": statistics.median(walls) * 1e3,
        "work_per_s": sum(r.stats.get("work", 0) for r in fastest) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


LAYER_METRICS = (
    ("kitchen.step", ("calls", "ms", "self_ms")),
    ("kitchen.copy", ("calls", "ms")),
    ("kitchen.render", ("calls", "ms")),
    ("kitchen.load_level", ("ms",)),
    ("coordination.run_episode", ("calls", "ms", "self_ms")),
    ("coordination.parse", ("calls", "ms")),
    ("coordination.planner_replan", ("calls", "ms", "self_ms")),
    ("policies.scripted", ("calls", "ms")),
    ("policies.gateway", ("self_ms",)),
    ("gateway.complete", ("calls", "ms", "self_ms")),
    ("gateway.encode", ("ms",)),
    ("gateway.send", ("ms",)),
    ("gateway.decode", ("ms",)),
    ("accounting.record_call", ("calls", "ms")),
    ("accounting.efficiency", ("calls", "ms")),
    ("accounting.capability_update", ("calls", "ms")),
    ("assignment.hungarian_solve", ("calls", "ms", "self_ms")),
    ("assignment.lsa", ("calls", "ms")),
    ("assignment.cost_matrix_init", ("calls", "ms")),
    ("assignment.grade", ("ms",)),
    ("assignment.score_batch", ("self_ms",)),
    ("cli.main", ("ms", "self_ms")),
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _per_layer(tracer: Any, results: list[JobResult], untraced_wall: float) -> dict[str, float]:
    """Per-job layer totals of the traced passes, plus ratios taken at the same boundaries."""
    calls, inclusive, own = tracer.totals()
    jobs = len(results)
    metrics: dict[str, float] = {}
    for layer, keys in LAYER_METRICS:
        totals = {"calls": calls[layer], "ms": inclusive[layer] / 1e6, "self_ms": own[layer] / 1e6}
        for key in keys:
            metrics[f"{layer}.{key}"] = totals[key] / jobs

    def stat(key: str) -> int:
        return sum(r.stats.get(key, 0) for r in results)

    metrics.update({
        "kitchen.copy.per_step": _ratio(calls["kitchen.copy"], calls["kitchen.step"]),
        "kitchen.render.per_step": _ratio(calls["kitchen.render"], calls["kitchen.step"]),
        "kitchen.render.bytes_per_call": _ratio(
            tracer.bytes["kitchen.render"], tracer.byte_calls["kitchen.render"]),
        "coordination.fallback_frac": _ratio(stat("fallbacks"), stat("agent_steps")),
        "gateway.attempts_per_call": _ratio(calls["gateway.send"], calls["gateway.complete"]),
        "gateway.failed_frac": _ratio(tracer.failures["gateway.complete"], calls["gateway.complete"]),
        "gateway.request_bytes_per_call": _ratio(
            tracer.bytes["gateway.encode"], tracer.byte_calls["gateway.encode"]),
        "assignment.lsa.calls_per_solve": _ratio(
            calls["assignment.lsa"], calls["assignment.hungarian_solve"]),
        "assignment.valid_frac": _ratio(stat("valid"), stat("graded")),
        "cli.artifact_bytes": stat("artifact_bytes") / jobs,
        "trace.overhead_frac": sum(r.wall for r in results) / untraced_wall - 1,
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true",
                        help=f"store this run's digest as the pinned one (seed {DEFAULT_SEED} only)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _import_program()
    import numpy
    import scipy
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.record_digest and args.seed != DEFAULT_SEED:
        parser.error(f"--record-digest needs --seed {DEFAULT_SEED}")
    import_s = time.perf_counter() - _PROCESS_START

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        runner = Runner(workload, run_dir / "jobs")
        problems = []
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = run_dir / f"inputs{repeat}"
            inputs.mkdir()
            jobs = workload.build(inputs)
            warm = runner.run(workload.warmup(jobs))
            setup_times.append(time.perf_counter() - start)
            if not warm.ok:
                problems.append("the warm-up job failed")
                break
        setup_s = import_s + statistics.median(setup_times)

        passes = runner.passes(jobs, seconds=args.seconds)
        reference = [r.record for r in passes[0]]
        digest = _digest(reference)
        if not all(r.ok for r in passes[0]):
            problems.append("a job of the first pass failed, so its digest is incomplete")
        if _deterministic(passes[1:], reference):
            problems.append("a later pass produced different outputs from the first")
        results = [r for p in passes for r in p]

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_passes = runner.passes(jobs, count=len(passes), tracer=tracer)
            finally:
                tracer.uninstall()
            if _deterministic(traced_passes, reference):
                problems.append("the traced run's outputs differ from the untraced run's")
            traced = [r for p in traced_passes for r in p]
            metrics = _per_layer(tracer, traced, sum(r.wall for r in results))
            tracer.write(run_dir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl")
            results += traced
            declared = spec["per_layer"]
        else:
            metrics = _end_to_end(passes, setup_s)
            declared = spec["end_to_end"]

        pinned = json.loads(DIGEST_FILE.read_text(encoding="utf-8")) if DIGEST_FILE.is_file() else {}
        if args.record_digest and not problems:
            pinned[args.workload] = digest
            DIGEST_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        if args.seed == DEFAULT_SEED and pinned.get(args.workload) != digest:
            problems.append(f"digest {digest} differs from the pinned {pinned.get(args.workload)}")

        units = {m["name"]: m["unit"] for m in declared}
        if set(units) != set(metrics):
            raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                             "do not match BENCHMARK.json")
        failed = sum(not r.ok for r in results)
        for error in runner.errors[:3]:
            print(f"job failed: {error}", file=sys.stderr)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

        environment = {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "git_commit": _git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "loop": "closed, 1 client, jobs back to back in one process",
            "jobs": {"pool": len(jobs), "passes": len(passes), "timed": len(passes) * len(jobs)},
            "job_ms_tail": _tail([r.wall for p in passes for r in p]),
            "setup_repeats_s": setup_times,
            "digest": digest,
        }
        outcome = {
            "correct": failed == 0 and not problems,
            "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"environment": environment, **outcome}, indent=2) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print("environment: " + json.dumps(environment, sort_keys=True))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
