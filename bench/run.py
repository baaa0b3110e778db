"""sigmarket benchmark: one process, one thread, a closed loop.

    python3 bench/run.py --workload {sweep,audit,oracle} --seed N --seconds S --trace {0,1}

A single client sends its next operation only after the previous one has
returned and its answer has been checked.  The seed fixes the inputs, which
are written to a temporary directory under `.bench_tmp/` before any timing
starts.  Operations go through `sigmarket.cli.main([...])` in-process, so
argument parsing, JSON loading and artifact writing are timed; the planted
audits, which the CLI cannot express, call `deviation_audit` directly.

--trace 0 prints the end-to-end metrics.  --trace 1 runs whole passes over
the input pool untraced, then the same passes with every layer wrapped (see
tracing.py), and prints the per-layer metrics per operation together with the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it is the
full record (environment, sample counts, digests).  --ops N runs exactly N
operations instead of timing, for the determinism test.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import workloads
from tracing import REQUEST, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100  # at least ten samples beyond latency_p90
HARD_STOP_S = 150.0  # timed phases end by then, whatever --seconds says
SETUP_PROBES = 8  # fresh processes timed for setup_s, besides this one

# (span, measures) in report order; see README.md for what each should move
LAYER_SPANS = (
    ("market.inverse", ("calls", "busy_s")),
    ("subgame.mimic_frontier", ("calls", "self_s")),
    ("subgame.construct_epbe", ("calls", "self_s")),
    ("refinement.verify_pbe", ("calls", "busy_s")),
    ("refinement.verify_extended_d1", ("calls", "busy_s")),
    ("refinement.check_minimality", ("calls", "self_s")),
    ("refinement.brute_force", ("calls", "self_s")),
    ("outer.solve", ("calls", "busy_s")),
    ("outer.deviation_audit", ("calls", "self_s")),
    (REQUEST, ("self_s",)),
)

# Spans predicted hot on each workload: a traced run that records no call of
# one of them has lost a wrapper (an import alias it did not replace).
HOT = {
    "sweep": ("market.inverse", "outer.solve", REQUEST),
    "audit": (
        "market.inverse",
        "subgame.mimic_frontier",
        "subgame.construct_epbe",
        "refinement.verify_pbe",
        "refinement.verify_extended_d1",
        "refinement.brute_force",
        "outer.solve",
        "outer.deviation_audit",
        REQUEST,
    ),
    "oracle": (
        "market.inverse",
        "subgame.mimic_frontier",
        "subgame.construct_epbe",
        "refinement.verify_pbe",
        "refinement.verify_extended_d1",
        "refinement.check_minimality",
        "refinement.brute_force",
        REQUEST,
    ),
}


class Log:
    """Latencies, verdicts and artifact digests of one phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.verdicts: Counter = Counter()
        self.wrong: list[str] = []
        self.digest = hashlib.sha256()
        self._first: dict[int, str] = {}

    def record(self, runner: workloads.Runner, op: dict, seconds: float, verdict: str) -> None:
        if verdict in (workloads.OK, workloads.MISMATCH):
            try:
                digest = workloads.digest_files(runner.artifacts(op))
            except OSError as exc:
                verdict = f"artifact unreadable: {exc}"
            else:
                self.digest.update(f"{op['id']}:{digest}\n".encode())
                if self._first.setdefault(op["id"], digest) != digest:
                    verdict = "artifact differs from an earlier run of the same input"
        self.latencies.append(seconds)
        self.verdicts[verdict] += 1
        if verdict not in (workloads.OK, workloads.MISMATCH):
            self.wrong.append(f"op {op['id']} ({op['kind']}): {verdict}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        """Operations with a wrong answer; an oracle mismatch is not one."""
        return self.attempted - self.verdicts[workloads.OK] - self.mismatched

    @property
    def mismatched(self) -> int:
        return self.verdicts[workloads.MISMATCH]


def run_ops(runner, manifest, log, deadline, *, seconds=0.0, max_ops=0, whole_passes=False, tracer=None):
    """Closed loop over the pool; returns (operations, wall seconds)."""
    pool = manifest["ops"]
    start = time.perf_counter()
    done = 0
    while True:
        op = pool[done % len(pool)]
        t0 = time.perf_counter()
        if tracer:
            tracer.enter(REQUEST)
        try:
            codes = runner.run(op)
        except Exception as exc:  # an operation that raises counts as failed
            codes, verdict = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.exit()
        latency = time.perf_counter() - t0
        if codes is not None:
            try:
                verdict = runner.check(op, codes)
            except Exception as exc:  # a check that cannot run counts as failed
                verdict = f"check could not run: {type(exc).__name__}: {exc}"
        log.record(runner, op, latency, verdict)
        done += 1
        elapsed = time.perf_counter() - start
        if max_ops:
            finished = done >= max_ops
        elif whole_passes:
            finished = done % len(pool) == 0 and elapsed >= seconds
        else:
            finished = done >= MIN_OPS and elapsed >= seconds
        if finished or time.perf_counter() > deadline:
            return done, elapsed


def set_up(manifest: dict) -> tuple[workloads.Runner, float, list[str]]:
    """Import sigmarket and run the warm-up operations; return the runner,
    the time taken and any wrong answers among the warm-ups."""
    t0 = time.perf_counter()
    runner = workloads.Runner()
    wrong = []
    for op in manifest["warmup"]:
        verdict = runner.check(op, runner.run(op))
        if verdict not in (workloads.OK, workloads.MISMATCH):
            wrong.append(f"warm-up {op['kind']} op: {verdict}")
    return runner, time.perf_counter() - t0, wrong


def setup_probe(manifest_path: str) -> int:
    """Child-process mode: time set-up from a process without sigmarket."""
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    _, seconds, wrong = set_up(manifest)
    print(json.dumps({"setup_s": seconds, "wrong": wrong}))
    return 0


def probe_setups(manifest_path: Path) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", str(manifest_path)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probe = json.loads(proc.stdout.splitlines()[-1])
        if probe["wrong"]:
            raise RuntimeError(f"set-up probe got wrong answers: {probe['wrong']}")
        samples.append(probe["setup_s"])
    return samples


def environment(manifest: dict) -> dict:
    sha = None  # the benchmark checkout need not be a git repository
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    src = hashlib.sha256()
    for path in sorted((SRC / "sigmarket").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_digest": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "workload": manifest["workload"],
        "seed": manifest["seed"],
        "pool_ops": len(manifest["ops"]),
        "inputs_digest": manifest["inputs_digest"],
    }


def end_to_end(log: Log, ops: int, elapsed: float, setups: list[float]) -> dict:
    deciles = statistics.quantiles(log.latencies, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "throughput_ops_s": (ops / elapsed, "ops/s", ops),
        "latency_p50_ms": (deciles[4] * 1e3, "ms", ops),
        "latency_p90_ms": (deciles[8] * 1e3, "ms", ops),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(tr: Tracer, ops: int, overhead: float, mismatch: float) -> dict:
    out = {}
    for span, measures in LAYER_SPANS:
        for measure in measures:
            if measure == "calls":
                out[f"{span}.calls"] = (tr.calls[span] / ops, "calls/op", ops)
            else:
                table = tr.busy if measure == "busy_s" else tr.self_time
                out[f"{span}.{measure}"] = (table[span] / ops, "s/op", ops)
        if span == "subgame.construct_epbe":
            out[f"{span}.separating_frac"] = (tr.counts["separating"] / max(tr.calls[span], 1), "share", ops)
        elif span == "refinement.brute_force":
            kept = tr.counts["oracle_kept"] / max(tr.counts["oracle_verified"], 1)
            out[f"{span}.kept_per_verified"] = (kept, "share", ops)
            out[f"{span}.mismatch_frac"] = (mismatch, "share", ops)
        elif span == "outer.deviation_audit":
            out[f"{span}.deviations"] = (tr.counts["deviations"] / ops, "entries/op", ops)
            out[f"{span}.replays"] = (tr.counts["replays"] / ops, "entries/op", ops)
    out["trace.overhead_frac"] = (overhead, "share", ops)
    return out


def measure(args, work: Path) -> dict:
    manifest = workloads.build(args.workload, args.seed, work)
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    setups = probe_setups(manifest_path) if not args.trace and not args.ops else []
    runner, seconds, wrong = set_up(manifest)
    setups.append(seconds)

    log = Log()
    log.wrong.extend(wrong)
    record = environment(manifest)
    deadline = time.perf_counter() + HARD_STOP_S
    if not args.trace:
        ops, elapsed = run_ops(runner, manifest, log, deadline, seconds=args.seconds, max_ops=args.ops)
        metrics = end_to_end(log, ops, elapsed, setups)
    else:
        half = args.seconds / 2.0
        ops_u, elapsed_u = run_ops(
            runner, manifest, log, deadline - HARD_STOP_S / 2, seconds=half, max_ops=args.ops, whole_passes=True
        )
        tracer = Tracer()
        tracer.install()
        try:
            ops, elapsed = run_ops(
                runner, manifest, log, deadline, seconds=half, max_ops=args.ops, whole_passes=True, tracer=tracer
            )
        finally:
            tracer.uninstall()
        overhead = 1.0 - (ops / elapsed) / (ops_u / elapsed_u)
        metrics = per_layer(tracer, ops, overhead, log.mismatched / log.attempted)
        for span in HOT[args.workload]:
            if tracer.calls[span] == 0:
                log.wrong.append(f"self-check failed: {span} records no call on {args.workload}")

    record.update(
        trace=args.trace,
        ops=ops,
        attempted=log.attempted,
        failed=log.failed,
        failed_frac=log.failed / log.attempted,
        mismatched=log.mismatched,
        mismatch_frac=log.mismatched / log.attempted,
        verdicts=dict(log.verdicts),
        wrong=log.wrong[:20],
        artifacts_digest=log.digest.hexdigest(),
        metrics={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many operations")
    parser.add_argument("--setup-probe", metavar="MANIFEST", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sigmarket" / "__init__.py").is_file():
        print(f"error: no sigmarket package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        record = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    for line in record["wrong"]:
        print(f"wrong: {line}", file=sys.stderr)
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (samples={m['samples']})")
    for name in ("failed_frac", "mismatch_frac"):
        print(f"{name} = {record[name]:.6g} share (attempted={record['attempted']})")
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": not record["wrong"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
