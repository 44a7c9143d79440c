"""Benchmark for srchordal: four workloads through `srchordal.cli.main`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload betti --seed 1 --seconds 30 --trace 0

One process, one caller, no threads: a closed loop that runs the
workload's seeded corpus as whole rounds, operation after operation,
until the next round would end past `--seconds` (at least one round).
Every output is captured and checked by `checks.py`. The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a traced run (see `tracing.py`) with `--trace 1`.

`python3 perfbench/selftest.py` shows that each check rejects a
tampered output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import corpus
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

# setup_s is the median of SETUP_REPEATS fresh-interpreter imports,
# spread evenly over the first round: the machine's speed moves in
# phases of seconds, and imports made back to back all land in one
# phase (see README.md).
SETUP_REPEATS = 21
SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import srchordal, srchordal.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)

# The reference kernel: the benchmark's own GF(2) upper-Koszul Betti
# computation (checks.koszul_betti_gf2) on the fixed ideal
# (x1x2, x3x5, x3x4x6, x3x4x7). It runs before every operation, and its
# mean time in the run rescales every end-to-end time to a machine on
# which it takes REFERENCE_SECONDS, its mean on the reference machine
# (a shared 2-vCPU VM, Python 3.11). That machine's speed drifts by
# 10-20 % over minutes; the kernel drifts with the program, so the
# rescaled figures repeat far better than the raw ones (see README.md).
REFERENCE_N = 7
REFERENCE_GENS = [0b11, 0b10100, 0b101100, 0b1001100]
REFERENCE_SECONDS = 1.35e-3


def load_cli():
    """Import the program from the checkout's own sources."""
    if not os.path.isfile(os.path.join(SRC, "srchordal", "cli.py")):
        sys.exit(f"perfbench: no program sources at {SRC}")
    sys.path.insert(0, SRC)
    from srchordal import cli

    return cli


def import_seconds() -> float:
    """Time a fresh interpreter takes to import srchordal and
    srchordal.cli, timed inside the child. Bytecode is cached under
    OUT whatever the environment says, so every import after the first
    of a checkout reads it, as an installed package would."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=os.path.join(OUT, "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(child.stdout.strip())


def run_round(cli, ops, paths, tracer, first_op: int, kernel_times: list[float],
              setup_times: list[float]):
    """Run every operation once, each after one reference kernel;
    returns (exit code, stdout, seconds) per operation. The first round
    also times SETUP_REPEATS fresh imports, spread over the round."""
    setup_at = {k * len(ops) // SETUP_REPEATS for k in range(SETUP_REPEATS)} if first_op == 0 else ()
    results = []
    for k, (op, path) in enumerate(zip(ops, paths)):
        argv = [op.command, path, *op.argv]
        if k in setup_at:
            setup_times.append(import_seconds())
        out, err = io.StringIO(), io.StringIO()
        k0 = time.perf_counter()
        checks.koszul_betti_gf2(REFERENCE_N, REFERENCE_GENS)
        kernel_times.append(time.perf_counter() - k0)
        if tracer is not None:
            tracer.op_id = first_op + k
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(argv)
            t1 = time.perf_counter()
        results.append((code, out.getvalue(), t1 - t0))
    return results


def p90(values) -> float:
    """The 90th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    if args.workload not in corpus.CORPORA:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(corpus.CORPORA)}")
    ops = corpus.CORPORA[args.workload](random.Random(args.seed))

    workdir = os.path.join(OUT, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        paths = []
        for k, op in enumerate(ops):
            path = os.path.join(workdir, f"{k:03d}.in")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.input_text())
            paths.append(path)

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()

        rounds: list[list[tuple[int, str, float]]] = []
        kernel_times: list[float] = []
        setup_times: list[float] = []
        start = time.perf_counter()
        while True:
            r0 = time.perf_counter()
            rounds.append(run_round(cli, ops, paths, tracer, len(rounds) * len(ops), kernel_times,
                                    setup_times))
            now = time.perf_counter()
            if now - start + (now - r0) > args.seconds:
                break
        wall = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Check every distinct output once; a deterministic program gives one per operation.
    problems = []
    failed = 0
    for k, op in enumerate(ops):
        seen = {(r[k][0], r[k][1]) for r in rounds}
        if len(seen) > 1:
            problems.append(f"op {k}: output differs between rounds")
        for code, out in seen:
            why = checks.check(op, code, out)
            problems.extend(f"op {k} ({op.kind} {op.command} {' '.join(op.argv)}): {w}" for w in why)
        failed += sum(1 for r in rounds if r[k][0] == checks.EXIT_BUDGET)
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)

    attempted = len(rounds) * len(ops)
    latencies = [res[2] for r in rounds for res in r]
    scale = REFERENCE_SECONDS / statistics.mean(kernel_times)
    raw_rate = (attempted - failed) / sum(latencies)
    print(
        f"perfbench: raw ops/s {raw_rate:.4f}, p50 {1000 * statistics.median(latencies):.3f} ms, "
        f"p90 {1000 * p90(latencies):.3f} ms; reference kernel mean "
        f"{1000 * statistics.mean(kernel_times):.4f} ms, scale {scale:.4f}",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": raw_rate / scale, "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * scale * statistics.median(latencies), "unit": "ms"},
            "latency_p90_ms": {"value": 1000 * scale * p90(latencies), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        os.makedirs(OUT, exist_ok=True)
        spans = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.spans.gz")
        tracer.write(spans)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracer.layer_metrics(attempted).items()
        }
        print(
            f"perfbench: traced run: {attempted} ops, {raw_rate / scale:.4f} ops/s rescaled, "
            f"{len(tracer.start)} spans in {spans}",
            file=sys.stderr,
        )
    print(
        f"perfbench: {args.workload} seed {args.seed}: {len(rounds)} round(s) of "
        f"{len(ops)} ops in {wall:.2f} s",
        file=sys.stderr,
    )
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
