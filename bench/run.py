"""eprod benchmark: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload ladder_families --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (or anywhere: paths are taken from this
file).  The program is the pure-Python package under ``src/``; nothing is
built.

With ``--trace 0`` the command starts five fresh processes, one after the
other, each of which imports eprod, makes and parses the workload's inputs
(set-up) and runs the first operation with cold caches; then one more fresh
process runs whole rounds of the workload for ``--seconds`` seconds in a
closed loop, one caller, each operation starting when the previous one has
returned.  With ``--trace 1`` only that last process runs, with the span
tracer of ``tracing.py`` installed, and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the machine, every operation and (traced) the spans, is written under
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PROBES = 5
WORKLOAD_NAMES = ("ladder_families", "point_pairings", "adjoint_words")

# the whole command ends within this many seconds, result or not
DEADLINE = 170

_CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _arguments(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("bench", "probe", "run"), default="bench",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- child processes -------------------------------------------------------------------


def _setup(args, tracer=None):
    """Import eprod and make and parse the inputs: the set-up a user pays."""
    sys.path.insert(0, str(SRC))
    import eprod  # noqa: F401  (timed: the import is part of set-up)

    if tracer is not None:
        import tracing

        tracing.install(tracer)
    import workloads

    return workloads.build(args.workload, args.seed)


def _attempt(op):
    """(seconds, error) for one operation; error is 'failed: ...' when the
    call raised, 'wrong: ...' when its check rejected the result."""
    start = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an operation that raises counts as failed
        return time.perf_counter() - start, f"failed: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    problem = op.check(result)
    return elapsed, (None if problem is None else f"wrong: {problem}")


def _probe(args):
    rounds = _setup(args)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    op = rounds[0][0]
    seconds, error = _attempt(op)
    print(json.dumps({"label": op.label, "seconds": seconds, "error": error}))


def _machine():
    import mpmath

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cores": os.cpu_count(),
        "cores_usable": usable,
        "machine": platform.machine(),
        "system": platform.platform(),
    }


def _run(args):
    """Whole rounds in a closed loop until --seconds have passed."""
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    layers = None
    rounds = _setup(args, tracer)
    ops_log = []
    round_times = []
    peak_mb = []  # after each round
    start = time.perf_counter()
    index = 0
    while True:
        spent = 0.0
        for op in rounds[index % len(rounds)]:
            seconds, error = _attempt(op)
            spent += seconds
            ops_log.append({"round": index, "label": op.label, "seconds": seconds, "error": error})
        round_times.append(spent)
        peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None and index == 0:
            # per-layer figures cover set-up and the first pass, as wall_s does
            layers = tracing.layer_metrics(tracer)
        index += 1
        if time.perf_counter() - start >= args.seconds:
            break
    report = {
        "machine": _machine(),
        "rounds": len(round_times),
        "round_seconds": round_times,
        "peak_rss_mb_by_round": peak_mb,
        "ops": ops_log,
    }
    if tracer is not None:
        report["layers"] = layers
        OUT.mkdir(exist_ok=True)
        tracer.dump(
            OUT / f"{args.workload}-seed{args.seed}-spans.json",
            {"workload": args.workload, "seed": args.seed, "machine": report["machine"]},
        )
    print(json.dumps(report))


# -- the command -----------------------------------------------------------------------


def _child(args, role):
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    env = dict(os.environ, **_CHILD_ENV)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=str(ROOT))


def _finish(proc, deadline):
    """Wait for a child; kill it at the deadline.  Returns its stdout."""
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"the benchmark did not end within {DEADLINE} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child process exited with {proc.returncode}:\n{err[-4000:]}")
    return out


def _probe_once(args, deadline):
    """(set-up seconds, first-operation record) from one fresh process."""
    start = time.perf_counter()
    proc = _child(args, "probe")
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            ready = ""
            if sel.select(timeout=max(0.0, deadline - start)):
                ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out = _finish(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready":
        raise BenchError(f"probe did not reach the end of set-up: {ready!r}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def _bench(args):
    if not (SRC / "eprod" / "__init__.py").is_file():
        raise BenchError(f"no eprod sources under {SRC}; run from a checkout of the repository")
    deadline = time.perf_counter() + DEADLINE
    probes = []
    if not args.trace:
        probes = [_probe_once(args, deadline) for _ in range(PROBES)]
    run = json.loads(_finish(_child(args, "run"), deadline).strip().splitlines()[-1])

    records = [p[1] for p in probes] + run["ops"]
    failed = sum(1 for r in records if r["error"] and r["error"].startswith("failed"))
    wrong = [r for r in records if r["error"] and r["error"].startswith("wrong")]
    # op_p50_s and wall_s come from the rounds after the first, which filled
    # the caches; a run of one round falls back to that round
    warm = [r for r in run["ops"] if r["round"] > 0] or run["ops"]
    op_times = [r["seconds"] for r in warm if not r["error"]]
    round_times = run["round_seconds"][1:] or run["round_seconds"]
    if args.trace:
        metrics = run["layers"]
    else:
        if not op_times:
            raise BenchError("no operation succeeded")
        metrics = {
            "setup_s": {"value": statistics.median(p[0] for p in probes), "unit": "s"},
            "first_result_s": {
                "value": statistics.median(p[1]["seconds"] for p in probes), "unit": "s",
            },
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "wall_s": {"value": statistics.median(round_times), "unit": "s"},
            # after one pass over the inputs: later rounds add fresh inputs
            # to eprod's caches, and how many rounds fit depends on speed
            "peak_rss_mb": {"value": run["peak_rss_mb_by_round"][0], "unit": "MB"},
        }
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": run["machine"],
        "result": result,
        "setup_probes": [{"setup_s": s, **first} for s, first in probes],
        "rounds": run["rounds"],
        "round_seconds": run["round_seconds"],
        "peak_rss_mb_by_round": run["peak_rss_mb_by_round"],
        "ops": run["ops"],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for r in wrong:
        print(f"wrong result: {r['label']}: {r['error']}", file=sys.stderr)
    print(json.dumps(result))


def main(argv=None) -> int:
    args = _arguments(argv)
    if args.role == "probe":
        _probe(args)
    elif args.role == "run":
        _run(args)
    else:
        try:
            _bench(args)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
