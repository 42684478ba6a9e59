"""Benchmark of the occuthresh CLI: one workload, one process, one thread.

Usage, from the repository root:

    python3 perfbench/run.py --workload {solve,census,analytic} --seed N \
        --seconds S --trace {0,1}

The run first starts fresh interpreters one after another, each importing
occuthresh and generating one round's inputs, and takes the median of
their set-up times.  It then imports occuthresh itself and repeats
rounds of the workload's CLI calls, made in-process through
``occuthresh.cli.main(argv)``, while a typical round still fits in ``S``
seconds.  Output checks run after each round's timed span.  With
``--trace 1`` every round runs twice with the same inputs, untraced and
then traced, so the tracing overhead is measured on identical work.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics traced).  A copy with the machine's description goes
to ``perfbench/results/``.
"""

import os

# Pin every numeric thread pool before numpy is imported, here and in
# the set-up probes, which inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "OCCUTHRESH_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # plain probes, for setup_s
IMPORT_PROBES = 3  # -X importtime probes, for the import.* layers (traced runs only)
PROBE_TIMEOUT = 60


def import_program():
    """Import occuthresh from this checkout's src/, never an installed copy."""
    if not (SRC / "occuthresh" / "__init__.py").is_file():
        raise ImportError(f"no occuthresh package under {SRC}")
    sys.path.insert(0, str(SRC))
    import occuthresh.cli

    if Path(occuthresh.__file__).resolve().parent != SRC / "occuthresh":
        raise ImportError(f"imported occuthresh from {occuthresh.__file__}, not {SRC}")
    return occuthresh.cli


def probe(workload_name: str, seed: int, work: Path):
    """Child side of a set-up probe: import, generate round 0, report."""
    import reference
    import workloads

    import_program()
    work.mkdir(parents=True)
    workloads.WORKLOADS[workload_name]().make_round(reference.child_seed(seed, 0), work)
    print("ready", flush=True)


def run_probes(args, work: Path, count: int, importtime: bool) -> list:
    """Start ``count`` fresh interpreters in turn; set-up seconds or import logs."""
    out = []
    for i in range(count):
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), str(Path(__file__)),
               "--workload", args.workload, "--seed", str(args.seed),
               "--probe", str(work / f"probe{int(importtime)}_{i}")]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-2000:]}")
        out.append(err if importtime else ready)
    return out


def import_split(log: str) -> dict:
    """Cumulative import seconds of numpy, scipy.special and occuthresh's own modules."""
    cumulative = {}
    for line in log.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
        if match and match.group(2) not in cumulative:
            cumulative[match.group(2)] = int(match.group(1)) * 1e-6
    scipy_special = cumulative.get("scipy.special", 0.0)
    return {
        "import.numpy_s": cumulative.get("numpy", 0.0),
        "import.scipy_special_s": scipy_special,
        "import.occuthresh_s": cumulative["occuthresh"] - scipy_special,
    }


def cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_pass(cli, workload, base: int, work: Path, tracer=None):
    """One round: timed CLI calls, then checks.  Returns wall, cpu, check results."""
    work.mkdir(parents=True)
    rnd = workload.make_round(base, work)
    results = []
    if tracer:
        tracer.install()
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    try:
        for call in rnd.calls:
            try:
                code = cli.main(call.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback in the program is a failed call
                code = repr(exc)
            results.append((f"call.{call.label}", code == 0, f"exit {code}"))
    finally:
        wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        if tracer:
            tracer.uninstall()
    try:
        outputs = {c.label: c.out.read_text() for c in rnd.calls}
        results += rnd.check(outputs)
    except Exception as exc:  # an unreadable output fails the round's checks
        results.append(("checks", False, repr(exc)))
    shutil.rmtree(work)
    return wall, cpu, results


def commit_of(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = root / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def version_of(package: str):
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version_of("numpy"),
        "scipy": version_of("scipy"),
        "commit": commit_of(ROOT),
        "platform": platform.platform(),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["solve", "census", "analytic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.workload, args.seed, Path(args.probe))
        return 0
    if not (SRC / "occuthresh" / "__init__.py").is_file():
        print(f"error: no occuthresh sources under {SRC}", file=sys.stderr)
        return 2

    work = HERE / ".work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    setups = run_probes(args, work, SETUP_PROBES, importtime=False)
    splits = [import_split(log) for log in run_probes(args, work, IMPORT_PROBES, True)] if args.trace else []

    import reference
    import tracing
    import workloads

    cli = import_program()
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    walls, cpus, traced_walls, results, spans = [], [], [], [], []
    start = time.perf_counter()
    rounds = 0
    # Start another round only if a typical one, checks included, still fits.
    while rounds == 0 or time.perf_counter() - start + statistics.median(spans) <= args.seconds:
        round_start = time.perf_counter()
        base = reference.child_seed(args.seed, rounds)
        wall, cpu, checked = run_pass(cli, workload, base, work / f"round{rounds}")
        walls.append(wall)
        cpus.append(cpu)
        results += checked
        if tracer:
            wall, _, checked = run_pass(cli, workload, base, work / f"round{rounds}t", tracer)
            traced_walls.append(wall)
            results += checked
        spans.append(time.perf_counter() - round_start)
        rounds += 1
    results += workload.finish()

    failures = [r for r in results if not r[1]]
    for name, _, detail in failures:
        print(f"FAILED {name}: {detail}")
    if tracer:
        values = tracer.layer_metrics(rounds)
        for key in splits[0]:
            values[key] = statistics.median(s[key] for s in splits)
        values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, walls))
        metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in sorted(values.items())}
        coverage = sum(tracer.direct.values()) / sum(traced_walls)
        shares = {key: t / sum(traced_walls) for key, t in sorted(tracer.direct.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        coverage, shares = None, None
    summary = {
        "correct": not any(not ok and not name.startswith("call.") for name, ok, _ in results),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "traced_round_wall_s": traced_walls,
        "setup_probe_s": setups,
        "span_coverage_of_wall": coverage,
        "span_share_of_wall": shares,
        "failures": [list(f) for f in failures],
        "machine": machine(),
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload}: {rounds} rounds, round wall {[round(w, 3) for w in walls]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
