"""End-to-end benchmark of the shapley-lg command line.

One client calls ``shapley_lg.cli.main(argv)`` in this process, one call
after another (closed loop), on inputs generated from ``--seed``. Every
call's outputs are checked against references computed outside the layer
under test. Timing metrics are wall times scaled to a reference host speed,
measured by a probe loop that a timer runs during each call.

    python3 perfbench/run.py --workload compute-groups --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` timing wrappers are installed around
the package's public functions and it holds the per-layer metrics instead.
``--all`` runs every workload untraced and traced in child processes,
prints every metric with its unit and sample count and the tracing
overhead, and exits nonzero if any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: ``setup_s`` is the median of this many set-ups (the first in this
#: process, the others in fresh child processes) ...
SETUP_MAX = 5
#: ... but no more than three once those three took this long.
SETUP_BUDGET_S = 8.0
#: Seconds between speed probes while a timed section runs.
PROBE_INTERVAL_S = 0.05
#: Time limits of a child set-up and of a child run in ``--all`` mode.
SETUP_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900


def _single_client() -> None:
    """Leave SHAPLEY_LG_THREADS unset and run BLAS on one thread.

    One client with no extra threads: a BLAS pool of ``nproc`` threads made
    ``mc-blocks`` about 25% slower and its run-to-run spread several times
    wider on a 2-vCPU machine. Must run before numpy is imported.
    """
    os.environ.pop("SHAPLEY_LG_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _probe_python() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(4000):
        table[i & 255] = acc
        acc += (i * 0.5) % 7.0
    return time.perf_counter() - start


@functools.cache
def _numpy_probe_inputs():
    import numpy as np
    a = np.random.default_rng(0).standard_normal((16, 16))
    return np, a @ a.T + 16 * np.eye(16), np.arange(16)


def _probe_numpy() -> float:
    """Seconds a fixed run of small numpy steps takes now: the indexing,
    solve and dot of one scalar conditional variance, eleven times."""
    np, gamma, bits = _numpy_probe_inputs()
    start = time.perf_counter()
    for j in range(1, 12):
        sel = (j * 2731 >> bits) & 1
        u, r = np.flatnonzero(sel), np.flatnonzero(sel == 0)
        t = gamma[np.ix_(u, r)] @ gamma[0, r]
        float(t @ np.linalg.solve(gamma[np.ix_(u, u)], t))
    return time.perf_counter() - start


#: Speed probes by name, each with the seconds it takes at the reference
#: speed (its median on the machine in README.md).
PROBES = {"python": (_probe_python, 0.0006),
          "numpy": (_probe_numpy, 0.00045),
          "mixed": (lambda: _probe_python() + _probe_numpy(), 0.00105)}


def timed(fn, *args, probe_name: str = "python"):
    """Run ``fn(*args)``; return its wall time, that time at the reference
    speed, and its result.

    The host's speed drifts by up to 75% in phases of seconds, also within
    a single call. So a SIGALRM timer runs the named probe every
    ``PROBE_INTERVAL_S`` while ``fn`` runs, and once at each end. The wall
    time, less the probes' own time, is scaled by the mean speed the
    probes saw, ``reference seconds / probe seconds``.
    """
    run_probe, ref_s = PROBES[probe_name]
    samples, spent = [], 0.0

    def probe(signum=None, frame=None):
        nonlocal spent
        start = time.perf_counter()
        samples.append(run_probe())
        spent += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, probe)
    probe()
    spent = 0.0
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start - spent
        probe()
        signal.signal(signal.SIGALRM, previous)
    speed = statistics.fmean(ref_s / d for d in samples)
    return elapsed, elapsed * speed, result


def call_cli(cli_main, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI invocation, capturing its stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:          # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:                  # counted as a failed call
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class Runner:
    """Calls, checks and counts the cases of one workload."""

    def __init__(self, workload, cli_main):
        self.workload = workload
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.estimates: dict[int, list] = {}

    def execute(self, case) -> list:
        """Run every argv of one case; return their outputs."""
        return [self.cli_main(argv) for argv in case.argvs]

    def verify(self, index: int, case, outputs: list) -> None:
        """Check one case's outputs and count the call."""
        self.attempted += 1
        codes = [code for code, _, _ in outputs]
        if any(codes):
            stderr = "".join(err for _, _, err in outputs).strip()
            problems = [f"exit codes {codes}: {stderr}"]
        else:
            try:
                problems, estimates = self.workload.check(
                    case, [out for _, out, _ in outputs])
            except Exception as exc:       # a check that cannot run fails
                problems, estimates = [f"unreadable output: {exc!r}"], []
            self.estimates.setdefault(index, estimates)
        if problems:
            self.failed += 1
            self.failures.append(f"case {index}: " + "; ".join(problems))

    def call(self, index: int, case) -> tuple[float, float, int]:
        """Run and check one case; return its wall time, that time at the
        reference speed, and the report bytes written."""
        for path in case.reports:          # a report must come from this call
            path.unlink(missing_ok=True)
        gc.collect()
        elapsed, scaled, outputs = timed(self.execute, case,
                                         probe_name=self.workload.probe)
        nbytes = sum(p.stat().st_size for p in case.reports if p.exists())
        self.verify(index, case, outputs)
        return elapsed, scaled, nbytes

    def mc_rmse(self, exact) -> float:
        """RMSE of every estimate of the pool against the exact values."""
        import numpy as np
        errors = [est - exact[i]
                  for i, ests in self.estimates.items() for est in ests]
        return float(np.sqrt(np.mean(np.square(errors)))) if errors else 0.0


def set_up(name: str, seed: int, workdir: Path):
    """Import the package, generate the inputs and make one warm-up call.

    Returns the seconds this took at the reference speed, the runner, the
    cases and the warm-up outputs (checked later, once the references
    exist).
    """
    def steps():
        sys.path.insert(0, str(SRC))
        from shapley_lg import cli
        import workloads
        if name not in workloads.WORKLOADS:
            raise SystemExit(f"error: unknown workload {name!r}; have "
                             f"{', '.join(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[name]
        cases = workload.generate(seed, workdir)
        runner = Runner(workload, lambda argv: call_cli(cli.main, argv))
        return cli, runner, cases

    # The import and the inputs with the python probe (numpy is not
    # imported before ``steps``), the warm-up call with the workload's.
    _, prepare_s, (cli, runner, cases) = timed(steps)
    _, warm_up_s, outputs = timed(runner.execute, cases[0],
                                  probe_name=runner.workload.probe)
    seconds = prepare_s + warm_up_s
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: shapley_lg imported from {cli.__file__}, "
                         f"not from {SRC}")
    return seconds, runner, cases, outputs


def _setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--setup-only"], capture_output=True, text=True, check=True,
        timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout.splitlines()[-1])


def tail(times: list[float]) -> str:
    """The highest order statistic with at least 10 samples beyond it and
    its percentile, or why there is none: below 21 samples it would be the
    median or lower."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 21:
        return f"not measured, {n} calls < 21"
    return f"{ordered[n - 11]:.6g} s (p{100.0 * (n - 10) / n:.1f})"


def machine() -> dict:
    """What the figures were measured on."""
    from importlib import metadata
    info = {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy", "jsonschema"):
        info[pkg] = metadata.version(pkg)
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        first, runner, cases, outputs = set_up(name, seed, workdir)
        from shapley_lg import cli
        workload = runner.workload
        # References are computed once, outside setup_s.
        for case in cases:
            workload.reference(case)
        runner.verify(0, cases[0], outputs)

        tracer = None
        call_main = cli.main
        if trace:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            call_main = lambda argv: tracer.run("cli.main", cli.main, argv)
        runner.cli_main = lambda argv: call_cli(call_main, argv)
        raw, times, sizes = [], [], []
        start = time.perf_counter()
        try:
            i = 0
            while i < len(cases) or time.perf_counter() - start < seconds:
                elapsed, scaled, nbytes = runner.call(i % len(cases),
                                                      cases[i % len(cases)])
                raw.append(elapsed)
                times.append(scaled)
                sizes.append(nbytes)
                i += 1
        finally:
            if tracer is not None:
                tracer.uninstall()

        setups = [first]
        while not trace and len(setups) < SETUP_MAX and (
                len(setups) < 3 or sum(setups) < SETUP_BUDGET_S):
            setups.append(_setup_in_child(name, seed))
        exact = [case.expected["shapley"] for case in cases]
        calls_per_s = len(times) / sum(times)
        if trace:
            metrics = tracer.layer_metrics(len(times))
            metrics["mc_rmse"] = (runner.mc_rmse(exact)
                                  if name == "mc-blocks" else 0.0, "ratio")
            metrics["traced.calls_per_s"] = (calls_per_s, "1/s")
            counts = {k: len(times) for k in metrics}
            trace_path = WORK / f"trace-{name}.jsonl"
            tracer.dump(trace_path)
            print(f"spans: {len(tracer.spans)} written to {trace_path}")
        else:
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "calls_per_s": (calls_per_s, "1/s"),
                "call_s_p50": (statistics.median(times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024.0, "MB"),
                "report_bytes": (statistics.fmean(sizes), "bytes"),
            }
            counts = {k: len(times) for k in metrics}
            counts["setup_s"] = len(setups)
            print(f"setup_s is the median of {len(setups)} set-ups; "
                  f"timings are at the reference speed; call_s_tail "
                  f"{tail(times)}; wall times as measured: calls_per_s "
                  f"{len(raw) / sum(raw):.6g}, call_s_p50 "
                  f"{statistics.median(raw):.6g}, call_s_tail {tail(raw)}")
            if name == "mc-blocks":
                print(f"mc_rmse = {runner.mc_rmse(exact):.6g} over "
                      f"{len(cases)} cases (also in the traced run)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{len(times)} timed calls, machine {json.dumps(machine())}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit} (n={counts[key]})")
    print(f"  failed_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} calls)")
    for line in runner.failures[:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    import workloads
    ok = True
    for name in workloads.WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            results[trace] = json.loads(lines[-1])
            ok &= results[trace]["correct"]
        if len(results) == 2:
            plain = results[0]["metrics"]["calls_per_s"]["value"]
            traced = results[1]["metrics"]["traced.calls_per_s"]["value"]
            print(f"  tracing overhead on {name}: calls_per_s {plain:.6g} "
                  f"untraced - {traced:.6g} traced = {plain - traced:.6g} "
                  f"({100 * (1 - traced / plain):.1f}%)")
    print("all output checks passed" if ok else "SOME OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up of --workload and print it")
    args = parser.parse_args()
    if not (SRC / "shapley_lg" / "__init__.py").is_file():
        print(f"error: no shapley_lg package under {SRC}", file=sys.stderr)
        return 2
    _single_client()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.setup_only:
        WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK) as workdir:
            print(set_up(args.workload, args.seed, Path(workdir))[0])
        return 0
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
