"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

1. Seeded input generation is byte-identical across two invocations.
2. On both exact routes, a report whose Shapley vector is moved by 1e-8
   (two components, so it still sums to 1) is counted as a failed call,
   and the unchanged report passes.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

PERTURBATION = 1e-8
#: Seed of the inputs the self-test generates.
SEED = 7


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def generation_is_deterministic(tmp: Path) -> bool:
    dirs = [tmp / "gen-a", tmp / "gen-b"]
    for d in dirs:
        d.mkdir()
        subprocess.run([sys.executable, __file__, "--generate", str(d)],
                       check=True, timeout=300)
    first, second = (_digests(d) for d in dirs)
    print(f"generation: {len(first)} files, "
          f"{'identical' if first == second else 'DIFFERENT'} across two "
          "invocations")
    return bool(first) and first == second


def perturbation_is_caught(name: str, tmp: Path) -> bool:
    from shapley_lg import cli
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = tmp / name
    workdir.mkdir()
    case = workload.generate(SEED, workdir)[0]
    workload.reference(case)

    def perturbed(argv):
        code, out, err = run.call_cli(cli.main, argv)
        report = case.reports[0]
        doc = json.loads(report.read_text())
        doc["shapley"][0] += PERTURBATION
        doc["shapley"][1] -= PERTURBATION
        report.write_text(json.dumps(doc))
        return code, out, err

    clean = run.Runner(workload, lambda argv: run.call_cli(cli.main, argv))
    clean.call(0, case)
    bad = run.Runner(workload, perturbed)
    bad.call(0, case)
    ok = clean.failed == 0 and bad.failed == 1
    print(f"{name}: clean report {clean.failed} failed, "
          f"perturbed report {bad.failed} failed "
          f"({bad.failures[0] if bad.failures else 'not caught'})")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--generate", metavar="DIR",
                        help="only write every workload's inputs to DIR")
    args = parser.parse_args()
    if not (run.SRC / "shapley_lg" / "__init__.py").is_file():
        print(f"error: no shapley_lg package under {run.SRC}", file=sys.stderr)
        return 2
    run._single_client()
    sys.path.insert(0, str(run.SRC))
    import workloads

    if args.generate:
        for workload in workloads.WORKLOADS.values():
            workload.generate(SEED, Path(args.generate))
        return 0
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=run.WORK) as tmp:
        tmp = Path(tmp)
        results = [generation_is_deterministic(tmp)]
        for name in ("compute-groups", "compute-dense"):
            results.append(perturbation_is_caught(name, tmp))
    print("selftest passed" if all(results) else "SELFTEST FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
