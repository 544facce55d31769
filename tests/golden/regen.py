"""Rerun the golden CLI cases, and list or rewrite the ones whose bytes differ.

Each case of :data:`CASES` runs ``shapley_lg.cli.main`` in process, in a
scratch directory holding a copy of ``inputs/``, so that file names in
messages are the same on every machine. Its stdout, stderr and exit code,
and the report it writes to ``out.json`` if any, are kept byte for byte in
``expected/<case>/``.

    python tests/golden/regen.py           # list the cases whose bytes differ
    python tests/golden/regen.py --write   # and rewrite them

Run it from the repository root with ``src`` on ``PYTHONPATH``. Without
``--write`` it exits 1 when a case differs. A change that rewrites the
files names them, and says why they changed, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

from shapley_lg.cli import main as cli_main

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
#: The report file a case may write, named in its ``--out``.
OUT = "out.json"
#: A top-level key of a report, as ``json.dumps(..., indent=2)`` writes it.
TOP_KEY = re.compile(r'  "([^"]+)":')

_MC = ["mc", "--model", "expr4.json", "--dist", "dist4.json", "--m", "20",
       "--n-outer", "20", "--seed", "1", "--out", OUT]
_NOT_PSD = ["mc", "--model", "expr-sum3.json", "--dist",
            "dist-group-not-psd.json", "--m", "20", "--n-outer", "20",
            "--out", OUT]

#: Command line of each case, run in a copy of ``inputs/``.
CASES = {
    "generate-dense": ["generate", "--p", "5", "--seed", "7", "--out", OUT],
    "generate-blocks": ["generate", "--k", "2", "--n", "3", "--seed", "1",
                        "--out", OUT],
    "generate-stdout": ["generate", "--p", "2", "--seed", "4"],
    "compute-dense": ["compute", "--model", "dense5.json", "--out", OUT],
    "compute-dense-stdout": ["compute", "--model", "interleaved.json"],
    "compute-groups": ["compute", "--model", "blocks2x3.json", "--groups",
                       "--out", OUT],
    "compute-groups-interleaved": ["compute", "--model", "interleaved.json",
                                   "--groups", "--out", OUT],
    "compute-groups-eps-block": ["compute", "--model", "interleaved.json",
                                 "--groups", "--eps-block", "0.35",
                                 "--out", OUT],
    "compute-singular": ["compute", "--model", "singular.json", "--out", OUT],
    "compute-groups-zero-variance": ["compute", "--model", "zero-group.json",
                                     "--groups", "--out", OUT],
    "compute-groups-33x2": ["compute", "--model", "33x2.json", "--groups",
                            "--out", OUT],
    "estimate-reps-1": ["estimate", "--model", "dense5.json", "--m", "50",
                        "--seed", "3", "--out", OUT],
    "estimate-random-perm-stdout": ["estimate", "--model", "dense5.json",
                                    "--method", "random-perm", "--m", "50",
                                    "--seed", "3"],
    "estimate-reps-10": ["estimate", "--model", "singular.json", "--m", "20",
                         "--reps", "10", "--seed", "2", "--out", OUT],
    "estimate-reps-10-stdout": ["estimate", "--model", "interleaved.json",
                                "--m", "20", "--reps", "10", "--seed", "2"],
    "estimate-exact-perm": ["estimate", "--model", "dense5.json", "--method",
                            "exact-perm", "--out", OUT],
    "mc": _MC,
    "mc-blocks": _MC + ["--blocks"],
    # expr4.json without its blocks key, which --blocks does not read
    "mc-blocks-no-key": ["mc", "--model", "expr4-no-key.json",
                         *_MC[3:], "--blocks"],
    "mc-group-not-psd": _NOT_PSD,
    "mc-blocks-group-not-psd": _NOT_PSD + ["--blocks"],
    "exit-2-not-psd": ["compute", "--model", "not-psd.json", "--out", OUT],
    "exit-3-budget": _MC + ["--budget", "10"],
    "exit-4-not-json": ["compute", "--model", "not-json.json", "--out", OUT],
}


def run_case(argv: list[str]) -> dict[str, bytes]:
    """The files of one run of ``argv``: ``stdout``, ``stderr``, ``exit``
    and, when the run wrote it, ``out.json``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(INPUTS, tmp, dirs_exist_ok=True)
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
            report = Path(OUT)
            files = {OUT: report.read_bytes()} if report.exists() else {}
        finally:
            os.chdir(cwd)
    return {"stdout": stdout.getvalue().encode(),
            "stderr": stderr.getvalue().encode(),
            "exit": f"{code}\n".encode(), **files}


def _kept(name: str) -> dict[str, bytes]:
    return {path.name: path.read_bytes()
            for path in sorted((EXPECTED / name).iterdir())}


def _first_difference(name: str, got: dict[str, bytes],
                     want: dict[str, bytes]) -> str | None:
    """Where case ``name``'s files ``got`` first differ from ``want``, with
    the top-level report key above that line and the number of differing
    lines in that file, or None when every byte matches."""
    for file in sorted(set(got) | set(want)):
        if file not in want or file not in got:
            return (f"{name}: {file} is "
                    f"{'new' if file not in want else 'no longer written'}")
        if got[file] != want[file]:
            new = got[file].decode().splitlines(keepends=True)
            old = want[file].decode().splitlines(keepends=True)
            line = next((i for i, (a, b) in enumerate(zip(new, old))
                         if a != b), min(len(new), len(old)))
            count = (sum(a != b for a, b in zip(new, old))
                     + abs(len(new) - len(old)))
            key = next((m[1] for text in reversed(old[:line + 1])
                        if (m := TOP_KEY.match(text))), None)
            return (f"{name}: {file} line {line + 1}"
                    f"{f' in {key!r}' if key else ''} ({count} differing "
                    f"lines): expected {(old[line:] or [''])[0]!r}, got "
                    f"{(new[line:] or [''])[0]!r}")
    return None


def differences(write: bool = False):
    """One line for each kept case that is no longer in :data:`CASES`, and
    for each case whose files differ from the kept ones, naming its first
    differing line. With ``write``, each of them is rewritten or removed."""
    EXPECTED.mkdir(exist_ok=True)
    for name in sorted({path.name for path in EXPECTED.iterdir()}
                       - set(CASES)):
        if write:
            shutil.rmtree(EXPECTED / name)
        yield f"{name}: kept, but no longer a case"
    for name, argv in CASES.items():
        got = run_case(argv)
        diff = (_first_difference(name, got, _kept(name))
                if (EXPECTED / name).is_dir() else f"{name}: not kept yet")
        if diff is None:
            continue
        if write:
            shutil.rmtree(EXPECTED / name, ignore_errors=True)
            (EXPECTED / name).mkdir()
            for file, data in got.items():
                (EXPECTED / name / file).write_bytes(data)
        yield diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the cases that differ")
    args = parser.parse_args(argv)
    differ = False
    for line in differences(args.write):
        print(line)
        differ = True
    return 1 if differ and not args.write else 0


if __name__ == "__main__":
    sys.exit(main())
