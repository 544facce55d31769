"""Every byte the CLI writes on the golden corpus, as kept in ``tests/golden``.

The corpus pins the stdout, stderr, exit code and report of one in-process
run per case (``tests/golden/regen.py`` lists them). The numbers in those
bytes come from this machine's numpy and BLAS; another build of either may
round a last digit differently, and then ``regen.py --write`` rewrites the
expected files, with the reason in CHANGES.md.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_every_golden_case_keeps_its_bytes():
    assert list(regen.differences()) == []


def test_mc_blocks_report_does_not_read_the_blocks_key():
    # expr4-no-key.json is expr4.json without "blocks".
    assert regen._kept("mc-blocks-no-key") == regen._kept("mc-blocks")
