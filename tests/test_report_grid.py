"""tools/report_grid.py against the digests README pins: a change to the
package that alters any report on its grid fails here."""
import os
import subprocess
import sys
from pathlib import Path

import blockmark

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(blockmark.__file__).resolve().parents[1])
PINNED = [
    "864 reports sha256 "
    "126392cc63efb1a089a2b28f96c7487018c5bb6511941984282a088170ef980b",
    "576 prefix-shifted reports sha256 "
    "37b888ee945f31ed448a3e77e5d128f9b1a5e52f90e69c635e5a9afdde10a87c",
    "1728 partial-then-complete reports sha256 "
    "d9dec249062dfe5feda402f75d391a429be5b09c48282481d8abb4e727346a11",
    "768 verification-boundary reports sha256 "
    "d0bff084dba47c8f7bdf2427bc3e85c2e72120cf369482a2aa0568f4a2bc16ac",
    "768 designated-walk reports sha256 "
    "59505e770393782b2e52668d2f074e474aa78a16d01ea38c31ddab1e6677bc67",
]


def test_report_grid_prints_the_pinned_digests():
    run = subprocess.run([sys.executable, str(ROOT / "tools/report_grid.py")],
                         capture_output=True, text=True, check=True,
                         timeout=300, env=dict(os.environ, PYTHONPATH=SRC))
    assert run.stdout.splitlines() == PINNED
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    assert all(line in readme for line in PINNED)
