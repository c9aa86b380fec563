"""Every artifact of the twelve reference configs in tools/digests.py, byte
for byte, at seed 7.

A change that moves an artifact or an exit code fails here.  When the move is
intended, regenerate the expected file from the root of the checkout with

    python3 tools/digests.py > tests/digests_seed7.txt

and record the changed digests in CHANGES.md.  The digests hold for the
numpy and scipy versions they were made with.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_seed7_digests_match_expected():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py")],
                         capture_output=True, text=True, check=True)
    expected = (ROOT / "tests" / "digests_seed7.txt").read_text()
    assert run.stdout.splitlines() == expected.splitlines()
