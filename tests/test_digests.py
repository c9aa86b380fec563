"""Every artifact of the fifteen reference configs in tools/digests.py, byte
for byte, at seed 7.

A change that moves an artifact or an exit code fails here.  When the move is
intended, regenerate the expected file from the root of the checkout with

    python3 tools/digests.py > tests/digests_seed7.txt

and record the changed digests in CHANGES.md.  The digests hold for the
numpy and scipy versions they were made with.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_seed7_digests_match_expected():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py")],
                         capture_output=True, text=True, check=True)
    expected = (ROOT / "tests" / "digests_seed7.txt").read_text()
    assert run.stdout.splitlines() == expected.splitlines()


def test_reference_csv_cells_parse(tmp_path):
    # every row has a cell per header column, and every CSV cell is a number
    # float() reads (ints and nan included) or a plain label such as a series
    # name; a numpy repr like np.float64(0.5) is neither
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tables = 0
    for name in tool.CONFIGS:
        tool.digests(name, 7, tmp_path)
        for path in sorted((tmp_path / name).glob("*.csv")):
            tables += 1
            header, *rows = path.read_text().splitlines()
            for line in rows:
                assert line.count(",") == header.count(","), (path.name, line)
                for cell in line.split(","):
                    try:
                        float(cell)
                    except ValueError:
                        assert re.fullmatch(r"[A-Za-z_]\w*", cell), (path.name, cell)
    assert tables == 18
