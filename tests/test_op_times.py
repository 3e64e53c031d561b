"""tools/op_times.py: one median time per operation of a benchmark workload."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "op_times.py"


def test_one_oracle_pass_lists_its_16_operations():
    out = subprocess.run([sys.executable, str(TOOL), "oracle", "--seed", "1", "--passes", "1"],
                         capture_output=True, text=True, timeout=120, check=True).stdout
    head, *rows, total = out.splitlines()
    assert head.startswith("# oracle seed 1: median of 1 passes of 16 operations")
    names = [row.split()[0] for row in rows]
    assert len(names) == 16 == len(set(names))
    assert names[:2] == ["massless-0-on", "massless-0-off"]
    for row in rows + [total]:
        _, ref, ms_ref, kind_ref, wall, ms_wall, kind_wall = row.split()
        assert (ms_ref, kind_ref, ms_wall, kind_wall) == ("ms", "ref", "ms", "wall")
        assert float(ref) > 0.0 and float(wall) > 0.0
    assert total.split()[0] == "pass"
