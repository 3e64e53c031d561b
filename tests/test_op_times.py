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


def test_outputs_go_under_the_checkouts_bench_out_and_are_removed():
    # the workload's output directory lies on the checkout's file system,
    # as the benchmark's does, never in the system temporary directory
    root = TOOL.parents[1]
    code = f"""
import runpy, sys
sys.argv = ["op_times.py", "oracle", "--seed", "1", "--passes", "1"]
sys.path.insert(0, {str(root / "benchmarks")!r})
import run
set_up = run.set_up
run.set_up = lambda args, out: print("OUT", out) or set_up(args, out)
runpy.run_path({str(TOOL)!r}, run_name="__main__")
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120).stdout
    (used,) = [Path(line.split(" ", 1)[1]) for line in out.splitlines() if line.startswith("OUT ")]
    assert used.parent == root / ".bench_out"
    assert used.name.startswith("op_times-oracle-")
    assert not used.exists()
