"""The pinned host-speed calibration loop is kept twice: in
``perfbench/common.py`` (the benchmark harness) and in
``benchmarks/hostscale.py`` (the CI throughput gates), which do not
import each other.  Both divide by the same reference reading, so a
change to one copy alone would silently rescale one set of figures.
This guard reads both files as syntax trees and imports neither.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench" / "common.py"
HOSTSCALE = ROOT / "benchmarks" / "hostscale.py"
CONSTANTS = ("REFERENCE_CALIBRATION_S", "CALIBRATION_CALLS")


def calibration(path):
    """``(constants, loop)`` of the module at ``path``: the values of
    :data:`CONSTANTS` and the ``ast.dump`` of the one ``for`` loop in
    its ``calibration_s``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = {}
    loops = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in CONSTANTS:
                    constants[target.id] = ast.literal_eval(node.value)
        elif (isinstance(node, ast.FunctionDef)
              and node.name == "calibration_s"):
            loops = [ast.dump(n) for n in ast.walk(node)
                     if isinstance(n, ast.For)]
    assert sorted(constants) == sorted(CONSTANTS), path
    assert len(loops) == 1, path
    return constants, loops[0]


def test_both_copies_are_one_calibration():
    perfbench_constants, perfbench_loop = calibration(PERFBENCH)
    hostscale_constants, hostscale_loop = calibration(HOSTSCALE)
    assert perfbench_constants == hostscale_constants
    assert perfbench_loop == hostscale_loop


def test_a_changed_copy_fails_the_guard(tmp_path):
    source = HOSTSCALE.read_text()
    assert source.count("range(6000)") == 1
    changed = tmp_path / "hostscale.py"
    changed.write_text(source.replace("range(6000)", "range(6001)"))
    constants, loop = calibration(changed)
    assert constants == calibration(PERFBENCH)[0]
    assert loop != calibration(PERFBENCH)[1]
    changed.write_text(source.replace("CALIBRATION_CALLS = 8",
                                      "CALIBRATION_CALLS = 9"))
    constants, loop = calibration(changed)
    assert constants != calibration(PERFBENCH)[0]
    assert loop == calibration(PERFBENCH)[1]
