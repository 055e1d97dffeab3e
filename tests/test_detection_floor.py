import importlib.util
from pathlib import Path

import pytest

from opspace import criteria

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "detection_floor.py"


@pytest.fixture(scope="module")
def detection_floor():
    spec = importlib.util.spec_from_file_location("detection_floor", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("eps, seed", [
    (1e-4, 13), (1e-4, 29), (1e-4, 34),
    (1e-5, 13), (1e-5, 23), (1e-5, 29), (1e-5, 34),
    (4e-6, 1), (4e-6, 5), (4e-6, 13),
])
def test_four_rotation_finds_a_planted_unit_defect(detection_floor, eps, seed):
    # these seeds missed the defect while HOLDS searches stopped their restarts near x = 0;
    # the violation is about eps / 2, at ||x|| of about eps, below the smallest start
    rep = detection_floor.check("unitary-four-rotation", eps, seed)
    assert rep.verdict == criteria.VIOLATED


def test_floor_table_counts_misses(detection_floor, capsys):
    assert detection_floor.main(["--seeds", "13", "13"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + len(detection_floor.ROWS)
    assert lines[-1].startswith(f"0 misses of {len(detection_floor.ROWS) * len(detection_floor.EPSILONS)} checks")
