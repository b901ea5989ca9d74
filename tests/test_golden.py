"""Golden CLI reports: each command on fixtures/ must write a report that is
byte-identical to the one committed under tests/golden/, with the same exit
code.  Regenerate a file only when a report is meant to change."""

import json
from pathlib import Path

import pytest

from logsymplectic.cli import canonical_json, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
FIX = ROOT / "fixtures"

TORIC_STRUCTURE = str(FIX / "toric_structure.json")

CASES = [
    ("jacobi_toric_structure", ["jacobi", "--structure", TORIC_STRUCTURE], 0),
    ("jacobi_broken_structure",
     ["jacobi", "--structure", str(FIX / "broken_structure.json")], 1),
    ("pfaffian_toric_matrix", ["pfaffian", "--matrix", str(FIX / "toric_matrix.json")], 0),
    ("pfaffian_block_matrix", ["pfaffian", "--matrix", str(FIX / "block_matrix.json")], 0),
    *(
        (f"genpos_toric_structure_t{t}",
         ["genpos", "--structure", TORIC_STRUCTURE, "--t", str(t)], 0 if t < 4 else 1)
        for t in (1, 2, 3, 4)
    ),
    ("verify_exactness_I1", ["verify-exactness", "--structure", TORIC_STRUCTURE, "--I", "1"], 0),
    ("verify_exactness_I1_2",
     ["verify-exactness", "--structure", TORIC_STRUCTURE, "--I", "1,2",
      "--max-degree", "2", "--weight-cap", "4"], 0),
    ("toric_report_toric_matrix",
     ["toric-report", "--matrix", str(FIX / "toric_matrix.json")], 0),
    ("toric_report_block_matrix",
     ["toric-report", "--matrix", str(FIX / "block_matrix.json")], 1),
    ("toric_report_random_n2_seed7",
     ["toric-report", "--random", "--n", "2", "--seed", "7"], 0),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(name, argv, code, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_every_golden_file_is_checked():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(c[0] for c in CASES)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_golden_file_is_canonical(path):
    # a fixed point of the writer: re-encoding what it reads changes no byte
    text = path.read_bytes().decode()
    assert canonical_json(json.loads(text)) == text
