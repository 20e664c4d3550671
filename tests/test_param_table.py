import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("param_table", ROOT / "scripts" / "param_table.py")
param_table = importlib.util.module_from_spec(spec)
spec.loader.exec_module(param_table)

# a README base name, as the table's header states it
BASES = {"resnet20": "resnet-cifar (n=3), 10 classes",
         "resnet18": "resnet-imagenet (n=2), 1000 classes"}
COLUMNS = {"concat": 0, "scale+shared dense": 1}


def readme_totals():
    """README's reference totals: (base, k, head, total as printed)."""
    rows = re.findall(r"^\| (resnet\d+), k=(\d+), (concat|scale\+shared dense)"
                      r"(?:, 1000 classes)?\s*\| ([\d,]+)\s*\|$",
                      (ROOT / "README.md").read_text(), re.M)
    return [(base, int(k), head, total) for base, k, head, total in rows]


def test_table_prints_each_reference_total_in_its_row(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["param_table.py"])
    param_table.main()
    table = {}  # (header, k) -> the row's (concat, scale+shared) totals
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("base family "):
            header = line[len("base family "):line.index(";")]
        elif re.fullmatch(r"\s*\d+(\s+[\d,]+){2}", line):
            k, *totals = line.split()
            table[header, int(k)] = totals
    expected = readme_totals()
    assert len(expected) == 7
    for base, k, head, total in expected:
        assert table[BASES[base], k][COLUMNS[head]] == total, (base, k, head)
