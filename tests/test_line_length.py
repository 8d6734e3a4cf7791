"""Every line of the package and of its tests fits in 100 characters.  bench/ is not checked:
it changes only together with the benchmark it defines."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIMIT = 100


def test_no_line_is_longer_than_the_limit():
    paths = sorted([*(ROOT / "src" / "setflow").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    long = [f"{path.relative_to(ROOT)}:{k} has {len(line)}"
            for path in paths
            for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > LIMIT]
    assert long == []
