"""Golden CLI outputs: `algebra` tables and `spectrum --kind distance` listings.

The goldens under tests/golden/ were recorded from the implementation that
built every bracket on dim^2 x dim^2 Kronecker matrices and diagonalized the
distance operator with a dense eigensolver.

* `algebra`: `table` and `artifact` must compare equal as parsed floats
  (so -0.0 == 0.0); `max_clean_deviation` is roundoff whose exact value
  depends on the BLAS summation order, so it is only held below
  1e-12 * max(1, max|table|).
* `spectrum --kind distance`: the output file must match byte for byte.

To record the goldens again from a reference checkout:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ncplane.cli import main

GOLDEN = Path(__file__).parent / "golden"
ALGEBRA_FILE = GOLDEN / "algebra.json"

ALGEBRA_PARAMS = {
    "magnetic": {
        "a": [],
        "b": ["--B", "2.0", "--hbar", "1.5"],
        "c": ["--B", "0.37", "--charge", "1.3", "--light-speed", "2.0",
              "--mass", "0.8", "--hbar", "0.6"],
    },
    "dissipative": {
        "a": ["--R", "0.5"],
        "b": ["--R", "1.3", "--mass", "0.7", "--hbar", "2.0"],
        "c": ["--R", "0.2", "--mass", "1.9", "--hbar", "0.45"],
    },
}
ALGEBRA_CASES = {
    f"{kind}-{name}-dim{dim}": ["algebra", "--kind", kind, "--dim", str(dim), *extra]
    for kind, sets in ALGEBRA_PARAMS.items()
    for name, extra in sets.items()
    for dim in range(3, 13)
}
SPECTRUM_CASES = {
    f"spectrum_distance_dim{dim}.csv": ["spectrum", "--kind", "distance", "--L", length,
                                        "--dim", str(dim)]
    for dim, length in ((2, "1.0"), (10, "0.7"), (1000, "1.9"))
}


def _run(argv, out_path) -> str:
    code = main([*argv, "--out", str(out_path)])
    assert code == 0, f"{argv} exited with {code}"
    return Path(out_path).read_text()


def _golden_algebra() -> dict:
    return json.loads(ALGEBRA_FILE.read_text())


@pytest.mark.parametrize("name", sorted(ALGEBRA_CASES))
def test_algebra_matches_golden(name, tmp_path):
    want = json.loads(_golden_algebra()[name])
    got = json.loads(_run(ALGEBRA_CASES[name], tmp_path / "out.json"))
    assert set(got) == set(want)
    for key in ("kind", "dim", "length_scale_sq", "labels", "table", "artifact"):
        assert got[key] == want[key], key
    bound = 1e-12 * max(1.0, float(np.abs(np.asarray(got["table"])).max()))
    assert got["max_clean_deviation"] < bound


@pytest.mark.parametrize("name", sorted(SPECTRUM_CASES))
def test_distance_spectrum_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    _run(SPECTRUM_CASES[name], out)
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def record(tmp_dir: Path) -> None:
    """Write every golden from the ncplane importable on sys.path."""
    GOLDEN.mkdir(exist_ok=True)
    algebra = {name: _run(argv, tmp_dir / "out.json") for name, argv in ALGEBRA_CASES.items()}
    ALGEBRA_FILE.write_text(json.dumps(algebra, indent=1, sort_keys=True) + "\n")
    for name, argv in SPECTRUM_CASES.items():
        _run(argv, GOLDEN / name)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
