"""Golden CLI outputs: `algebra` tables, `spectrum --kind distance` listings,
and the film commands (`vortex`, `phase`).

The algebra and spectrum goldens under tests/golden/ were recorded from the
implementation that built every bracket on dim^2 x dim^2 Kronecker matrices
and diagonalized the distance operator with a dense eigensolver.  The film
goldens (tests/golden/film.json) were recorded from the implementation that
tested every atom against every edge in a per-edge loop and parsed vertex
CSVs row by row in Python; their inputs are the fixed files under
tests/golden/film/:

* scatter.json: a `vortex` config with a seeded scatter of 18000 atoms in a
  40-vertex star loop, run with and without --core;
* scene_cw.json: a clockwise concave loop on the quarter grid, with atoms on
  that grid (ties on vertex heights and on edges) and random atoms;
* scene_double.json: a self-intersecting loop that winds twice;
* loop_header.csv (header), loop_plain.csv (no header, blank lines, spaces
  around cells), loop_index.csv (index column, blank line), path1.csv and
  path2.csv (two branches of one loop; the second has an index column and
  no header).

* `algebra`: `table` and `artifact` must compare equal as parsed floats
  (so -0.0 == 0.0); `max_clean_deviation` is roundoff whose exact value
  depends on the BLAS summation order, so it is only held below
  1e-12 * max(1, max|table|).
* `spectrum --kind distance` and the film commands: the output file must
  match byte for byte.

To record goldens again from a reference checkout (all groups by default):

    PYTHONPATH=src python tests/test_golden.py [algebra] [spectrum] [film]
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ncplane.cli import main

GOLDEN = Path(__file__).parent / "golden"
ALGEBRA_FILE = GOLDEN / "algebra.json"
FILM_FILE = GOLDEN / "film.json"
FILM_INPUTS = GOLDEN / "film"

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

# film cases: argv with input file names relative to FILM_INPUTS marked "@"
FILM_CASES = {
    "vortex-scatter": ["vortex", "--config", "@scatter.json"],
    "vortex-scatter-core": ["vortex", "--config", "@scatter.json", "--core=0.1,-0.05"],
    "vortex-cw": ["vortex", "--scene", "@scene_cw.json"],
    "vortex-cw-core": ["vortex", "--scene", "@scene_cw.json", "--core=-0.3,0.45"],
    "vortex-double-core-center": ["vortex", "--scene", "@scene_double.json", "--core=0,0"],
    "vortex-double-core-outside": ["vortex", "--scene", "@scene_double.json",
                                   "--core=1.45,1.45"],
    "phase-scene-cw": ["phase", "--scene", "@scene_cw.json"],
    "phase-scene-double": ["phase", "--scene", "@scene_double.json"],
    "phase-loop-header": ["phase", "--loop", "@loop_header.csv", "--L", "0.7"],
    "phase-loop-plain": ["phase", "--loop", "@loop_plain.csv", "--L", "1.3", "--hbar", "0.6"],
    "phase-loop-index": ["phase", "--loop", "@loop_index.csv", "--L", "0.45"],
    "phase-ab-header": ["phase", "--loop", "@loop_header.csv", "--ab", "--B", "1.7"],
    "phase-ab-plain": ["phase", "--loop", "@loop_plain.csv", "--ab", "--B", "2.5"],
    "phase-ab-index": ["phase", "--loop", "@loop_index.csv", "--ab", "--B", "0.6",
                       "--charge", "1.3", "--light-speed", "2.0", "--mass", "0.8",
                       "--hbar", "0.9"],
    "phase-paths": ["phase", "--path1", "@path1.csv", "--path2", "@path2.csv",
                    "--hbar", "0.8"],
    "phase-paths-swapped": ["phase", "--path1", "@path2.csv", "--path2", "@path1.csv"],
}


def _film_argv(argv) -> list:
    return [str(FILM_INPUTS / a[1:]) if a.startswith("@") else a for a in argv]


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


@pytest.mark.parametrize("name", sorted(FILM_CASES))
def test_film_matches_golden_bytes(name, tmp_path):
    want = json.loads(FILM_FILE.read_text())[name]
    out = tmp_path / "out.json"
    _run(_film_argv(FILM_CASES[name]), out)
    assert out.read_bytes() == want.encode()


def record(tmp_dir: Path, groups) -> None:
    """Write the goldens of the given groups from the ncplane on sys.path."""
    GOLDEN.mkdir(exist_ok=True)
    if "algebra" in groups:
        algebra = {name: _run(argv, tmp_dir / "out.json")
                   for name, argv in ALGEBRA_CASES.items()}
        ALGEBRA_FILE.write_text(json.dumps(algebra, indent=1, sort_keys=True) + "\n")
    if "spectrum" in groups:
        for name, argv in SPECTRUM_CASES.items():
            _run(argv, GOLDEN / name)
    if "film" in groups:
        film = {name: _run(_film_argv(argv), tmp_dir / "out.json")
                for name, argv in FILM_CASES.items()}
        FILM_FILE.write_text(json.dumps(film, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp), sys.argv[1:] or ("algebra", "spectrum", "film"))
