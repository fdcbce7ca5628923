"""README.md's "flags it reads" table and its Config reference list exactly
the flags each route reads and the keys each command's config may hold, as
the settings table in ncplane.cli declares them."""

import re
from pathlib import Path

from ncplane import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
FIELD_FLAGS = ["--B", "--charge", "--light-speed", "--mass", "--hbar"]
EVERY_ROUTE = {"--config", "--out", "--kind", "--format"}
# README route label: (command, route)
ROUTES = {
    "`spectrum --kind distance`": ("spectrum", "distance"),
    "`spectrum --kind landau`": ("spectrum", "landau"),
    "`spectrum --kind landau --omega-c`": ("spectrum", "omega_c"),
    "`evolve` with a free potential": ("evolve", "free"),
    "`evolve` with a harmonic potential": ("evolve", "harmonic"),
    "`evolve` with a polynomial potential": ("evolve", "polynomial"),
    "`phase --scene`": ("phase", "scene"),
    "`phase --path1/--path2`": ("phase", "paths"),
    "`phase --loop` (area and action routes)": ("phase", "loop"),
    "`phase --loop` (flux route)": ("phase", "flux"),
    "`algebra --kind magnetic`": ("algebra", "magnetic"),
    "`algebra --kind dissipative`": ("algebra", "dissipative"),
    "`vortex`": ("vortex", "scene"),
}


def _table(header: str) -> list[list[str]]:
    """The body rows of the README table under the header line, as cells."""
    lines = README.split(header + "\n", 1)[1].splitlines()[1:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _flags(rows: dict, route: str) -> set:
    return {row.flag for row in rows.values() if row.flag and route in row.routes}


def test_every_route_reads_the_flags_the_readme_says_it_reads():
    documented = {}
    for label, text in _table("| route | flags it reads |"):
        flags = re.findall(r"`(--[\w-]+)`", text)
        if "the field flags" in text:
            flags += FIELD_FLAGS
        assert len(flags) == len(set(flags)), label
        documented[ROUTES[label]] = set(flags)
    declared = {(command, route): _flags(cli._INDEX[command][0], route) - EVERY_ROUTE
                for command, route in ROUTES.values()}
    assert documented == declared
    # the routes above are all the routes of every command
    for command, (rows, _) in cli._INDEX.items():
        routes = set().union(*(row.routes for row in rows.values()))
        assert routes == {route for c, route in ROUTES.values() if c == command}, command
        for row in rows.values():
            if row.flag in EVERY_ROUTE:
                assert row.routes == routes, (command, row.flag)


def _paths(tree: dict, where: str = "") -> set:
    paths = set()
    for key, value in tree.items():
        paths.add(where + key)
        if isinstance(value, dict):
            paths |= _paths(value, f"{where}{key}.")
    return paths


def test_the_config_reference_lists_every_key_of_every_command():
    documented = {}
    command = None
    for cells in _table("| command | key | JSON type | default | flag |"):
        command = cells[0].strip("`") or command
        documented.setdefault(command, set()).update(re.findall(r"`([\w.]+)`", cells[1]))
    scene = documented.pop("scene object")
    for command in ("phase", "vortex"):
        documented[command] |= {f"scene.{key}" for key in scene}
    declared = {command: _paths(keys) for command, (_, keys) in cli._INDEX.items() if keys}
    assert documented == declared
    # spectrum and algebra take flags only
    assert set(declared) == {"evolve", "phase", "vortex"}
