"""The package root: every public name of the five modules, each once."""

import pkgutil

import ncplane
from ncplane import dissipative_dynamics, landau, operator_core, phase_geometry, vortex_film

MODULES = (operator_core, phase_geometry, landau, dissipative_dynamics, vortex_film)


def test_the_library_modules_are_all_but_the_cli():
    names = {info.name for info in pkgutil.iter_modules(ncplane.__path__)}
    assert names - {"cli"} == {m.__name__.rpartition(".")[2] for m in MODULES}


def test_all_is_the_union_of_the_module_lists():
    assert set(ncplane.__all__) == {n for m in MODULES for n in m.__all__} | {"__version__"}
    assert len(ncplane.__all__) == len(set(ncplane.__all__))


def test_no_name_is_public_in_two_modules():
    # a star import would let the later module shadow the earlier one silently
    owners = {}
    for module in MODULES:
        for name in module.__all__:
            owners.setdefault(name, []).append(module.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_every_root_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ncplane, name) is getattr(module, name), name


def test_the_list_view_is_module_only():
    import ncplane.cli

    for name in ("integrate_trajectory", "trajectory_to_array"):
        assert name not in ncplane.__all__ and not hasattr(ncplane, name), name
        assert callable(getattr(dissipative_dynamics, name)), name
    assert ncplane.cli.integrate_trajectory is dissipative_dynamics.integrate_trajectory
