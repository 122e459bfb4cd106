"""The public API surface: everything in __all__ importable and documented."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        if name == "__version__":
            continue
        obj = getattr(repro, name)
        assert obj is not None


def test_public_objects_have_docstrings():
    for name in repro.__all__:
        if name == "__version__":
            continue
        obj = getattr(repro, name)
        assert getattr(obj, "__doc__", None), f"{name} lacks a docstring"


def test_quickstart_from_module_docstring():
    """The docstring example must actually run."""
    from repro import OIRAIDArray, recovery_summary

    array = OIRAIDArray.build(7, 3, unit_bytes=32)
    array.write(0, b"hello oi-raid")
    array.fail_disk(4)
    assert bytes(array.read(0, 13)) == b"hello oi-raid"
    array.reconstruct()
    assert recovery_summary(array.layout, [4]).speedup_vs_raid5 > 1.0


def test_scenario_front_door_exported():
    """The unified entry point and serving API are one import away."""
    assert set(repro.SCENARIO_KINDS) == {
        "rebuild", "reliability", "lifecycle", "serve", "fleet",
    }
    result = repro.run(
        repro.Scenario(
            kind="serve",
            layout=repro.oi_raid(7, 3),
            workload=repro.WorkloadSpec(n_requests=50),
        )
    )
    assert isinstance(result, repro.ServeResult)
    assert repro.result_from_dict(result.to_dict()) == result


def test_scheme_registry_exported():
    """The scheme zoo is one import away and the registry is complete."""
    expected = {
        "oi", "raid5", "raid6", "raid50", "mirror",
        "rs", "rep3", "lrc", "xorbas", "hierarchical",
    }
    assert expected <= set(repro.scheme_names())
    assert set(repro.scheme_names()) == set(repro.SCHEME_REGISTRY)
    for name in repro.scheme_names():
        instance = repro.scheme(name)
        assert isinstance(instance, repro.Scheme)
        assert instance.name == name
        assert instance.summary
    layout = repro.build_scheme_layout("lrc")
    assert isinstance(layout, repro.LrcLayout)
    geometry = repro.Geometry()
    cost = repro.scheme("oi").repair_cost(repro.scheme("oi").build(geometry))
    assert isinstance(cost, repro.RepairCost)
    assert cost.read_units > 0


def test_registered_results_speak_the_protocol():
    """Every registered result type inherits the to/from/summary trio."""
    import repro.bench.runner  # noqa: F401  (registers ExperimentResult)
    from repro.results import RESULT_TYPES, ResultBase

    expected = {
        "RebuildResult", "LifetimeResult", "LifecycleResult",
        "ServeResult", "ExperimentResult",
        "FleetResult",
    }
    assert expected <= set(RESULT_TYPES)
    for name, cls in RESULT_TYPES.items():
        assert issubclass(cls, ResultBase), name
        for method in ("to_dict", "from_dict", "summary"):
            assert callable(getattr(cls, method)), f"{name}.{method}"


def test_exception_hierarchy():
    assert issubclass(repro.DesignError, repro.ReproError)
    assert issubclass(repro.DataLossError, repro.ReproError)
    assert issubclass(repro.DecodeError, repro.ReproError)


def test_every_public_item_is_documented():
    """Docstring coverage gate: every public module, class, function, and
    method in the library carries a docstring."""
    import importlib
    import inspect
    import pkgutil

    missing = []
    for module_info in pkgutil.walk_packages(
        repro.__path__, prefix="repro."
    ):
        module = importlib.import_module(module_info.name)
        if not module.__doc__:
            missing.append(module_info.name)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if getattr(obj, "__module__", None) != module_info.name:
                continue  # re-exports are documented at their home
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    missing.append(f"{module_info.name}.{name}")
                if inspect.isclass(obj):
                    for mname, member in vars(obj).items():
                        if mname.startswith("_"):
                            continue
                        if inspect.isfunction(member) and not inspect.getdoc(
                            member
                        ):
                            missing.append(
                                f"{module_info.name}.{name}.{mname}"
                            )
    assert not missing, f"undocumented public items: {missing}"
