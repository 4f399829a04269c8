"""The public API surface: everything advertised in ``__all__`` exists,
and the README quickstart runs as documented."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.netkat",
    "repro.stateful",
    "repro.events",
    "repro.consistency",
    "repro.runtime",
    "repro.network",
    "repro.baselines",
    "repro.optimize",
    "repro.apps",
    "repro.verify",
    "repro.pipeline",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} lacks __all__"
    for entry in module.__all__:
        assert hasattr(module, entry), f"{name}.{entry} is advertised but missing"


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


def test_version():
    import repro

    assert repro.__version__


def test_compile_options_surface_is_pinned():
    """Adding an option is a deliberate act (see the rule in the
    ``repro.pipeline`` docstring): the field set is exactly this, and
    every field that can change the tables is in the artifact key."""
    import dataclasses

    from repro.pipeline import CompileOptions
    from repro.runtime.compiler import TAG_FIELD

    names = [f.name for f in dataclasses.fields(CompileOptions)]
    assert names == [
        "cache_dir",
        "cache_hmac_key",
        "strict_cache",
        "compile_retries",
        "deadline_seconds",
    ]
    assert CompileOptions.tag_field == CompileOptions().tag_field == TAG_FIELD
    with pytest.raises(dataclasses.FrozenInstanceError):
        CompileOptions().tag_field = "cfg"


def test_sim_options_are_gone():
    """One simulator path: no ``SimOptions`` name, module or parameter."""
    import inspect

    import repro
    from repro.apps import firewall_app
    from repro.consistency import NESChecker, check_trace_against_nes
    from repro.network import CorrectLogic, SimNetwork

    assert "SimOptions" not in repro.__all__ + repro.network.__all__
    assert not hasattr(repro, "SimOptions")
    with pytest.raises(ImportError):
        importlib.import_module("repro.sim_options")
    app = firewall_app()
    for fn, args in (
        (SimNetwork, (app.topology, None)),
        (CorrectLogic, (app.compiled,)),
        (NESChecker, (app.nes, app.topology)),
        (check_trace_against_nes, (None, app.nes, app.topology)),
    ):
        assert "options" not in inspect.signature(fn).parameters
        with pytest.raises(TypeError, match="options"):
            fn(*args, options=None)


def test_readme_quickstart():
    """The exact quickstart from README.md."""
    from repro.apps import firewall_app
    from repro.consistency import check_trace_against_nes

    app = firewall_app()
    rt = app.runtime(seed=0)
    rt.inject("H4", {"ip_dst": 1, "ip_src": 4})
    rt.run_until_quiescent()
    rt.inject("H1", {"ip_dst": 4, "ip_src": 1})
    rt.run_until_quiescent()
    rt.inject("H4", {"ip_dst": 1, "ip_src": 4})
    rt.run_until_quiescent()

    report = check_trace_against_nes(rt.network_trace(), app.nes, app.topology)
    assert report.correct


def test_readme_parse_example():
    from repro.netkat import parse_policy

    program = parse_policy(
        """
        pt=2 & ip_dst=4; pt<-1;
          ( state(0)=0; (1:1)->(4:1)<state(0)<-1>
          + !state(0)=0; (1:1)->(4:1) );
        pt<-2
        + pt=2 & ip_dst=1; state(0)=1; pt<-1; (4:1)->(1:1); pt<-2
        """
    )
    from repro.apps import firewall_app

    assert program == firewall_app().program
