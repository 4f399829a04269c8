"""Golden tests for the staged pipeline façade.

The pipeline's scale knobs must be invisible in the output: the
persistent artifact cache (cold and warm) and the façade itself both
have to produce guarded tables byte-identical to the legacy direct
``build_ets -> nes_of_ets -> compile_policy`` path, on every seed
application.  The deprecation shims and the thread backend are gone:
the old spellings fail loudly instead of being tolerated.
"""

import dataclasses
import pickle
import warnings
from pathlib import Path

import pytest

from repro import CompileOptions, Delta, Pipeline
from repro.apps import bandwidth_cap_app, firewall_app, ids_app
from repro.events.ets_to_nes import nes_of_ets
from repro.formula import EQ, NE, Formula, Literal
from repro.netkat.compiler import compile_policy
from repro.netkat.fdd import FDDBuilder
from repro.pipeline import ArtifactCache, ArtifactCacheWarning, artifact_digest
from repro.runtime.compiler import TAG_FIELD, CompiledNES
from repro.stateful.ets import build_ets

from seed_apps import (
    APPS,
    cold_after,
    edited_topology,
    firewall_policy_delta,
    guarded_bytes,
    reference_compile,
    reference_ets,
    switch_preserving_edits,
)


def legacy_compile(app) -> CompiledNES:
    """The stage functions chained by hand, one ``compile_policy`` per
    configuration state on one builder (no sharing, no pipeline)."""
    nes = nes_of_ets(build_ets(app.program, app.initial_state))
    builder = FDDBuilder()
    return CompiledNES(nes, app.topology, {
        state: compile_policy(
            nes.configuration_policy(state), app.topology,
            builder=builder, name=f"C{list(state)}",
        )
        for state in nes.configuration_states()
    })


# ---------------------------------------------------------------------------
# Byte-identity goldens: cache x façade, on all seven seed apps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_backends_cache_and_facade_byte_identical(name, make, tmp_path):
    app = make()
    reference = guarded_bytes(legacy_compile(app))

    serial = Pipeline(app.program, app.topology, app.initial_state)
    assert guarded_bytes(serial.compiled) == reference

    cached = CompileOptions(cache_dir=tmp_path / "cache")
    cold = Pipeline(app.program, app.topology, app.initial_state, cached)
    assert guarded_bytes(cold.compiled) == reference
    assert cold.report().artifact_cache == "miss"

    warm = Pipeline(app.program, app.topology, app.initial_state, cached)
    assert guarded_bytes(warm.compiled) == reference
    assert warm.report().artifact_cache == "hit"


@pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
def test_symbolic_extract_byte_identical(name, make):
    """The symbolic all-states engine (the default) must produce ETS
    vertices/edges and guarded tables byte-identical to the per-state
    extract/project reference walks."""
    app = make()
    fast = Pipeline(app.program, app.topology, app.initial_state)
    reference = reference_ets(app)
    assert fast.ets.initial == reference.initial
    assert fast.ets.vertices == reference.vertices
    assert fast.ets.edges == reference.edges
    assert repr(fast.ets) == repr(reference)
    assert guarded_bytes(fast.compiled) == guarded_bytes(reference_compile(app))


@pytest.mark.parametrize("hash_seed", ["141", "150", "174"])
def test_vertex_order_does_not_depend_on_the_hash_seed(hash_seed):
    """The BFS visits destinations in sorted order, not frozenset order:
    under these seeds the symbolic and per-state walks used to order
    learning_multi's states [0,1] and [1,0] differently (~3 % of seeds)."""
    import os
    import subprocess
    import sys

    script = (
        "from repro.apps import learning_multi_app as make\n"
        "from repro.stateful.ets import build_ets\n"
        "from naive_oracles import build_ets_naive\n"
        "app = make()\n"
        "fast = build_ets(app.program, app.initial_state)\n"
        "ref = build_ets_naive(app.program, app.initial_state)\n"
        "assert fast.vertices == ref.vertices\n"
        "print(fast.states())\n"
    )
    here = os.path.dirname(__file__)
    path = os.pathsep.join((os.path.join(here, os.pardir, "src"), here))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    from repro.apps import learning_multi_app

    assert done.stdout.strip() == str(learning_multi_app().ets.states())


def test_report_shows_the_symbolic_vs_instantiate_split():
    app = firewall_app()
    fast = Pipeline(app.program, app.topology, app.initial_state)
    fast.ets
    report = fast.report()
    subs = [name for name, _ in report.substages]
    assert subs == ["ets.symbolic", "ets.instantiate"]
    assert report.substage("ets.symbolic") is not None
    # The substages refine the ets stage; total_seconds() counts each
    # stage once.
    assert report.total_seconds() == pytest.approx(
        sum(s for _, s in report.stage_seconds)
    )
    assert "ets.symbolic" in str(report) and "ets.instantiate" in str(report)


def test_app_facade_matches_legacy():
    app = firewall_app()
    assert guarded_bytes(app.compiled) == guarded_bytes(legacy_compile(app))
    # The app's staged artifacts are the pipeline's.
    assert app.compiled is app.pipeline.compiled
    assert app.nes is app.pipeline.nes


# ---------------------------------------------------------------------------
# The artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_warm_hit_skips_ets_and_nes_stages(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        Pipeline(app.program, app.topology, app.initial_state, options).compiled

        warm = Pipeline(app.program, app.topology, app.initial_state, options)
        warm.compiled
        stages = [name for name, _ in warm.report().stage_seconds]
        assert stages == ["compile"]
        # The NES is recovered from the artifact, not rebuilt.
        assert warm.nes is warm.compiled.nes
        assert [name for name, _ in warm.report().stage_seconds] == ["compile"]
        # Execution-only fields reflect this run, not the storing one.
        deadline_store = CompileOptions(deadline_seconds=60.0, cache_dir=tmp_path)
        Pipeline(
            app.program, app.topology, app.initial_state, deadline_store
        ).compiled
        load = Pipeline(app.program, app.topology, app.initial_state, options)
        assert load.compiled.options.deadline_seconds is None
        assert load.compiled.options.cache_dir == options.cache_dir

    def test_warm_hit_serves_nes_without_building_the_ets(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        Pipeline(app.program, app.topology, app.initial_state, options).compiled

        warm = Pipeline(app.program, app.topology, app.initial_state, options)
        # Touching .nes first (the examples do) must still hit the cache
        # rather than paying for the ETS and NES stages.
        nes = warm.nes
        assert warm.report().artifact_cache == "hit"
        stages = [name for name, _ in warm.report().stage_seconds]
        assert stages == ["compile"]
        assert nes is warm.compiled.nes

    def test_uncreatable_cache_dir_disables_the_cache(self, tmp_path, monkeypatch):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path / "cache")

        def broken_init(self, root, hmac_key=None, strict=False, health=None):
            raise OSError("read-only filesystem")

        monkeypatch.setattr(ArtifactCache, "__init__", broken_init)
        pipeline = Pipeline(app.program, app.topology, app.initial_state, options)
        with pytest.warns(ArtifactCacheWarning, match="read-only filesystem"):
            compiled = pipeline.compiled
        assert guarded_bytes(compiled) == guarded_bytes(legacy_compile(app))
        assert pipeline.report().artifact_cache is None

    def test_cache_construction_bug_propagates(self, tmp_path, monkeypatch):
        """Only an unusable cache_dir disables the cache: a programming
        error in ArtifactCache's construction is not a cold cache."""
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path / "cache")

        def buggy_init(self, root, hmac_key=None, strict=False, health=None):
            raise TypeError("a bug, not a filesystem")

        monkeypatch.setattr(ArtifactCache, "__init__", buggy_init)
        pipeline = Pipeline(app.program, app.topology, app.initial_state, options)
        with pytest.raises(TypeError, match="a bug"):
            pipeline.compiled

    def test_artifact_survives_a_different_hash_seed(self, tmp_path):
        """Events/formulas cache PYTHONHASHSEED-dependent hashes; a warm
        artifact stored under another seed must still interoperate with
        freshly built equal events in this process."""
        import os
        import subprocess
        import sys

        store = (
            "from repro import CompileOptions, Pipeline\n"
            "from repro.apps import firewall_app\n"
            "app = firewall_app()\n"
            f"opts = CompileOptions(cache_dir={str(tmp_path)!r})\n"
            "Pipeline(app.program, app.topology, app.initial_state, opts).compiled\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = str(
            Path(__file__).parent.parent / "src"
        )
        subprocess.run(
            [sys.executable, "-c", store], env=env, check=True, timeout=120
        )

        app = firewall_app()
        opts = CompileOptions(cache_dir=tmp_path)
        warm = Pipeline(app.program, app.topology, app.initial_state, opts)
        loaded = warm.compiled
        assert warm.report().artifact_cache == "hit"
        pinned = 0
        for event in loaded.nes.events:
            fresh = type(event)(event.guard, event.location, event.eid)
            assert hash(fresh) == hash(event)
            assert fresh in frozenset(loaded.nes.events)
            assert loaded.nes.structure.event_index.get(fresh) is not None
            # The guard travelled as its literal set alone; everything
            # derived from it (hash, positive map) is this process's.
            guard = event.guard
            rebuilt = Formula(guard.literals)
            assert rebuilt == guard and hash(rebuilt) == hash(guard)
            for l in guard.literals:
                if l.op == EQ:
                    pinned += 1
                    clash = Literal(l.field, EQ, l.value + 1)
                    assert guard.conjoin(clash) is None
                    assert guard.conjoin(l.negated()) is None
                    implied = Literal(l.field, NE, l.value + 1)
                    assert guard.conjoin(implied) is guard
        assert pinned  # some loaded guard had a positive map to rebuild
        assert guarded_bytes(loaded) == guarded_bytes(legacy_compile(app))
        # Configuration policies cache their hash once hashed (the store
        # hashed them); the loaded ones hash as this process's do, so
        # an update finds every policy in the loaded artifact.
        fresh = Pipeline(app.program, app.topology, app.initial_state).nes
        for state in loaded.states:
            policy = loaded.nes.configuration_policy(state)
            assert hash(policy) == hash(fresh.configuration_policy(state))
        updated = warm.update(
            Delta(topology=switch_preserving_edits(app)["attach_host"])
        )
        assert dict(updated.report().stats)["update.configurations_recompiled"] == 0

    def test_key_covers_program_state_and_semantic_options(self):
        app = firewall_app()
        ids = ids_app()
        key = artifact_digest(app.program, app.topology, app.initial_state)
        assert key == artifact_digest(app.program, app.topology, app.initial_state)
        assert key != artifact_digest(ids.program, ids.topology, ids.initial_state)
        assert key != artifact_digest(app.program, app.topology, (1,))
        for name in ("field_order", "enforce_locality", "tag_field", "max_frontier"):
            with pytest.raises(TypeError):
                CompileOptions(**{name: None})
            with pytest.raises(TypeError):
                CompileOptions().replace(**{name: None})

    def test_execution_only_options_share_the_key(self, tmp_path):
        app = firewall_app()
        key = Pipeline(app.program, app.topology, app.initial_state).artifact_key()
        for options in (
            CompileOptions(cache_dir=tmp_path),
            CompileOptions(cache_hmac_key="secret-signing-key"),
            CompileOptions(strict_cache=True),
            CompileOptions(deadline_seconds=30),
        ):
            pipeline = Pipeline(app.program, app.topology, app.initial_state, options)
            assert pipeline.artifact_key() == key
            assert "options" not in pipeline.compiled.__getstate__()
            assert b"secret-signing-key" not in pickle.dumps(pipeline.compiled)

    def test_key_covers_the_package_version(self, monkeypatch):
        import repro

        app = firewall_app()
        key = artifact_digest(app.program, app.topology, app.initial_state)
        monkeypatch.setattr(repro, "__version__", "99.0.0")
        assert key != artifact_digest(app.program, app.topology, app.initial_state)

    def test_corrupt_entry_is_a_miss_and_gets_repaired(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        pipeline = Pipeline(app.program, app.topology, app.initial_state, options)
        key = pipeline.artifact_key()
        ArtifactCache(tmp_path).path(key).write_bytes(b"not a pickle")

        with pytest.warns(ArtifactCacheWarning, match="corrupt artifact cache entry"):
            compiled = pipeline.compiled
        assert guarded_bytes(compiled) == guarded_bytes(legacy_compile(app))
        assert pipeline.report().artifact_cache == "miss"
        # The store overwrote the corrupt entry; the next pipeline hits.
        rerun = Pipeline(app.program, app.topology, app.initial_state, options)
        rerun.compiled
        assert rerun.report().artifact_cache == "hit"

    def test_artifact_pickles_without_guarded_table_memo(self):
        compiled = firewall_app().compiled
        compiled.guarded_tables()
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._merge == [None]
        # No builder travels (its AST memos are keyed by id() values of
        # the storing process), and none is kept after construction.
        assert "_builder" not in vars(clone)
        assert "_builder" not in vars(compiled)
        # Same for the event structure's id()-keyed shadow index: every
        # key must be a live id of the clone's own universe, never a
        # stale storing-process address.
        structure = clone.nes.structure
        live = {id(e) for e in structure._universe}
        assert set(structure._index_by_id) == live
        assert guarded_bytes(clone) == guarded_bytes(compiled)

    def test_failed_store_does_not_discard_the_compile(self, tmp_path, monkeypatch):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        pipeline = Pipeline(app.program, app.topology, app.initial_state, options)

        def broken_store(self, key, compiled):
            raise OSError("disk full")

        monkeypatch.setattr(ArtifactCache, "store", broken_store)
        with pytest.warns(ArtifactCacheWarning, match="disk full"):
            compiled = pipeline.compiled
        assert guarded_bytes(compiled) == guarded_bytes(legacy_compile(app))

    def test_store_failure_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        compiled = firewall_app().compiled
        cache = ArtifactCache(tmp_path)
        # A pickling failure happens before any file is touched...
        monkeypatch.setattr(
            pickle, "dumps", lambda *a, **k: (_ for _ in ()).throw(OSError("boom"))
        )
        with pytest.raises(OSError):
            cache.store("somekey", compiled)
        assert list(tmp_path.iterdir()) == []
        # ...and a write failure after it cleans its temp file up.
        monkeypatch.undo()
        real_open = open

        def broken_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            if str(path).startswith(str(tmp_path)) and "w" in str(args):
                handle.close()
                raise OSError("disk full")
            return handle

        monkeypatch.setattr("builtins.open", broken_open)
        with pytest.raises(OSError):
            cache.store("somekey", compiled)
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# CompileOptions
# ---------------------------------------------------------------------------


class TestCompileOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            CompileOptions(deadline_seconds=0)

    @pytest.mark.parametrize("name", ["backend", "max_workers"])
    def test_the_executor_knobs_are_gone(self, name):
        """One executor: the old spellings raise, nothing is tolerated
        and ignored."""
        with pytest.raises(TypeError):
            CompileOptions(**{name: None})
        with pytest.raises(TypeError):
            CompileOptions().replace(**{name: None})

    @pytest.mark.parametrize(
        "changes",
        [
            {"field_order": 5},
            {"field_order": "abc"},
            {"field_order": ("sw", 1)},
            {"tag_field": 5},
            {"enforce_locality": "no"},
            {"enforce_locality": 1},
            {"strict_cache": 0},
            {"max_frontier": True},
            {"max_frontier": "17"},
            {"deadline_seconds": True},
            {"cache_hmac_key": 5},
        ],
        ids=lambda changes: "-".join(f"{k}={v!r}" for k, v in changes.items()),
    )
    def test_ill_typed_values_are_type_errors(self, changes):
        """``1`` is not ``True``: an ill-typed value that happened to
        work would give one program several artifact keys."""
        with pytest.raises(TypeError):
            CompileOptions(**changes)

    def test_replace_revalidates(self):
        options = CompileOptions()
        assert options.replace(deadline_seconds=5).deadline_seconds == 5
        with pytest.raises(ValueError):
            options.replace(deadline_seconds=-1)

    def test_cache_dir_is_tilde_expanded(self):
        expanded = CompileOptions(cache_dir="~/repro-cache").cache_dir
        assert "~" not in str(expanded)
        assert expanded == Path("~/repro-cache").expanduser()


@pytest.mark.parametrize("bad", [False, True, 1.9, "0"], ids=repr)
def test_state_components_must_be_ints(bad):
    """``(False,)`` used to compile the tables of ``(0,)`` under another
    artifact key, and ``set_state`` turned ``1.9`` into ``1``."""
    app = firewall_app()
    with pytest.raises(TypeError):
        Pipeline(app.program, app.topology, (bad,))
    with pytest.raises(TypeError):
        Delta(set_state=((0, bad),))
    with pytest.raises(TypeError):
        Delta(set_state=((bad, 0),))


# ---------------------------------------------------------------------------
# Deprecation shims are deleted: old spellings are rejected, not tolerated
# ---------------------------------------------------------------------------


class TestDeprecationShims:
    def test_removed_spellings_are_rejected(self):
        app = firewall_app()
        for removed in (
            "symbolic_extract", "knowledge_cache", "ordered_insert", "ast_memo"
        ):
            with pytest.raises(TypeError, match=removed):
                CompileOptions(**{removed: False})
        with pytest.raises(TypeError, match="knowledge_cache"):
            CompiledNES(app.nes, app.topology, {}, knowledge_cache=False)
        assert not hasattr(FDDBuilder, "from_options")

    def test_default_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            FDDBuilder()
            app = firewall_app()
            Pipeline(app.program, app.topology, app.initial_state).compiled
        # The reference switches live in tests/naive_oracles.py.
        for removed in ("ordered_insert", "ast_memo"):
            with pytest.raises(TypeError, match=removed):
                FDDBuilder(**{removed: False})
        with pytest.raises(TypeError, match="knowledge_cache"):
            compile_policy(firewall_app().program, firewall_app().topology,
                           knowledge_cache=False)


# ---------------------------------------------------------------------------
# The guarded-table memo
# ---------------------------------------------------------------------------


class TestGuardedTablesPerOptionsMemo:
    """One tag field, so one memoised merge per artifact."""

    def test_colliding_tag_field_is_rejected_not_overwritten(self):
        # A program that matches on the tag field must raise, never have
        # its constraint overwritten by the guard (section 4.1).
        from repro.netkat.flowtable import TagFieldError
        from repro.netkat.parser import parse_policy
        from repro.optimize.sharing import optimize_compiled_nes

        clash = parse_policy(f"{TAG_FIELD}=1; pt<-2")
        compiled = Pipeline(clash, firewall_app().topology, ()).compiled
        with pytest.raises(TagFieldError, match="collides"):
            compiled.guarded_tables()
        with pytest.raises(TagFieldError, match="collides"):
            optimize_compiled_nes(compiled)
        assert "CompiledNES" in repr(compiled)


# ---------------------------------------------------------------------------
# Incremental recompilation: Pipeline.update and Delta
# ---------------------------------------------------------------------------


class TestPipelineUpdate:
    @pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
    def test_noop_delta_is_byte_identical_with_full_reuse(self, name, make):
        app = make()
        base = Pipeline(app.program, app.topology, app.initial_state)
        updated = base.update(Delta())
        assert guarded_bytes(updated.compiled) == guarded_bytes(base.compiled)
        stats = dict(updated.report().stats)
        assert stats["update.reuse_percent"] == 100
        assert stats["update.configurations_recompiled"] == 0
        assert stats["update.states_reinstantiated"] == 0

    @pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
    def test_state_delta_matches_cold_rebuild(self, name, make):
        app = make()
        base = Pipeline(app.program, app.topology, app.initial_state)
        delta = Delta(set_state=((0, 1),))
        assert guarded_bytes(base.update(delta).compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    def test_policy_delta_matches_cold_rebuild(self):
        from repro.netkat.ast import Filter, conj, test

        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        # Widen the outgoing filter: also admit ip_dst=2 traffic.
        old = Filter(conj(test("pt", 2), test("ip_dst", 4)))
        new = Filter(conj(test("pt", 2), test("ip_dst", 2)))
        delta = Delta(replace_policy=old, with_policy=new)
        assert guarded_bytes(base.update(delta).compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    def test_state_test_delta_matches_cold_rebuild(self):
        from repro.netkat.ast import Filter
        from repro.stateful.ast import state_test

        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        delta = Delta(
            replace_policy=Filter(state_test(0, 1)),
            with_policy=Filter(state_test(0, 0)),
        )
        assert guarded_bytes(base.update(delta).compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    def test_unaffected_configurations_are_reused_not_recompiled(self):
        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        updated = base.update(Delta(set_state=((0, 1),)))
        stats = dict(updated.report().stats)
        # Advancing the counter drops state 0 from the reachable set but
        # leaves every surviving state's guard untouched.
        assert stats["update.configurations_reused"] > 0
        assert stats["update.configurations_recompiled"] == 0
        # What is reused is the table dict, found by policy; each state
        # holds it under its own name.
        reused = updated.compiled.configurations
        for state, configuration in base.compiled.configurations.items():
            if state in reused:
                assert reused[state]._tables is configuration._tables
                assert reused[state].name == f"C{list(state)}"

    def test_artifact_key_reflects_the_post_delta_program(self):
        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        delta = Delta(set_state=((0, 1),))
        updated = base.update(delta)
        assert updated.artifact_key() == cold_after(app, delta).artifact_key()
        assert updated.artifact_key() != base.artifact_key()

    def test_zero_hit_replacement_raises(self):
        from repro.netkat.ast import Filter, test

        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        with pytest.raises(ValueError, match="does not occur"):
            base.update(
                Delta(
                    replace_policy=Filter(test("ip_dst", 99)),
                    with_policy=Filter(test("ip_dst", 98)),
                )
            )

    def test_zero_hit_identity_replacement_raises_too(self):
        """X -> X is a no-op only where X occurs; an absent X is the
        same error as X -> Y."""
        from repro.netkat.ast import Filter, conj, test

        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        absent = Filter(test("ip_dst", 99))
        with pytest.raises(ValueError, match="does not occur"):
            base.update(Delta(replace_policy=absent, with_policy=absent))
        present = Filter(conj(test("pt", 2), test("ip_dst", 4)))
        noop = Delta(replace_policy=present, with_policy=present)
        # An occurring X -> X hands back the same program object, so the
        # update is a full-reuse no-op.
        assert noop.apply_program(app.program) is app.program
        stats = dict(base.update(noop).report().stats)
        assert stats["update.configurations_recompiled"] == 0
        assert stats["update.states_reinstantiated"] == 0

    def test_out_of_range_state_component_raises(self):
        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        with pytest.raises(ValueError):
            base.update(Delta(set_state=((5, 1),)))

    def test_update_on_a_warm_cache_is_a_hit(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        delta = Delta(set_state=((0, 1),))
        base = Pipeline(app.program, app.topology, app.initial_state, options)
        base.compiled
        # Prime the cache with the post-delta artifact, then update: the
        # updated pipeline must serve it instead of recompiling.
        reference = guarded_bytes(cold_after(app, delta).compiled)
        base.update(delta)  # stores the post-delta artifact
        again = Pipeline(app.program, app.topology, app.initial_state, options)
        updated = again.update(delta)
        assert updated.report().artifact_cache == "hit"
        assert guarded_bytes(updated.compiled) == reference
        stats = dict(updated.report().stats)
        assert stats["update.reuse_percent"] == 100

    # -- topology deltas: the compile reads the switch set, nothing else ----

    @pytest.mark.parametrize(
        "edit",
        ["attach_host", "move_host", "add_unused_link", "remove_used_link"],
    )
    @pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
    def test_host_and_link_deltas_adopt_every_table(self, name, make, edit):
        from repro import faults
        from repro.netkat.packet import LocatedPacket, Packet
        from repro.obs import trace

        app = make()
        base = Pipeline(app.program, app.topology, app.initial_state)
        base.compiled
        topology = switch_preserving_edits(app)[edit]
        delta = Delta(topology=topology)
        plan = faults.FaultPlan({})
        with faults.injected(plan), trace.recording() as tracer:
            updated = base.update(delta)
        cold = cold_after(app, delta)
        assert guarded_bytes(updated.compiled) == guarded_bytes(cold.compiled)
        assert updated.artifact_key() == cold.artifact_key()
        assert updated.artifact_key() != base.artifact_key()
        # Nothing was compiled: not by the stats, not by the trace, not
        # by the fault site every per-configuration attempt passes.
        stats = dict(updated.report().stats)
        assert stats["update.configurations_recompiled"] == 0
        assert stats["update.configurations_reused"] == len(cold.compiled.states)
        assert stats["update.reuse_percent"] == 100
        spans = tracer.finished()
        assert not [s for s in spans if s["name"] == "compile.configuration"]
        (compile_span,) = [s for s in spans if s["name"] == "compile"]
        assert compile_span["attrs"]["reused_configurations"] == len(
            cold.compiled.states
        )
        assert plan.hits("executor.worker") == 0
        assert plan.hits("stage.compile") == 1
        # The adopted tables live on the *new* topology.
        assert updated.compiled.topology is topology
        assert updated.compiled.stamp_rule_count() == cold.compiled.stamp_rule_count()
        locations = {
            location
            for wiring in (app.topology, topology)
            for link in wiring.links()
            for location in link
        }
        for state, configuration in updated.compiled.configurations.items():
            assert configuration.topology is topology
            # Same tables as the predecessor's, not copies of them.
            assert configuration.tables == base.compiled.configurations[state].tables
            for location in locations:
                lp = LocatedPacket(Packet({"ip_dst": 1}), location)
                assert configuration.link_step(lp) == (
                    cold.compiled.configurations[state].link_step(lp)
                )

    @pytest.mark.parametrize("name,make", APPS, ids=[name for name, _ in APPS])
    def test_switch_deltas_recompile(self, name, make):
        from repro.netkat.flowtable import FlowTable
        from repro.service.protocol import tables_to_wire

        app = make()
        switches = sorted(app.topology.switches)
        spare = switches[-1] + 1
        wider = edited_topology(app.topology, switches=switches + [spare])
        base = Pipeline(app.program, app.topology, app.initial_state)
        wide_base = Pipeline(app.program, wider, app.initial_state)
        # Adding a switch, and removing one the program never mentions.
        for source, topology in ((base, wider), (wide_base, app.topology)):
            delta = Delta(topology=topology)
            updated = source.update(delta)
            cold = Pipeline(app.program, topology, app.initial_state)
            assert guarded_bytes(updated.compiled) == guarded_bytes(cold.compiled)
            assert updated.artifact_key() == cold.artifact_key()
            stats = dict(updated.report().stats)
            # Nothing is adopted: one compile per distinct policy, and
            # the rest share those tables.
            states = cold.compiled.states
            distinct = len({cold.nes.configuration_policy(s) for s in states})
            assert stats["update.configurations_recompiled"] == distinct
            assert stats["update.configurations_reused"] == len(states) - distinct
        wire = tables_to_wire(base.update(Delta(topology=wider)).compiled)
        assert wire[str(spare)] == repr(FlowTable())
        assert str(spare) not in tables_to_wire(wide_base.update(
            Delta(topology=app.topology)
        ).compiled)

    # -- configuration-only deltas: the event structure is adopted ----------

    @staticmethod
    def reply_filter_delta(ip_dst: int, was: int = 1) -> Delta:
        """Re-aim the bandwidth cap's reply-path filter: every
        configuration changes, no event does."""
        from repro.netkat.ast import Filter, conj, test

        return Delta(
            replace_policy=Filter(conj(test("pt", 2), test("ip_dst", was))),
            with_policy=Filter(conj(test("pt", 2), test("ip_dst", ip_dst))),
        )

    def test_configuration_only_delta_adopts_the_event_structure(self):
        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        delta = self.reply_filter_delta(2)
        updated = base.update(delta)
        assert updated.ets.edges == base.ets.edges
        assert updated.ets.vertices != base.ets.vertices
        assert updated.nes.structure is base.nes.structure
        assert updated.nes is not base.nes
        # The configurations are the new ETS's; only the last state's
        # (reply path already disabled) came out as before.
        for state, policy in updated.ets.vertices:
            assert updated.nes.configuration_policy(state) is policy
        # ... and is adopted; the other states hold one policy between
        # them, compiled once and shared.
        stats = dict(updated.report().stats)
        assert stats["update.configurations_recompiled"] == 1
        assert stats["update.configurations_reused"] == len(base.ets.states()) - 1
        cold = cold_after(app, delta)
        assert guarded_bytes(updated.compiled) == guarded_bytes(cold.compiled)
        # The borrow went through the nes stage, not around it.
        assert [name for name, _ in updated.report().stage_seconds] == [
            "ets", "nes", "compile",
        ]
        # A second configuration-only delta, applied to the result,
        # adopts again: the condition-1 pairs were handed on.
        again = updated.update(self.reply_filter_delta(3, was=2))
        assert again.nes.structure is base.nes.structure
        assert guarded_bytes(again.compiled) == guarded_bytes(
            cold_after(cold, self.reply_filter_delta(3, was=2)).compiled
        )
        # ... also across a delta that kept the ETS whole.
        moved = updated.update(
            Delta(topology=switch_preserving_edits(app)["attach_host"])
        )
        assert moved.nes is updated.nes
        assert moved.update(
            self.reply_filter_delta(3, was=2)
        ).nes.structure is base.nes.structure

    def test_structure_adoption_keeps_the_nes_fault_boundary(self):
        from repro import faults
        from repro.pipeline import StageError

        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        base.compiled
        plan = faults.FaultPlan({"stage.nes": faults.FaultRule(max_fires=1)})
        with faults.injected(plan), pytest.raises(StageError) as info:
            base.update(self.reply_filter_delta(2))
        assert info.value.stage == "nes"
        assert info.value.health == {}

    def test_a_broken_condition_1_pair_is_the_cold_error(self):
        """Two paths collect {e1,e2} at different state vectors whose
        configurations are equal -- until a delta tells them apart."""
        from repro.events.ets_to_nes import UniqueConfigurationError
        from repro.netkat.ast import Filter, test
        from repro.netkat.parser import parse_policy
        from repro.stateful.ast import state_test
        from repro.topology import firewall_topology

        program = parse_policy(
            """
            ip_dst=4; ( state(0)=0 & state(1)=0; (1:1)->(4:1)<state(0)<-1>
                      + state(0)=0 & state(1)=1; (1:1)->(4:1)<state(0)<-2>
                      + !state(0)=0; (1:1)->(4:1) )
            + ip_dst=1; ( state(1)=0; (4:1)->(1:1)<state(1)<-1>
                        + state(1)=1; (4:1)->(1:1) )
            + ip_dst=7; pt<-3
            """
        )
        base = Pipeline(program, firewall_topology(), (0, 0))
        base.compiled
        marker = Filter(test("ip_dst", 7))
        # Still state-blind: the structure is adopted.
        harmless = Delta(replace_policy=marker, with_policy=Filter(test("ip_dst", 8)))
        updated = base.update(harmless)
        assert updated.nes.structure is base.nes.structure
        assert guarded_bytes(updated.compiled) == guarded_bytes(
            cold_after(base, harmless).compiled
        )
        # Tells (1,1) from (2,1): the full conversion runs and refuses.
        splitting = Delta(replace_policy=marker, with_policy=Filter(state_test(0, 2)))
        with pytest.raises(UniqueConfigurationError) as cold:
            cold_after(base, splitting).compiled
        with pytest.raises(UniqueConfigurationError) as incremental:
            base.update(splitting)
        assert str(incremental.value) == str(cold.value)
        assert incremental.value.health == {}

    def test_an_edge_or_initial_state_delta_never_adopts(self):
        from repro.netkat.ast import Filter, conj, test

        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        # The outgoing filter is every event's guard: all edges change.
        edges = Delta(
            replace_policy=Filter(conj(test("pt", 2), test("ip_dst", 4))),
            with_policy=Filter(conj(test("pt", 2), test("ip_dst", 3))),
        )
        for delta in (edges, Delta(set_state=((0, 1),))):
            updated = base.update(delta)
            assert updated.nes.structure is not base.nes.structure
            assert guarded_bytes(updated.compiled) == guarded_bytes(
                cold_after(app, delta).compiled
            )

    def test_a_warm_artifact_predecessor_lends_no_structure(self, tmp_path):
        app = bandwidth_cap_app()
        options = CompileOptions(cache_dir=tmp_path)
        Pipeline(app.program, app.topology, app.initial_state, options).compiled
        source = Pipeline(app.program, app.topology, app.initial_state, options)
        source.compiled
        assert source.report().artifact_cache == "hit" and source._ets is None
        delta = self.reply_filter_delta(2)
        updated = source.update(delta)
        assert updated.nes.structure is not source.nes.structure
        assert guarded_bytes(updated.compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    # -- fully adopted updates: the guarded merge is adopted ----------------

    def test_fully_adopted_update_adopts_the_guarded_merge(self):
        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        default = base.compiled.guarded_tables()
        updated = base.update(
            Delta(topology=switch_preserving_edits(app)["attach_host"])
        )
        adopted = updated.compiled.guarded_tables()
        assert all(adopted[sw] is default[sw] for sw in default)
        again = base.update(Delta())
        assert again.compiled.guarded_tables()[1] is default[1]

    def test_fully_adopted_update_shares_a_merge_not_yet_built(self):
        """A base whose merge nobody forced still lends it: the first of
        base and successor to need it builds it once for both."""
        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        base.compiled
        updated = base.update(
            Delta(topology=switch_preserving_edits(app)["attach_host"])
        )
        assert base.compiled._merge == [None]
        built = updated.compiled.guarded_tables()
        assert all(base.compiled.guarded_tables()[sw] is built[sw] for sw in built)

    def test_shifted_config_ids_do_not_adopt_the_guarded_merge(self):
        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        merged = base.compiled.guarded_tables()
        # Advancing the counter drops state 0: every table is adopted,
        # but the surviving states' config ids (their guards) shift.
        delta = Delta(set_state=((0, 1),))
        updated = base.update(delta)
        stats = dict(updated.report().stats)
        assert stats["update.configurations_recompiled"] == 0
        assert updated.compiled.states != base.compiled.states
        assert updated.compiled._merge == [None]
        tables = updated.compiled.guarded_tables()
        assert all(tables[sw] is not merged[sw] for sw in tables)
        assert guarded_bytes(updated.compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    def test_cached_table_repr_is_never_pickled(self):
        app = firewall_app()
        compiled = Pipeline(app.program, app.topology, app.initial_state).compiled
        before = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
        for configuration in compiled.configurations.values():
            for table in configuration.tables.values():
                assert repr(table) is repr(table)  # computed once
        guarded_bytes(compiled)
        assert pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL) == before
        restored = pickle.loads(before)
        assert guarded_bytes(restored) == guarded_bytes(compiled)


# ---------------------------------------------------------------------------
# Report-shape pins: warm-cache and update reports
# ---------------------------------------------------------------------------


class TestReportShapes:
    def test_warm_cache_report_omits_ets_and_nes(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        Pipeline(app.program, app.topology, app.initial_state, options).compiled
        warm = Pipeline(app.program, app.topology, app.initial_state, options)
        warm.compiled
        report = warm.report()
        assert [name for name, _ in report.stage_seconds] == ["compile"]
        assert report.substages == ()
        assert report.artifact_cache == "hit"
        stat_names = [name for name, _ in report.stats]
        assert "ets_states" not in stat_names
        assert "nes_events" not in stat_names

    def test_update_report_shape(self):
        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        report = base.update(Delta(set_state=((0, 1),))).report()
        stages = [name for name, _ in report.stage_seconds]
        assert stages == ["ets", "nes", "compile"]
        subs = [name for name, _ in report.substages]
        assert subs == ["ets.symbolic", "ets.instantiate", "update.delta"]
        stat_names = [name for name, _ in report.stats]
        assert stat_names[-5:] == [
            "update.states_reinstantiated",
            "update.states_reused",
            "update.configurations_recompiled",
            "update.configurations_reused",
            "update.reuse_percent",
        ]
        # The trailing substage block keeps update.delta visible.
        assert "update.delta" in str(report)


    def test_noop_update_borrows_at_every_stage_boundary(self):
        app = bandwidth_cap_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        updated = base.update(Delta())
        # Same program object -> the engine; equal ETS -> the NES (no
        # nes stage ran); equal policies + topology -> every table.
        assert updated._symbolic is base._symbolic
        assert updated.nes is base.nes
        report = updated.report()
        assert [name for name, _ in report.stage_seconds] == ["ets", "compile"]
        assert updated._predecessor is None

    def test_update_state_stats_compare_against_the_predecessor_ets(self):
        app = firewall_app()
        base = Pipeline(app.program, app.topology, app.initial_state)
        updated = base.update(firewall_policy_delta())
        stats = dict(updated.report().stats)
        old, new = base.ets, updated.ets
        same = [
            state
            for state in new.states()
            if state in old.states()
            and new.out_edges(state) == old.out_edges(state)
            and new.configuration(state) == old.configuration(state)
        ]
        assert stats["update.states_reused"] == len(same)
        assert stats["update.states_reinstantiated"] == (
            len(new.states()) - len(same)
        )
        assert stats["update.states_reinstantiated"] > 0


# ---------------------------------------------------------------------------
# App.pipeline is built once per App object
# ---------------------------------------------------------------------------


def test_an_app_builds_its_pipeline_once():
    app = firewall_app()
    pipeline = app.pipeline
    assert app.pipeline is pipeline
    assert app.compiled is pipeline.compiled
    assert pipeline.options == CompileOptions()
    # Another App object (e.g. dataclasses.replace) gets its own.
    other = dataclasses.replace(app, initial_state=(1,))
    assert other.pipeline is not pipeline
    assert other.pipeline.initial_state == (1,)


# ---------------------------------------------------------------------------
# Thread safety: the lazy stage memos under concurrent access
# ---------------------------------------------------------------------------


class TestPipelineThreadSafety:
    def test_barrier_synchronized_threads_compile_once(self, monkeypatch):
        """Two threads released together into ``.compiled`` run the
        compile stage exactly once and observe the same object — the
        service shares memoized pipelines across request threads, so a
        double-compile (or a torn half-built stage) here would be a
        served-table race there."""
        import threading

        import repro.pipeline as pipeline_module

        calls = []
        real_compile = pipeline_module.CompiledNES

        def counting_compile(*args, **kwargs):
            calls.append(threading.get_ident())
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "CompiledNES", counting_compile)

        app = firewall_app()
        pipeline = Pipeline(app.program, app.topology, app.initial_state)
        barrier = threading.Barrier(2)
        results = [None, None]
        errors = []

        def race(slot):
            try:
                barrier.wait()
                results[slot] = pipeline.compiled
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=race, args=(slot,)) for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(calls) == 1
        assert results[0] is not None
        assert results[0] is results[1]
        # Publish-last memoization: anyone who saw the compiled object
        # also sees each stage timing recorded exactly once.
        report = pipeline.report()
        assert [name for name, _ in report.stage_seconds] == [
            "ets", "nes", "compile",
        ]


# ---------------------------------------------------------------------------
# PipelineReport.to_dict: the wire shape /stats and --json serve
# ---------------------------------------------------------------------------


class TestReportToDict:
    def test_shape_is_pinned(self):
        """The exact key set of the JSON report — the service's /compile
        report field and ``repro compile --json`` both serve this, so a
        drift here is a wire-format break."""
        import json

        app = firewall_app()
        pipeline = Pipeline(app.program, app.topology, app.initial_state)
        pipeline.compiled
        report = pipeline.report().to_dict()
        assert sorted(report) == [
            "artifact_cache",
            "health",
            "stages",
            "stats",
            "substages",
            "total_seconds",
        ]
        # JSON-serializable end to end, and faithful to the report.
        rehydrated = json.loads(json.dumps(report))
        assert rehydrated == report
        assert set(report["stages"]) == {"ets", "nes", "compile"}
        assert report["artifact_cache"] is None  # no cache configured
        assert report["total_seconds"] == pytest.approx(
            sum(report["stages"].values())
        )
