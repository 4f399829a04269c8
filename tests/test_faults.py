"""The seeded chaos suite for the fault-tolerance layer.

Every injected fault must end in exactly one of two outcomes:

1. **clean degradation** — the cache path absorbs it (recorded miss,
   quarantine, one-shot warning, health counter) and the pipeline
   recompiles to byte-identical tables;
2. **a typed error** — ``StageError`` / ``ArtifactIntegrityError`` with
   stage provenance.  Nothing is retried: a compile runs once.

Never wrong tables, and never a stale/forged artifact served.  Fast
deterministic cases run in the smoke target; the deep randomized plans
carry ``slow`` on top of ``chaos``.
"""

import gc
import pickle
import warnings
import weakref

import pytest

from repro import faults
from repro.apps import firewall_app, ids_app
from repro.pipeline import (
    ArtifactCache,
    ArtifactCacheWarning,
    ArtifactIntegrityError,
    CompileOptions,
    Delta,
    Pipeline,
    PipelineError,
    StageError,
    _QUARANTINE_SLOTS,
    _SIGNED_MAGIC,
)

from seed_apps import cold_after, firewall_policy_delta, guarded_bytes

pytestmark = pytest.mark.chaos


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """A test that dies mid-``injected`` must not poison its neighbors."""
    yield
    faults.uninstall()


def fresh_pipeline(app, options=None):
    return Pipeline(app.program, app.topology, app.initial_state, options)


@pytest.fixture(scope="module")
def reference_tables():
    """Fault-free firewall tables, the byte-identity oracle."""
    return guarded_bytes(fresh_pipeline(firewall_app()).compiled)


# ---------------------------------------------------------------------------
# The FaultPlan registry itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_unknown_site_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            faults.FaultPlan({"cache.laod": 1.0})

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            faults.FaultRule(probability=1.5)
        with pytest.raises(ValueError):
            faults.FaultRule(max_fires=-1)
        with pytest.raises(ValueError):
            faults.FaultRule(skip=-1)

    def test_float_shorthand(self):
        plan = faults.FaultPlan({"cache.load": 0.5})
        assert plan.rules["cache.load"] == faults.FaultRule(probability=0.5)

    def test_same_seed_replays_the_same_schedule(self):
        def schedule(seed, n=200):
            plan = faults.FaultPlan({"executor.worker": 0.3}, seed=seed)
            fired = []
            for i in range(n):
                try:
                    plan.check("executor.worker")
                except faults.FaultInjected:
                    fired.append(i)
            return fired

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)
        # ~30% of hits fire; the stream is seeded, not degenerate.
        assert 30 <= len(schedule(7)) <= 90

    def test_site_streams_are_independent(self):
        """Interleaving hits of another site must not perturb a site's
        own schedule (per-site RNG streams)."""

        def worker_schedule(interleave):
            plan = faults.FaultPlan(
                {"executor.worker": 0.3, "cache.load": 0.3}, seed=3
            )
            fired = []
            for i in range(100):
                if interleave:
                    try:
                        plan.check("cache.load")
                    except faults.FaultInjected:
                        pass
                try:
                    plan.check("executor.worker")
                except faults.FaultInjected:
                    fired.append(i)
            return fired

        assert worker_schedule(False) == worker_schedule(True)

    def test_skip_and_max_fires(self):
        plan = faults.FaultPlan(
            {"cache.load": faults.FaultRule(skip=2, max_fires=3)}
        )
        outcomes = []
        for _ in range(8):
            try:
                plan.check("cache.load")
                outcomes.append("pass")
            except faults.FaultInjected:
                outcomes.append("fire")
        assert outcomes == ["pass"] * 2 + ["fire"] * 3 + ["pass"] * 3
        assert plan.hits("cache.load") == 8
        assert plan.fires("cache.load") == 3

    def test_exception_carries_site_and_hit(self):
        plan = faults.FaultPlan({"stage.ets": faults.FaultRule(skip=1)})
        plan.check("stage.ets")
        with pytest.raises(faults.FaultInjected) as info:
            plan.check("stage.ets")
        assert info.value.site == "stage.ets"
        assert info.value.hit == 2

    def test_check_without_a_plan_is_a_no_op(self):
        assert faults.active() is None
        faults.check("stage.ets")  # must not raise

    def test_install_uninstall_and_no_nesting(self):
        plan = faults.FaultPlan({})
        with faults.injected(plan) as installed:
            assert installed is plan
            assert faults.active() is plan
            with pytest.raises(RuntimeError, match="already installed"):
                faults.install(faults.FaultPlan({}))
        assert faults.active() is None
        faults.uninstall()  # idempotent
        with pytest.raises(TypeError):
            faults.install("not a plan")

    def test_unruled_sites_never_fire(self):
        plan = faults.FaultPlan({"cache.load": 1.0})
        plan.check("cache.store")
        assert plan.hits("cache.store") == 1
        assert plan.fires("cache.store") == 0


# ---------------------------------------------------------------------------
# Executor: one run per configuration, deadline
# ---------------------------------------------------------------------------


class TestExecutorRecovery:
    def test_unbounded_worker_faults_end_in_a_typed_error(self):
        with faults.injected(faults.FaultPlan({"executor.worker": 1.0})):
            pipeline = fresh_pipeline(firewall_app())
            with pytest.raises(StageError) as info:
                pipeline.compiled
        assert info.value.stage == "compile"
        assert isinstance(info.value, PipelineError)

    def test_a_failing_compile_runs_once(self, monkeypatch):
        """Tables are a pure function of their inputs, so a compile that
        raised would raise again: ``compile_policy`` runs once and its
        exception is the stage's typed error."""
        import repro.pipeline as pipeline_module

        calls = []

        def failing(*args, **kwargs):
            calls.append(kwargs["name"])
            raise ValueError("deterministic")

        monkeypatch.setattr(pipeline_module, "compile_policy", failing)
        pipeline = fresh_pipeline(firewall_app())
        with pytest.raises(StageError) as info:
            pipeline.compiled
        assert calls == ["C[0]"]
        assert str(info.value).startswith("configuration C[0] failed: ValueError")
        assert isinstance(info.value.__cause__, ValueError)
        assert pipeline.report().health == {}

    def test_deadline_exceeded_is_a_typed_error(self):
        pipeline = fresh_pipeline(
            firewall_app(), CompileOptions(deadline_seconds=1e-9)
        )
        # The budget ran out before the first compile: none finished,
        # and both of the firewall's states were still to find.
        with pytest.raises(
            StageError,
            match=r"^deadline_seconds=1e-09 exceeded after 0 compile\(s\), "
            r"with 2 state\(s\) left$",
        ):
            pipeline.compiled
        assert pipeline.report().health == {}

    def test_deadline_reports_compiles_finished_and_states_left(self, monkeypatch):
        """A cap-8 chain has ten states and two policies: the second
        compile is the last state's, so a budget that runs out after the
        first compile leaves one state, not ten configurations, to go."""
        import types

        import repro.pipeline as pipeline_module
        from repro.apps import bandwidth_cap_app

        ticks = iter(range(100))  # each clock read advances one second
        clock = types.SimpleNamespace(
            monotonic=lambda: next(ticks),
            perf_counter=pipeline_module.time.perf_counter,
        )
        monkeypatch.setattr(pipeline_module, "time", clock)
        pipeline = fresh_pipeline(
            bandwidth_cap_app(8), CompileOptions(deadline_seconds=1.5)
        )
        with pytest.raises(
            StageError,
            match=r"exceeded after 1 compile\(s\), with 1 state\(s\) left$",
        ):
            pipeline.compiled

    def test_generous_deadline_is_invisible(self, reference_tables):
        pipeline = fresh_pipeline(
            firewall_app(), CompileOptions(deadline_seconds=300.0)
        )
        assert guarded_bytes(pipeline.compiled) == reference_tables
        assert pipeline.report().health == {}

    def test_deadline_does_not_retry(self):
        """A deadline miss stops the stage before the next compile."""
        plan = faults.FaultPlan({})
        with faults.injected(plan):
            pipeline = fresh_pipeline(
                firewall_app(), CompileOptions(deadline_seconds=1e-9)
            )
            with pytest.raises(StageError):
                pipeline.compiled
        assert plan.hits("executor.worker") == 0
        assert pipeline.report().health == {}

    def test_a_compile_error_is_not_retried(self, monkeypatch):
        """A program outside the compilable fragment fails on its one
        compile, with nothing absorbed."""
        from repro.netkat.compiler import CompileError
        from repro.netkat.parser import parse_policy
        import repro.pipeline as pipeline_module

        attempts = []
        compile_policy = pipeline_module.compile_policy

        def counting(*args, **kwargs):
            attempts.append(kwargs["name"])
            return compile_policy(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "compile_policy", counting)
        star_over_a_link = parse_policy("(pt=2; pt<-1; (1:1)->(4:1); pt<-2)*")
        pipeline = Pipeline(star_over_a_link, firewall_app().topology, ())
        with pytest.raises(StageError, match=r"configuration C\[\] failed") as info:
            pipeline.compiled
        assert info.value.stage == "compile"
        assert isinstance(info.value.__cause__, CompileError)
        assert attempts == ["C[]"]
        assert pipeline.report().health == {}

    def test_the_symbolic_frontier_bound_is_not_retried(self, monkeypatch):
        """A policy whose next hop carries more knowledge states than
        ``MAX_FRONTIER`` is outside the compilable fragment: one
        compile, nothing absorbed."""
        from repro.netkat import compiler as netkat_compiler
        from repro.netkat.compiler import CompileError

        monkeypatch.setattr(netkat_compiler, "MAX_FRONTIER", 0)
        pipeline = fresh_pipeline(firewall_app())
        with pytest.raises(StageError, match=r"configuration C\[0\] failed") as info:
            pipeline.compiled
        assert info.value.stage == "compile"
        assert isinstance(info.value.__cause__, CompileError)
        assert "symbolic frontier exceeded 0 states" in str(info.value.__cause__)
        assert pipeline.report().health == {}

    def test_new_knob_validation(self):
        with pytest.raises(ValueError):
            CompileOptions(deadline_seconds=0)
        with pytest.raises(ValueError):
            CompileOptions(deadline_seconds=-1.0)
        # NaN compares false with 0, so only a finiteness check stops
        # it (and infinity) from switching the budget off.
        for deadline in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                CompileOptions(deadline_seconds=deadline)


# ---------------------------------------------------------------------------
# Stage boundaries
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stage", ["ets", "nes", "compile"])
def test_stage_faults_surface_as_stage_errors(stage):
    with faults.injected(faults.FaultPlan({f"stage.{stage}": 1.0})):
        pipeline = fresh_pipeline(firewall_app())
        with pytest.raises(StageError) as info:
            pipeline.compiled
    assert info.value.stage == stage
    assert isinstance(info.value.__cause__, faults.FaultInjected)


def test_stage_fault_does_not_poison_the_pipeline():
    """A stage that failed under a (since-removed) plan can be retried
    on the same Pipeline object: nothing was cached half-built."""
    with faults.injected(faults.FaultPlan({"stage.ets": faults.FaultRule(max_fires=1)})):
        pipeline = fresh_pipeline(firewall_app())
        with pytest.raises(StageError):
            pipeline.ets
        ets = pipeline.ets  # second boundary crossing: the fault is spent
    assert ets.states()


# ---------------------------------------------------------------------------
# Pipeline.update runs the same stage sequence, so the same boundaries
# ---------------------------------------------------------------------------


class TestUpdateFaults:
    # set_state moves the initial state, so the ETS differs and every
    # stage (nes included) runs in the updated pipeline.
    DELTA = Delta(set_state=((0, 1),))

    @pytest.mark.parametrize("stage", ["ets", "nes", "compile"])
    def test_stage_faults_during_update_are_typed_and_spare_the_base(self, stage):
        app = firewall_app()
        base = fresh_pipeline(app)
        before = guarded_bytes(base.compiled)
        with faults.injected(faults.FaultPlan({f"stage.{stage}": 1.0})):
            with pytest.raises(StageError) as info:
                base.update(self.DELTA)
        assert info.value.stage == stage
        assert isinstance(info.value.__cause__, faults.FaultInjected)
        # The base is untouched and still updatable once the plan is gone.
        assert guarded_bytes(base.compiled) == before
        assert base.report().health == {}
        assert guarded_bytes(base.update(self.DELTA).compiled) == guarded_bytes(
            cold_after(app, self.DELTA).compiled
        )

    def test_a_worker_fault_fails_the_update_and_spares_the_base(self):
        app = firewall_app()
        base = fresh_pipeline(app)
        base.compiled
        delta = firewall_policy_delta()
        plan = faults.FaultPlan({"executor.worker": faults.FaultRule(max_fires=1)})
        with faults.injected(plan):
            with pytest.raises(StageError) as info:
                base.update(delta)
        assert info.value.stage == "compile"
        assert plan.hits("executor.worker") == 1
        assert info.value.health == {}
        assert base.report().health == {}
        assert guarded_bytes(base.update(delta).compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )

    @pytest.mark.filterwarnings("ignore::repro.pipeline.ArtifactCacheWarning")
    def test_a_failed_update_surfaces_the_discarded_results_health(self, tmp_path):
        app = firewall_app()
        base = fresh_pipeline(app, CompileOptions(cache_dir=tmp_path))
        base.compiled
        plan = faults.FaultPlan({"cache.load": 1.0, "executor.worker": 1.0})
        with faults.injected(plan):
            with pytest.raises(StageError) as info:
                base.update(firewall_policy_delta())
        assert info.value.stage == "compile"
        assert info.value.health == {"cache.load_error": 1}
        assert base.report().health == {}

    def test_update_chain_does_not_retain_predecessors(self):
        app = firewall_app()
        base = fresh_pipeline(app)
        middle = base.update(self.DELTA)
        last = middle.update(Delta(set_state=((0, 0),)))
        refs = [weakref.ref(base), weakref.ref(middle)]
        del base, middle
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert guarded_bytes(last.compiled) == guarded_bytes(
            fresh_pipeline(app).compiled
        )

    def test_policy_update_from_a_disk_hit_source_matches_cold(self, tmp_path):
        from repro.netkat.ast import Filter
        from repro.stateful.ast import state_test

        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        fresh_pipeline(app, options).compiled  # prime the cache
        source = fresh_pipeline(app, options)
        source.compiled
        assert source.report().artifact_cache == "hit"
        assert source._ets is None and source._symbolic is None
        delta = Delta(
            replace_policy=Filter(state_test(0, 1)),
            with_policy=Filter(state_test(0, 0)),
        )
        updated = source.update(delta)
        assert updated.report().artifact_cache == "miss"
        assert guarded_bytes(updated.compiled) == guarded_bytes(
            cold_after(app, delta).compiled
        )
        stats = dict(updated.report().stats)
        # Nothing to compare states against: all of them count as new.
        assert stats["update.states_reused"] == 0
        assert stats["update.states_reinstantiated"] == stats["ets_states"]


# ---------------------------------------------------------------------------
# Cache faults: load/store errors are absorbed, warned, and counted
# ---------------------------------------------------------------------------


class TestCacheFaults:
    def test_load_fault_is_a_recorded_miss(self, tmp_path, reference_tables):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        fresh_pipeline(app, options).compiled  # warm the cache

        with faults.injected(faults.FaultPlan({"cache.load": faults.FaultRule(max_fires=1)})):
            pipeline = fresh_pipeline(app, options)
            with pytest.warns(ArtifactCacheWarning, match="load failed"):
                assert guarded_bytes(pipeline.compiled) == reference_tables
        report = pipeline.report()
        assert report.artifact_cache == "miss"
        assert report.health["cache.load_error"] == 1

    def test_store_fault_keeps_the_compile_and_is_counted(self, tmp_path, reference_tables):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        with faults.injected(faults.FaultPlan({"cache.store": 1.0})):
            pipeline = fresh_pipeline(app, options)
            with pytest.warns(ArtifactCacheWarning, match="store failed"):
                assert guarded_bytes(pipeline.compiled) == reference_tables
        assert pipeline.report().health["cache.store_error"] == 1
        # Nothing was written; the next pipeline is a cold miss.
        rerun = fresh_pipeline(app, options)
        rerun.compiled
        assert rerun.report().artifact_cache == "miss"

    def test_corrupt_entry_is_quarantined_not_rereead(self, tmp_path):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)
        pipeline = fresh_pipeline(app, options)
        key = pipeline.artifact_key()
        cache = ArtifactCache(tmp_path)
        cache.path(key).write_bytes(b"garbage, not a pickle")

        with pytest.warns(ArtifactCacheWarning, match="corrupt"):
            pipeline.compiled
        report = pipeline.report()
        assert report.artifact_cache == "miss"
        assert report.health["cache.load_corrupt"] == 1
        assert report.health["cache.quarantined"] == 1
        assert cache.bad_path(key).exists()
        # The store repaired the entry; a rerun hits without re-reading
        # the quarantined bytes.
        rerun = fresh_pipeline(app, options)
        rerun.compiled
        assert rerun.report().artifact_cache == "hit"

    def test_wrong_type_entry_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.path("k").write_bytes(pickle.dumps({"not": "a CompiledNES"}))
        with pytest.warns(ArtifactCacheWarning, match="not a CompiledNES"):
            assert cache.load("k") is None
        assert cache.bad_path("k").exists()
        assert cache.health["cache.load_corrupt"] == 1

    def test_cache_warnings_are_one_shot_per_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.path("a").write_bytes(b"junk a")
        cache.path("b").write_bytes(b"junk b")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cache.load("a") is None
            assert cache.load("b") is None
        assert len([w for w in caught if issubclass(w.category, ArtifactCacheWarning)]) == 1
        assert cache.health["cache.load_corrupt"] == 2


# ---------------------------------------------------------------------------
# Artifact integrity: the signed cache
# ---------------------------------------------------------------------------


KEY = "chaos-suite-key"


class TestSignedArtifacts:
    def options(self, tmp_path, **overrides):
        return CompileOptions(cache_dir=tmp_path, cache_hmac_key=KEY, **overrides)

    def test_signed_roundtrip_hits(self, tmp_path, reference_tables):
        app = firewall_app()
        options = self.options(tmp_path)
        cold = fresh_pipeline(app, options)
        assert guarded_bytes(cold.compiled) == reference_tables
        blob = ArtifactCache(tmp_path).path(cold.artifact_key()).read_bytes()
        assert blob.startswith(_SIGNED_MAGIC)

        warm = fresh_pipeline(app, options)
        assert guarded_bytes(warm.compiled) == reference_tables
        assert warm.report().artifact_cache == "hit"
        assert warm.report().health == {}

    def test_stored_artifact_holds_no_execution_only_option_values(
        self, tmp_path, reference_tables
    ):
        """The file a key signs must not contain that key (nor where or
        how the storing run executed); a warm load reports its own."""
        app = firewall_app()
        store_dir = tmp_path / "stored-under-this-path"
        cold = fresh_pipeline(
            app, self.options(store_dir, deadline_seconds=60.0, strict_cache=True)
        )
        cold.compiled
        blob = ArtifactCache(store_dir).path(cold.artifact_key()).read_bytes()
        assert KEY.encode() not in blob
        assert store_dir.name.encode() not in blob

        load_dir = tmp_path / "loaded-from-here"
        store_dir.rename(load_dir)
        warm = fresh_pipeline(app, self.options(load_dir))
        assert guarded_bytes(warm.compiled) == reference_tables
        assert warm.report().artifact_cache == "hit"
        assert warm.compiled.options.deadline_seconds is None
        assert warm.compiled.options.cache_dir == load_dir
        assert warm.compiled.options.cache_hmac_key == KEY
        assert warm.compiled.options.strict_cache is False

    @pytest.mark.parametrize("flip_at", ["payload", "digest", "magic"])
    def test_tampered_artifact_is_rejected_and_recompiled(
        self, tmp_path, reference_tables, flip_at
    ):
        """The acceptance scenario: a bit-flipped signed artifact is an
        integrity miss, quarantined, and the pipeline recompiles to
        byte-identical tables."""
        app = firewall_app()
        options = self.options(tmp_path)
        cold = fresh_pipeline(app, options)
        cold.compiled
        key = cold.artifact_key()
        path = ArtifactCache(tmp_path).path(key)
        blob = bytearray(path.read_bytes())
        offset = {"magic": 2, "digest": len(_SIGNED_MAGIC) + 5, "payload": len(blob) - 7}
        blob[offset[flip_at]] ^= 0x04
        path.write_bytes(bytes(blob))

        pipeline = fresh_pipeline(app, options)
        with pytest.warns(ArtifactCacheWarning, match="rejected"):
            assert guarded_bytes(pipeline.compiled) == reference_tables
        report = pipeline.report()
        assert report.artifact_cache == "miss"
        assert report.health["cache.integrity_rejected"] == 1
        assert report.health["cache.quarantined"] == 1
        assert ArtifactCache(tmp_path).bad_path(key).exists()
        # The recompile re-stored a good signed entry: self-healing.
        rerun = fresh_pipeline(app, options)
        rerun.compiled
        assert rerun.report().artifact_cache == "hit"

    def test_strict_cache_raises_on_tamper(self, tmp_path):
        app = firewall_app()
        options = self.options(tmp_path)
        cold = fresh_pipeline(app, options)
        cold.compiled
        path = ArtifactCache(tmp_path).path(cold.artifact_key())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))

        strict = fresh_pipeline(app, self.options(tmp_path, strict_cache=True))
        with pytest.raises(ArtifactIntegrityError, match="HMAC"):
            strict.compiled
        assert strict.report().health["cache.integrity_rejected"] == 1

    def test_truncated_signed_artifact_is_rejected(self, tmp_path, reference_tables):
        app = firewall_app()
        options = self.options(tmp_path)
        cold = fresh_pipeline(app, options)
        cold.compiled
        path = ArtifactCache(tmp_path).path(cold.artifact_key())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn write

        pipeline = fresh_pipeline(app, options)
        with pytest.warns(ArtifactCacheWarning):
            assert guarded_bytes(pipeline.compiled) == reference_tables
        assert pipeline.report().health["cache.integrity_rejected"] == 1

    def test_forged_artifact_signed_with_another_key_is_rejected(
        self, tmp_path, reference_tables
    ):
        """A forger without the key cannot get an artifact served: an
        entry signed under a different key fails verification."""
        app = firewall_app()
        pipeline = fresh_pipeline(app, self.options(tmp_path))
        key = pipeline.artifact_key()
        forged = ids_app().compiled  # wrong tables entirely
        ArtifactCache(tmp_path, hmac_key=b"attacker-key").store(key, forged)

        with pytest.warns(ArtifactCacheWarning, match="rejected"):
            tables = guarded_bytes(pipeline.compiled)
        assert tables == reference_tables  # never the forged tables
        assert pipeline.report().health["cache.integrity_rejected"] == 1

    def test_unsigned_entry_in_a_keyed_cache_is_rejected(self, tmp_path, reference_tables):
        app = firewall_app()
        unkeyed = CompileOptions(cache_dir=tmp_path)
        fresh_pipeline(app, unkeyed).compiled  # legacy unsigned entry

        keyed = fresh_pipeline(app, self.options(tmp_path))
        with pytest.warns(ArtifactCacheWarning, match="unsigned"):
            assert guarded_bytes(keyed.compiled) == reference_tables
        assert keyed.report().health["cache.integrity_rejected"] == 1
        # The keyed recompile stored a signed replacement.
        rerun = fresh_pipeline(app, self.options(tmp_path))
        rerun.compiled
        assert rerun.report().artifact_cache == "hit"

    def test_keyless_reader_still_reads_signed_entries(self, tmp_path, reference_tables):
        """Cross-format: dropping the key keeps the cache warm (same
        trust model as the legacy unsigned format)."""
        app = firewall_app()
        fresh_pipeline(app, self.options(tmp_path)).compiled

        keyless = fresh_pipeline(app, CompileOptions(cache_dir=tmp_path))
        assert guarded_bytes(keyless.compiled) == reference_tables
        assert keyless.report().artifact_cache == "hit"

    def test_env_var_supplies_the_key(self, tmp_path, monkeypatch):
        app = firewall_app()
        monkeypatch.setenv("REPRO_CACHE_HMAC_KEY", KEY)
        options = CompileOptions(cache_dir=tmp_path)
        assert options.resolved_cache_hmac_key() == KEY.encode()
        cold = fresh_pipeline(app, options)
        cold.compiled
        blob = ArtifactCache(tmp_path).path(cold.artifact_key()).read_bytes()
        assert blob.startswith(_SIGNED_MAGIC)
        # The explicit field wins over the environment.
        explicit = CompileOptions(cache_dir=tmp_path, cache_hmac_key=b"other")
        assert explicit.resolved_cache_hmac_key() == b"other"
        monkeypatch.delenv("REPRO_CACHE_HMAC_KEY")
        assert options.resolved_cache_hmac_key() is None


# ---------------------------------------------------------------------------
# The off-position goldens: the new knobs never change the artifact
# ---------------------------------------------------------------------------


class TestKnobsAreExecutionOnly:
    def test_byte_identity_across_all_new_knobs(self, tmp_path, reference_tables):
        app = firewall_app()
        for options in (
            CompileOptions(),
            CompileOptions(cache_hmac_key=KEY, cache_dir=tmp_path / "signed"),
            CompileOptions(strict_cache=True),
            CompileOptions(deadline_seconds=600.0),
        ):
            assert guarded_bytes(fresh_pipeline(app, options).compiled) == reference_tables

    def test_new_knobs_are_excluded_from_the_artifact_key(self):
        app = firewall_app()
        base = CompileOptions()
        reference = fresh_pipeline(app, base).artifact_key()
        for variant in (
            base.replace(cache_hmac_key=KEY),
            base.replace(strict_cache=True),
            base.replace(deadline_seconds=1.5),
        ):
            assert fresh_pipeline(app, variant).artifact_key() == reference


# ---------------------------------------------------------------------------
# Health reporting
# ---------------------------------------------------------------------------


def test_clean_run_reports_empty_health_and_ok_line():
    pipeline = fresh_pipeline(firewall_app())
    pipeline.compiled
    report = pipeline.report()
    assert report.health == {}
    assert "health ok" in str(report)


@pytest.mark.filterwarnings("ignore::repro.pipeline.ArtifactCacheWarning")
def test_health_counters_render_in_the_report(tmp_path):
    plan = faults.FaultPlan({"cache.store": faults.FaultRule(max_fires=1)})
    with faults.injected(plan):
        pipeline = fresh_pipeline(firewall_app(), CompileOptions(cache_dir=tmp_path))
        pipeline.compiled
    rendered = str(pipeline.report())
    assert "health cache.store_error" in rendered
    assert "health ok" not in rendered


# ---------------------------------------------------------------------------
# Randomized chaos: any plan, one of the two sanctioned outcomes
# ---------------------------------------------------------------------------


def run_chaos(seed: int, tmp_path, reference: bytes) -> None:
    """One randomized plan over every site; the pipeline must produce
    byte-identical tables or a typed error — nothing else."""
    import random

    rng = random.Random(seed)
    rules = {}
    for site in faults.SITES:
        if rng.random() < 0.7:
            rules[site] = faults.FaultRule(
                probability=rng.choice([0.3, 0.6, 1.0]),
                max_fires=rng.choice([1, 2, 3, None]),
                skip=rng.choice([0, 0, 1]),
            )
    app = firewall_app()
    options = CompileOptions(
        cache_dir=tmp_path / f"cache{seed}",
        cache_hmac_key=KEY,
    )
    with faults.injected(faults.FaultPlan(rules, seed=seed)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pipeline = fresh_pipeline(app, options)
            try:
                tables = guarded_bytes(pipeline.compiled)
            except PipelineError as exc:
                assert exc.stage in ("ets", "nes", "compile", "cache")
                return
            assert tables == reference
    # Whatever the plan did to the cache, a fault-free rerun must also
    # be right — a stale/forged entry must never have been stored.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rerun = fresh_pipeline(app, options)
        assert guarded_bytes(rerun.compiled) == reference


@pytest.mark.parametrize("seed", range(8))
def test_randomized_plans_quick(seed, tmp_path, reference_tables):
    run_chaos(seed, tmp_path, reference_tables)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(8, 60))
def test_randomized_plans_deep(seed, tmp_path, reference_tables):
    run_chaos(seed, tmp_path, reference_tables)


# ---------------------------------------------------------------------------
# Torn signed headers and quarantine slot preservation
# ---------------------------------------------------------------------------


class TestTornHeaderAndQuarantineSlots:
    """Regressions: an entry truncated *inside* the magic+HMAC header
    must be an integrity rejection (not unpickled garbage miscounted as
    ``cache.load_corrupt``), and repeated quarantines of one key must
    preserve the earlier forensic copies in numbered slots."""

    def torn_blob(self):
        # Recognizably signed, but cut off 10 bytes into the digest.
        return _SIGNED_MAGIC + b"\x5a" * 10

    @pytest.mark.parametrize("hmac_key", [None, b"some-key"],
                             ids=["keyless", "keyed"])
    def test_torn_header_is_an_integrity_rejection(self, tmp_path, hmac_key):
        cache = ArtifactCache(tmp_path, hmac_key=hmac_key)
        cache.path("k").write_bytes(self.torn_blob())
        with pytest.warns(ArtifactCacheWarning, match="torn signed header"):
            assert cache.load("k") is None
        assert cache.health["cache.integrity_rejected"] == 1
        assert cache.health.get("cache.load_corrupt", 0) == 0
        assert cache.health["cache.quarantined"] == 1
        assert cache.bad_path("k").exists()
        assert not cache.path("k").exists()

    def test_torn_header_is_strict_mode_fatal(self, tmp_path):
        cache = ArtifactCache(tmp_path, strict=True)
        cache.path("k").write_bytes(self.torn_blob())
        with pytest.raises(ArtifactIntegrityError, match="torn signed header"):
            cache.load("k")

    def test_torn_header_pipeline_recompiles_byte_identically(
        self, tmp_path, reference_tables
    ):
        app = firewall_app()
        options = CompileOptions(cache_dir=tmp_path)  # keyless reader
        cold = fresh_pipeline(app, options)
        cold.compiled
        path = ArtifactCache(tmp_path).path(cold.artifact_key())
        # Simulate a keyed writer's store torn off mid-header.
        path.write_bytes(self.torn_blob())

        pipeline = fresh_pipeline(app, options)
        with pytest.warns(ArtifactCacheWarning, match="rejected"):
            assert guarded_bytes(pipeline.compiled) == reference_tables
        report = pipeline.report()
        assert report.artifact_cache == "miss"
        assert report.health["cache.integrity_rejected"] == 1
        assert "cache.load_corrupt" not in report.health

    def test_repeated_quarantines_preserve_earlier_copies(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ArtifactCacheWarning)
            for round_number in range(3):
                cache.path("k").write_bytes(b"garbage %d" % round_number)
                assert cache.load("k") is None
        for slot in range(3):
            assert cache.bad_path("k", slot).read_bytes() == (
                b"garbage %d" % slot
            )
        assert cache.health["cache.quarantined"] == 3

    def test_quarantine_slots_are_bounded_and_recycle_the_last(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        rounds = _QUARANTINE_SLOTS + 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ArtifactCacheWarning)
            for round_number in range(rounds):
                cache.path("k").write_bytes(b"garbage %d" % round_number)
                assert cache.load("k") is None
        # The first slots keep the earliest copies; overflow recycles
        # only the final slot, which holds the most recent rejection.
        for slot in range(_QUARANTINE_SLOTS - 1):
            assert cache.bad_path("k", slot).read_bytes() == (
                b"garbage %d" % slot
            )
        assert cache.bad_path("k", _QUARANTINE_SLOTS - 1).read_bytes() == (
            b"garbage %d" % (rounds - 1)
        )
        assert not cache.bad_path("k", _QUARANTINE_SLOTS).exists()
        assert cache.health["cache.quarantined"] == rounds
