"""Tests for the fault layer: heterogeneity, injection, and sync policies.

The load-bearing contracts, each pinned by a property below:

* a homogeneous profile reproduces today's schedules bit-for-bit (the
  scheduler skips the scaling branch entirely at nominal rates),
* slowdowns >= 1 never shorten an iteration,
* ``backup-workers(k=0)`` prices exactly like ``full-sync``,
* injection is a pure function of ``(seed, iteration)`` — never of call
  count or evaluation order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    KNOB_FIELDS,
    OVERLAP_POLICIES,
    BackupWorkers,
    ClusterProfile,
    DistributedTrainer,
    FaultModel,
    FullSync,
    LinkDegradation,
    SimulationKnobs,
    StragglerInjector,
    TimeWindowSync,
    TrainerConfig,
    WorkerChurn,
    WorkerProfile,
    WorkerRates,
    get_sync_policy,
    price_iteration,
    simulate_iteration_arrays,
    validate_sync_policy,
    worker_finish_times,
)
from repro.nn import build_model
from tests.schedule_checks import assert_same_schedule, check_schedule
from tests.synthetic import make_blobs_classification


def _simulate(durations, compute=1.0, **kwargs):
    """Buckets with reverse-order readiness and two-fabric serial collectives.

    Each ``(compress, comm)`` pair splits its communication 1:3 over an
    intra and an inter phase, so the scaled offsets and totals are exercised.
    """
    n = len(durations)
    return simulate_iteration_arrays(
        ready_seconds=[compute * (n - i) / n for i in range(n)],
        compress_seconds=[c for c, _ in durations],
        phase_seconds=[[0.25 * m, 0.75 * m] for _, m in durations],
        phase_names=("gather", "exchange"),
        phase_links=("intra", "inter"),
        compute_seconds=compute,
        **kwargs,
    )


_durations = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=2.0),
        st.floats(min_value=0.01, max_value=2.0),
    ),
    min_size=1,
    max_size=6,
)

_rates = st.floats(min_value=1.0, max_value=16.0)

_finish_times = st.lists(
    st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=12
)


class TestProfiles:
    def test_homogeneous_is_nominal(self):
        profile = ClusterProfile.homogeneous(4)
        rates = profile.rates()
        assert rates.num_workers == 4
        assert rates.compute.tolist() == rates.link.tolist() == [1.0] * 4
        assert rates.active.all()

    def test_degraded_places_single_straggler(self):
        profile = ClusterProfile.degraded(4, worker=2, compute=3.0, link=2.0)
        rates = profile.rates()
        assert rates.compute.tolist() == [1.0, 1.0, 3.0, 1.0]
        assert rates.link.tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_degraded_rejects_out_of_range_worker(self):
        with pytest.raises(ValueError, match="worker must be in"):
            ClusterProfile.degraded(4, worker=4, compute=2.0)

    def test_from_factors_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            ClusterProfile.from_factors([1.0, 2.0], link=[1.0])

    def test_lognormal_is_seeded_and_positive(self):
        a = ClusterProfile.lognormal(8, compute_sigma=0.3, link_sigma=0.1, seed=7)
        b = ClusterProfile.lognormal(8, compute_sigma=0.3, link_sigma=0.1, seed=7)
        assert a == b
        assert all(p.compute > 0.0 and p.link > 0.0 for p in a.workers)

    def test_lognormal_rejects_negative_sigma(self):
        for sigmas in ({"compute_sigma": -0.1}, {"link_sigma": -0.1}):
            with pytest.raises(ValueError, match="non-negative"):
                ClusterProfile.lognormal(4, **sigmas)

    def test_rates_require_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            WorkerRates(compute=np.ones(3), link=np.ones(3), active=np.ones(2, dtype=bool))

    def test_profile_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            WorkerProfile(compute=0.0)
        with pytest.raises(ValueError):
            WorkerProfile(link=-1.0)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ClusterProfile(workers=())


class TestScheduleScaling:
    @settings(max_examples=100, deadline=None)
    @given(durations=_durations, policy=st.sampled_from(OVERLAP_POLICIES))
    def test_nominal_rates_bit_for_bit(self, durations, policy):
        # Explicitly passing (1.0, 1.0) must take today's exact code path.
        base = _simulate(durations, overlap=policy, update_seconds=0.05)
        scaled = _simulate(
            durations, overlap=policy, update_seconds=0.05, compute_scale=1.0, comm_scale=1.0
        )
        assert_same_schedule(scaled, base)

    @settings(max_examples=100, deadline=None)
    @given(
        durations=_durations,
        policy=st.sampled_from(OVERLAP_POLICIES),
        compute_scale=_rates,
        comm_scale=_rates,
    )
    def test_slowdown_never_shortens(self, durations, policy, compute_scale, comm_scale):
        base = _simulate(durations, overlap=policy)
        slow = _simulate(
            durations, overlap=policy, compute_scale=compute_scale, comm_scale=comm_scale
        )
        check_schedule(slow)
        assert slow.iteration_seconds >= base.iteration_seconds * (1.0 - 1e-9)

    @settings(max_examples=50, deadline=None)
    @given(durations=_durations, policy=st.sampled_from(OVERLAP_POLICIES), scale=_rates)
    def test_uniform_scaling_scales_makespan(self, durations, policy, scale):
        # Scaling both lanes by one factor stretches the whole schedule by it.
        base = _simulate(durations, overlap=policy)
        slow = _simulate(durations, overlap=policy, compute_scale=scale, comm_scale=scale)
        assert slow.iteration_seconds == pytest.approx(base.iteration_seconds * scale, rel=1e-9)

    def test_invalid_rates_rejected(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive finite multiplier"):
                _simulate([(0.1, 0.2)], compute_scale=bad)
            with pytest.raises(ValueError, match="positive finite multiplier"):
                _simulate([(0.1, 0.2)], comm_scale=bad)


class TestSyncPolicies:
    @settings(max_examples=150, deadline=None)
    @given(times=_finish_times)
    def test_backup_zero_is_full_sync_bit_for_bit(self, times):
        finish = np.array(times)
        active = np.ones(len(times), dtype=bool)
        full = FullSync().price(finish, active)
        backup = BackupWorkers(backup_workers=0).price(finish, active)
        assert backup.iteration_seconds == full.iteration_seconds
        assert np.array_equal(backup.participating, full.participating)
        assert backup.stragglers_cut == full.stragglers_cut == 0

    @settings(max_examples=150, deadline=None)
    @given(times=_finish_times, k=st.integers(min_value=0, max_value=12))
    def test_backup_workers_never_slower_than_full_sync(self, times, k):
        finish = np.array(times)
        active = np.ones(len(times), dtype=bool)
        full = FullSync().price(finish, active)
        backup = BackupWorkers(backup_workers=k).price(finish, active)
        assert backup.iteration_seconds <= full.iteration_seconds
        assert backup.num_participating >= 1
        assert backup.stragglers_cut == min(k, len(times) - 1)

    @settings(max_examples=150, deadline=None)
    @given(times=_finish_times, factor=st.floats(min_value=1.0, max_value=10.0))
    def test_time_window_never_slower_and_keeps_fastest(self, times, factor):
        finish = np.array(times)
        active = np.ones(len(times), dtype=bool)
        full = FullSync().price(finish, active)
        windowed = TimeWindowSync(window_factor=factor).price(finish, active)
        assert windowed.iteration_seconds <= full.iteration_seconds
        fastest = int(np.argmin(finish))
        assert windowed.participating[fastest]

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        value=st.floats(min_value=0.01, max_value=10.0),
        factor=st.floats(min_value=1.0, max_value=10.0),
    )
    def test_time_window_homogeneous_is_full_sync_bit_for_bit(self, n, value, factor):
        # Every finish time ties the minimum, so the window keeps everyone.
        finish = np.full(n, value)
        active = np.ones(n, dtype=bool)
        full = FullSync().price(finish, active)
        windowed = TimeWindowSync(window_factor=factor).price(finish, active)
        assert windowed.iteration_seconds == full.iteration_seconds
        assert np.array_equal(windowed.participating, full.participating)
        assert windowed.stragglers_cut == 0

    def test_backup_ties_break_on_lower_index(self):
        finish = np.array([2.0, 2.0, 1.0])
        outcome = BackupWorkers(backup_workers=1).price(finish, np.ones(3, dtype=bool))
        assert outcome.participating.tolist() == [True, False, True]
        assert outcome.iteration_seconds == 2.0

    def test_policies_respect_membership_mask(self):
        finish = np.array([np.nan, 3.0, 1.0])
        active = np.array([False, True, True])
        outcome = FullSync().price(finish, active)
        assert outcome.iteration_seconds == 3.0
        assert outcome.participating.tolist() == [False, True, True]

    @pytest.mark.parametrize(
        "policy", [FullSync(), BackupWorkers(1), TimeWindowSync(1.5)], ids=lambda p: p.name
    )
    def test_mismatched_finish_and_mask_rejected(self, policy):
        with pytest.raises(ValueError, match="equal length"):
            policy.price(np.array([1.0, 2.0]), np.array([True]))

    def test_policy_parameters_validated(self):
        with pytest.raises(ValueError, match="backup_workers must be >= 0"):
            BackupWorkers(-1)
        with pytest.raises(ValueError, match="window_factor must be >= 1"):
            TimeWindowSync(0.5)

    def test_no_active_workers_rejected(self):
        with pytest.raises(ValueError, match="no active workers"):
            FullSync().price(np.array([1.0]), np.array([False]))

    def test_get_sync_policy_dispatch(self):
        assert isinstance(get_sync_policy("full-sync"), FullSync)
        assert get_sync_policy("backup-workers", backup_workers=3).backup_workers == 3
        assert get_sync_policy("time-window").window_factor == 1.5
        assert get_sync_policy("time-window", time_window_factor=2.0).window_factor == 2.0
        with pytest.raises(ValueError, match="unknown sync policy"):
            validate_sync_policy("quorum")


class TestInjectors:
    @settings(max_examples=50, deadline=None)
    @given(iteration=st.integers(min_value=0, max_value=200), seed=st.integers(0, 5))
    def test_injection_pure_in_seed_and_iteration(self, iteration, seed):
        profile = ClusterProfile.homogeneous(8)
        model = FaultModel(
            profile,
            injectors=(
                StragglerInjector(probability=0.5, slowdown=4.0, seed=seed),
                LinkDegradation(probability=0.5, factor=2.0, seed=seed),
                WorkerChurn(leave_probability=0.3, rejoin_probability=0.5, seed=seed),
            ),
        )
        first = model.rates_for_iteration(iteration)
        again = model.rates_for_iteration(iteration)
        assert np.array_equal(first.compute, again.compute)
        assert np.array_equal(first.link, again.link)
        assert np.array_equal(first.active, again.active)

    def test_churn_membership_independent_of_query_order(self):
        forward = WorkerChurn(leave_probability=0.4, rejoin_probability=0.4, seed=3)
        backward = WorkerChurn(leave_probability=0.4, rejoin_probability=0.4, seed=3)
        masks_fwd = [forward.membership(t, 6) for t in range(20)]
        masks_bwd = [backward.membership(t, 6) for t in reversed(range(20))]
        for t in range(20):
            assert np.array_equal(masks_fwd[t], masks_bwd[19 - t])

    def test_churn_min_active_floor(self):
        churn = WorkerChurn(leave_probability=1.0, rejoin_probability=0.0, seed=0, min_active=2)
        for t in range(10):
            assert churn.membership(t, 5).sum() >= 2

    def test_churn_membership_rejects_bad_queries(self):
        churn = WorkerChurn(min_active=3)
        with pytest.raises(ValueError, match="non-negative"):
            churn.membership(-1, 4)
        with pytest.raises(ValueError, match="below min_active"):
            churn.membership(0, 2)

    def test_churn_floor_holds_against_workers_already_removed(self):
        # The caller's mask already drops workers 0-3; churn must still keep
        # min_active of the cluster, restoring the lowest-indexed ones.
        churn = WorkerChurn(leave_probability=0.0, rejoin_probability=1.0, seed=0, min_active=2)
        rates = ClusterProfile.homogeneous(5).rates()
        mask = np.array([False, False, False, False, True])
        removed = WorkerRates(compute=rates.compute, link=rates.link, active=mask)
        assert churn.apply(3, removed).active.tolist() == [True, False, False, False, True]

    def test_straggler_only_touches_compute(self):
        rates = ClusterProfile.homogeneous(16).rates()
        out = StragglerInjector(probability=1.0, slowdown=3.0, seed=0).apply(4, rates)
        assert np.all(out.compute == 3.0)
        assert np.all(out.link == 1.0)

    def test_link_degradation_only_touches_link(self):
        rates = ClusterProfile.homogeneous(16).rates()
        out = LinkDegradation(probability=1.0, factor=5.0, seed=0).apply(4, rates)
        assert np.all(out.link == 5.0)
        assert np.all(out.compute == 1.0)

    def test_injector_validation(self):
        with pytest.raises(ValueError, match="probability"):
            StragglerInjector(probability=1.5)
        with pytest.raises(ValueError, match="slowdown must be >= 1"):
            StragglerInjector(slowdown=0.5)
        with pytest.raises(ValueError, match="factor must be >= 1"):
            LinkDegradation(factor=0.9)
        with pytest.raises(ValueError, match="min_active"):
            WorkerChurn(min_active=0)
        with pytest.raises(ValueError, match="apply"):
            FaultModel(ClusterProfile.homogeneous(2), injectors=(object(),))


class TestPriceIteration:
    def test_memoizes_distinct_rate_pairs(self):
        calls = []

        def price(compute, link):
            calls.append((compute, link))
            return 1.0 * compute + 0.5 * link

        rates = ClusterProfile.degraded(8, compute=2.0).rates()
        finish = worker_finish_times(price, rates)
        assert len(calls) == 2  # one straggler pair + one nominal pair
        assert finish[0] == pytest.approx(2.5)
        assert np.all(finish[1:] == pytest.approx(1.5))

    def test_inactive_workers_priced_nan(self):
        rates = ClusterProfile.homogeneous(3).rates()
        rates.active[1] = False
        finish = worker_finish_times(lambda c, m: c + m, rates)
        assert np.isnan(finish[1])
        assert finish[0] == finish[2] == 2.0

    def test_price_iteration_threads_policy(self):
        rates = ClusterProfile.degraded(4, compute=10.0).rates()
        result = price_iteration(
            lambda c, m: c, rates, BackupWorkers(backup_workers=1)
        )
        assert result.iteration_seconds == 1.0
        assert result.outcome.stragglers_cut == 1
        assert not result.outcome.participating[0]


def _dataset(seed=0):
    return make_blobs_classification(num_examples=128, num_features=16, num_classes=4, seed=seed)


def _model(seed=1):
    return build_model("mlp", input_dim=16, hidden_dims=(32,), num_classes=4, seed=seed)


def _config(**kwargs):
    """A small TrainerConfig; knob kwargs are routed into its ``knobs`` bundle."""
    knobs = {name: kwargs.pop(name) for name in KNOB_FIELDS if name in kwargs}
    defaults = dict(
        num_workers=4, batch_size=8, iterations=12, ratio=0.01, lr=0.05, seed=0, compute_seconds=0.01
    )
    defaults.update(kwargs)
    return TrainerConfig(**defaults, knobs=SimulationKnobs(**knobs))


class TestTrainerIntegration:
    def test_clean_config_builds_no_fault_model(self):
        trainer = DistributedTrainer(_model(), _dataset(), "topk", _config())
        assert trainer.fault_model is None
        result = trainer.run()
        assert all(r.participating_workers is None for r in result.metrics.records)
        assert result.metrics.straggler_summary()["faulted_iterations"] == 0.0

    def test_straggler_knob_slows_training(self):
        clean = DistributedTrainer(_model(), _dataset(), "topk", _config()).run()
        slow = DistributedTrainer(
            _model(), _dataset(), "topk", _config(straggler_severity=8.0)
        ).run()
        assert slow.metrics.total_time > clean.metrics.total_time
        assert all(r.participating_workers == 4 for r in slow.metrics.records)

    def test_backup_workers_cut_the_straggler(self):
        config = _config(
            straggler_severity=8.0, sync_policy="backup-workers", backup_workers=1
        )
        full = DistributedTrainer(
            _model(), _dataset(), "topk", _config(straggler_severity=8.0)
        ).run()
        backup = DistributedTrainer(_model(), _dataset(), "topk", config).run()
        assert backup.metrics.total_time < full.metrics.total_time
        summary = backup.metrics.straggler_summary()
        assert summary["total_cut"] == 12.0
        assert summary["mean_participants"] == 3.0

    def test_churn_runs_and_records_membership(self):
        config = _config(
            fault_injectors=(
                WorkerChurn(leave_probability=0.4, rejoin_probability=0.5, seed=2),
            )
        )
        result = DistributedTrainer(_model(), _dataset(), "topk", config).run()
        participants = [r.participating_workers for r in result.metrics.records]
        assert all(1 <= p <= 4 for p in participants)
        assert min(participants) < 4  # churn actually removed someone

    def test_churn_run_deterministic_under_fixed_seed(self):
        def run():
            config = _config(
                straggler_severity=1.0,
                fault_injectors=(
                    StragglerInjector(probability=0.5, slowdown=4.0, seed=5),
                    WorkerChurn(leave_probability=0.3, rejoin_probability=0.5, seed=5),
                ),
                sync_policy="time-window",
                time_window_factor=1.2,
            )
            return DistributedTrainer(_model(), _dataset(), "topk", config).run()

        a, b = run(), run()
        assert a.metrics.total_time == b.metrics.total_time
        assert [r.participating_workers for r in a.metrics.records] == [
            r.participating_workers for r in b.metrics.records
        ]
        assert [r.loss for r in a.metrics.records] == [r.loss for r in b.metrics.records]

    def test_cluster_profile_excludes_straggler_knobs(self):
        with pytest.raises(ValueError, match="cluster_profile or the single-straggler"):
            _config(
                cluster_profile=ClusterProfile.homogeneous(4), straggler_severity=2.0
            )

    def test_cluster_profile_must_match_worker_count(self):
        with pytest.raises(ValueError, match="num_workers"):
            _config(cluster_profile=ClusterProfile.homogeneous(3))

    def test_backup_workers_must_leave_a_participant(self):
        with pytest.raises(ValueError, match="at least one participant"):
            _config(sync_policy="backup-workers", backup_workers=4)
