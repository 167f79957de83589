"""Golden pins and invariants for the array scheduler.

The scheduler's contract is *bit-for-bit* reproduction of its pinned
schedules, so the golden tests use exact ``==`` comparisons throughout — no
``pytest.approx``.  ``GOLDEN`` was captured before the batched core landed;
``LOOP_GOLDEN`` was captured from the former scalar reference scheduler on
the two paths where its arithmetic differed from, or bypassed, the batched
core: ragged chunk-pipelined collectives and non-nominal lane rates.
"""

import math

import numpy as np
import pytest

from repro.compressors import create_compressor
from repro.distributed import (
    TOPOLOGIES,
    CollectiveModel,
    NetworkModel,
    PhaseTable,
    ScheduleArrays,
    SparseAggregateModel,
    TimelineModel,
    get_topology,
    simulate_iteration_arrays,
)
from repro.gradients import realistic_gradient
from repro.perfmodel import GPU_V100
from repro.pipeline import CompressionPipeline
from tests.schedule_checks import assert_same_schedule, check_schedule, phase_rows

ALL_PRESETS = sorted(TOPOLOGIES)

#: Pre-vectorization schedules for the pre-existing presets, captured verbatim
#: (full float repr) under the scenario built by ``_timeline``/``_results``:
#: per-bucket (ready, compress_start, compress_end, comm_start, comm_end).
GOLDEN = {
    "ethernet-4x8": {
        "iteration_seconds": 0.022393801700220296,
        "serialized_seconds": 0.03111383456681571,
        "events": [
            (0.005, 0.005, 0.005904, 0.017275034786857154, 0.021393801700220295),
            (0.004, 0.004, 0.004904, 0.013432276090142867, 0.01755104300350601),
            (0.003, 0.003, 0.003904, 0.009589517393428578, 0.01370828430679172),
            (0.002, 0.002, 0.002904, 0.005746758696714289, 0.00986552561007743),
            (0.001, 0.001, 0.0019039999999999999, 0.0019039999999999999, 0.006022766913363141),
        ],
        "phase_names": ("intra-gather", "inter-allgather", "intra-broadcast"),
        "phase_links": ("infiniband-100g", "ethernet-10g", "infiniband-100g"),
    },
    "torus-2d": {
        "iteration_seconds": 0.014914957559000852,
        "serialized_seconds": 0.02687215922357567,
        "events": [
            (0.005, 0.005, 0.005904, 0.01064452571428572, 0.013914957559000853),
            (0.004, 0.004, 0.004904, 0.00845939428571429, 0.011729826130429423),
            (0.003, 0.003, 0.003904, 0.006274262857142859, 0.009544694701857993),
            (0.002, 0.002, 0.002904, 0.004089131428571429, 0.007359563273286563),
            (0.001, 0.001, 0.0019039999999999999, 0.0019039999999999999, 0.005174431844715133),
        ],
        "phase_names": ("intra-gather", "inter-allgather", "intra-broadcast"),
        "phase_links": ("ethernet-25g", "ethernet-10g", "ethernet-25g"),
    },
}

#: Full schedules from the former scalar reference scheduler (under
#: ``overlap="comm+compress"``), keyed by (scenario, cross_bucket_pipeline):
#:
#: * ``"chunked"`` — ``ethernet-4x8``, ``pipeline_chunks=4``, dimension scale
#:   100 over ``_results(36_000)``: the two 360 kB buckets pipeline into 12
#:   chunk phases, the 80 kB tail bucket falls back to 3 serial phases;
#: * ``"comm_scale"`` — ``fat-tree-128`` over ``_results(16_000)``, priced by
#:   ``compressed_iteration(..., comm_scale=1.7)``.
#:
#: Per bucket: (ready, compress_start, compress_end, comm_start, comm_end,
#: ((phase name, start, end, link), ...)).
LOOP_GOLDEN = {
    ("chunked", False): {
        "iteration_seconds": 0.04285934675788852,
        "serialized_seconds": 0.05419461367125167,
        "events": [
            (0.005, 0.0068135, 0.010877, 0.02433642337894426, 0.04185934675788852, (
                ("intra-gather[c0]", 0.02433642337894426, 0.024455423378944262, "infiniband-100g"),
                ("inter-allgather[c0]", 0.024455423378944262, 0.028759776912747836, "ethernet-10g"),
                ("intra-broadcast[c0]", 0.028759776912747836, 0.028946286156477798, "infiniband-100g"),
                ("intra-gather[c1]", 0.024455423378944262, 0.024574423378944263, "infiniband-100g"),
                ("inter-allgather[c1]", 0.028759776912747836, 0.03306413044655141, "ethernet-10g"),
                ("intra-broadcast[c1]", 0.03306413044655141, 0.03325063969028137, "infiniband-100g"),
                ("intra-gather[c2]", 0.02457442337894426, 0.02469342337894426, "infiniband-100g"),
                ("inter-allgather[c2]", 0.03306413044655141, 0.037368483980354986, "ethernet-10g"),
                ("intra-broadcast[c2]", 0.037368483980354986, 0.03755499322408495, "infiniband-100g"),
                ("intra-gather[c3]", 0.02469342337894426, 0.02481242337894426, "infiniband-100g"),
                ("inter-allgather[c3]", 0.037368483980354986, 0.04167283751415856, "ethernet-10g"),
                ("intra-broadcast[c3]", 0.04167283751415856, 0.04185934675788852, "infiniband-100g"),
            )),
            (0.0027500000000000003, 0.0027500000000000003, 0.0068135, 0.0068135, 0.02433642337894426, (
                ("intra-gather[c0]", 0.0068135, 0.0069325, "infiniband-100g"),
                ("inter-allgather[c0]", 0.0069325, 0.011236853533803576, "ethernet-10g"),
                ("intra-broadcast[c0]", 0.011236853533803576, 0.011423362777533535, "infiniband-100g"),
                ("intra-gather[c1]", 0.0069325, 0.0070515000000000005, "infiniband-100g"),
                ("inter-allgather[c1]", 0.011236853533803576, 0.01554120706760715, "ethernet-10g"),
                ("intra-broadcast[c1]", 0.01554120706760715, 0.01572771631133711, "infiniband-100g"),
                ("intra-gather[c2]", 0.0070515000000000005, 0.007170500000000001, "infiniband-100g"),
                ("inter-allgather[c2]", 0.01554120706760715, 0.019845560601410725, "ethernet-10g"),
                ("intra-broadcast[c2]", 0.019845560601410725, 0.020032069845140686, "infiniband-100g"),
                ("intra-gather[c3]", 0.0071705, 0.0072895, "infiniband-100g"),
                ("inter-allgather[c3]", 0.019845560601410725, 0.0241499141352143, "ethernet-10g"),
                ("intra-broadcast[c3]", 0.0241499141352143, 0.02433642337894426, "infiniband-100g"),
            )),
            (0.0005, 0.0005, 0.001403, 0.001403, 0.005521766913363141, (
                ("intra-gather", 0.001403, 0.0015126666666666667, "infiniband-100g"),
                ("inter-allgather", 0.0015126666666666667, 0.005355425363380955, "ethernet-10g"),
                ("intra-broadcast", 0.005355425363380955, 0.005521766913363141, "infiniband-100g"),
            )),
        ],
    },
    ("chunked", True): {
        "iteration_seconds": 0.04285934675788852,
        "serialized_seconds": 0.05419461367125167,
        "events": [
            (0.005, 0.0068135, 0.010877, 0.02433642337894426, 0.04185934675788852, (
                ("intra-gather[c0]", 0.02433642337894426, 0.024455423378944262, "infiniband-100g"),
                ("inter-allgather[c0]", 0.024455423378944262, 0.028759776912747836, "ethernet-10g"),
                ("intra-broadcast[c0]", 0.028759776912747836, 0.028946286156477798, "infiniband-100g"),
                ("intra-gather[c1]", 0.024455423378944262, 0.024574423378944263, "infiniband-100g"),
                ("inter-allgather[c1]", 0.028759776912747836, 0.03306413044655141, "ethernet-10g"),
                ("intra-broadcast[c1]", 0.03306413044655141, 0.03325063969028137, "infiniband-100g"),
                ("intra-gather[c2]", 0.02457442337894426, 0.02469342337894426, "infiniband-100g"),
                ("inter-allgather[c2]", 0.03306413044655141, 0.037368483980354986, "ethernet-10g"),
                ("intra-broadcast[c2]", 0.037368483980354986, 0.03755499322408495, "infiniband-100g"),
                ("intra-gather[c3]", 0.02469342337894426, 0.02481242337894426, "infiniband-100g"),
                ("inter-allgather[c3]", 0.037368483980354986, 0.04167283751415856, "ethernet-10g"),
                ("intra-broadcast[c3]", 0.04167283751415856, 0.04185934675788852, "infiniband-100g"),
            )),
            (0.0027500000000000003, 0.0027500000000000003, 0.0068135, 0.0068135, 0.02433642337894426, (
                ("intra-gather[c0]", 0.0068135, 0.0069325, "infiniband-100g"),
                ("inter-allgather[c0]", 0.0069325, 0.011236853533803576, "ethernet-10g"),
                ("intra-broadcast[c0]", 0.011236853533803576, 0.011423362777533535, "infiniband-100g"),
                ("intra-gather[c1]", 0.0069325, 0.0070515000000000005, "infiniband-100g"),
                ("inter-allgather[c1]", 0.011236853533803576, 0.01554120706760715, "ethernet-10g"),
                ("intra-broadcast[c1]", 0.01554120706760715, 0.01572771631133711, "infiniband-100g"),
                ("intra-gather[c2]", 0.0070515000000000005, 0.007170500000000001, "infiniband-100g"),
                ("inter-allgather[c2]", 0.01554120706760715, 0.019845560601410725, "ethernet-10g"),
                ("intra-broadcast[c2]", 0.019845560601410725, 0.020032069845140686, "infiniband-100g"),
                ("intra-gather[c3]", 0.0071705, 0.0072895, "infiniband-100g"),
                ("inter-allgather[c3]", 0.019845560601410725, 0.0241499141352143, "ethernet-10g"),
                ("intra-broadcast[c3]", 0.0241499141352143, 0.02433642337894426, "infiniband-100g"),
            )),
            (0.0005, 0.0005, 0.001403, 0.001403, 0.005521766913363141, (
                ("intra-gather", 0.001403, 0.0015126666666666667, "infiniband-100g"),
                ("inter-allgather", 0.0015126666666666667, 0.005355425363380955, "ethernet-10g"),
                ("intra-broadcast", 0.005355425363380955, 0.005521766913363141, "infiniband-100g"),
            )),
        ],
    },
    ("comm_scale", False): {
        "iteration_seconds": 0.5195039642053142,
        "serialized_seconds": 0.5271199642053142,
        "communication": 0.5165999642053143,
        "events": [
            (0.005, 0.005, 0.005904, 0.4151839713642514, 0.5185039642053142, (
                ("node-gather", 0.4151839713642514, 0.41537040469758474, "infiniband-100g"),
                ("rack-gather", 0.41537040469758474, 0.42158658182970477, "ethernet-25g"),
                ("pod-gather", 0.4215865818297047, 0.4361008216450872, "ethernet-25g/os2"),
                ("core-allgather", 0.43610082164508723, 0.510961388014838, "ethernet-10g/os4"),
                ("pod-broadcast", 0.510961388014838, 0.5157374165862666, "ethernet-25g/os2"),
                ("rack-broadcast", 0.5157374165862666, 0.5181509308719808, "ethernet-25g"),
                ("node-broadcast", 0.5181509308719809, 0.5185039642053143, "infiniband-100g"),
            )),
            (0.004, 0.004, 0.004904, 0.31186397852318853, 0.4151839713642514, (
                ("node-gather", 0.31186397852318853, 0.3120504118565219, "infiniband-100g"),
                ("rack-gather", 0.3120504118565219, 0.3182665889886419, "ethernet-25g"),
                ("pod-gather", 0.31826658898864185, 0.3327808288040243, "ethernet-25g/os2"),
                ("core-allgather", 0.3327808288040244, 0.4076413951737752, "ethernet-10g/os4"),
                ("pod-broadcast", 0.4076413951737752, 0.41241742374520374, "ethernet-25g/os2"),
                ("rack-broadcast", 0.41241742374520374, 0.41483093803091803, "ethernet-25g"),
                ("node-broadcast", 0.41483093803091803, 0.41518397136425134, "infiniband-100g"),
            )),
            (0.003, 0.003, 0.003904, 0.20854398568212568, 0.31186397852318853, (
                ("node-gather", 0.20854398568212568, 0.20873041901545902, "infiniband-100g"),
                ("rack-gather", 0.20873041901545902, 0.21494659614757902, "ethernet-25g"),
                ("pod-gather", 0.21494659614757902, 0.2294608359629615, "ethernet-25g/os2"),
                ("core-allgather", 0.2294608359629615, 0.3043214023327123, "ethernet-10g/os4"),
                ("pod-broadcast", 0.3043214023327123, 0.3090974309041409, "ethernet-25g/os2"),
                ("rack-broadcast", 0.3090974309041409, 0.31151094518985517, "ethernet-25g"),
                ("node-broadcast", 0.31151094518985517, 0.3118639785231885, "infiniband-100g"),
            )),
            (0.002, 0.002, 0.002904, 0.10522399284106285, 0.20854398568212568, (
                ("node-gather", 0.10522399284106285, 0.10541042617439618, "infiniband-100g"),
                ("rack-gather", 0.10541042617439618, 0.11162660330651618, "ethernet-25g"),
                ("pod-gather", 0.11162660330651618, 0.12614084312189866, "ethernet-25g/os2"),
                ("core-allgather", 0.12614084312189866, 0.20100140949164946, "ethernet-10g/os4"),
                ("pod-broadcast", 0.2010014094916495, 0.20577743806307805, "ethernet-25g/os2"),
                ("rack-broadcast", 0.20577743806307808, 0.20819095234879237, "ethernet-25g"),
                ("node-broadcast", 0.20819095234879237, 0.2085439856821257, "infiniband-100g"),
            )),
            (0.001, 0.001, 0.0019039999999999999, 0.0019039999999999999, 0.10522399284106285, (
                ("node-gather", 0.0019039999999999999, 0.002090433333333333, "infiniband-100g"),
                ("rack-gather", 0.002090433333333333, 0.008306610465453336, "ethernet-25g"),
                ("pod-gather", 0.008306610465453336, 0.022820850280835817, "ethernet-25g/os2"),
                ("core-allgather", 0.022820850280835817, 0.09768141665058663, "ethernet-10g/os4"),
                ("pod-broadcast", 0.09768141665058665, 0.10245744522201522, "ethernet-25g/os2"),
                ("rack-broadcast", 0.10245744522201522, 0.10487095950772951, "ethernet-25g"),
                ("node-broadcast", 0.10487095950772951, 0.10522399284106285, "infiniband-100g"),
            )),
        ],
    },
    ("comm_scale", True): {
        "iteration_seconds": 0.4056662583200661,
        "serialized_seconds": 0.5271199642053142,
        "communication": 0.5165999642053143,
        "events": [
            (0.005, 0.005, 0.005904, 0.30134626547900323, 0.4046662583200661, (
                ("node-gather", 0.30134626547900323, 0.3015326988123366, "infiniband-100g"),
                ("rack-gather", 0.3015326988123366, 0.3077488759444566, "ethernet-25g"),
                ("pod-gather", 0.30774887594445655, 0.322263115759839, "ethernet-25g/os2"),
                ("core-allgather", 0.32226311575983907, 0.39712368212958987, "ethernet-10g/os4"),
                ("pod-broadcast", 0.39712368212958987, 0.40189971070101843, "ethernet-25g/os2"),
                ("rack-broadcast", 0.40189971070101843, 0.4043132249867327, "ethernet-25g"),
                ("node-broadcast", 0.4043132249867327, 0.40466625832006603, "infiniband-100g"),
            )),
            (0.004, 0.004, 0.004904, 0.22648569910925245, 0.3298056919503153, (
                ("node-gather", 0.22648569910925245, 0.2266721324425858, "infiniband-100g"),
                ("rack-gather", 0.2266721324425858, 0.2328883095747058, "ethernet-25g"),
                ("pod-gather", 0.2328883095747058, 0.24740254939008827, "ethernet-25g/os2"),
                ("core-allgather", 0.24740254939008827, 0.32226311575983907, "ethernet-10g/os4"),
                ("pod-broadcast", 0.3222631157598391, 0.3270391443312677, "ethernet-25g/os2"),
                ("rack-broadcast", 0.3270391443312677, 0.329452658616982, "ethernet-25g"),
                ("node-broadcast", 0.329452658616982, 0.3298056919503153, "infiniband-100g"),
            )),
            (0.003, 0.003, 0.003904, 0.15162513273950165, 0.2549451255805645, (
                ("node-gather", 0.15162513273950165, 0.151811566072835, "infiniband-100g"),
                ("rack-gather", 0.151811566072835, 0.158027743204955, "ethernet-25g"),
                ("pod-gather", 0.158027743204955, 0.17254198302033746, "ethernet-25g/os2"),
                ("core-allgather", 0.17254198302033746, 0.24740254939008827, "ethernet-10g/os4"),
                ("pod-broadcast", 0.2474025493900883, 0.2521785779615169, "ethernet-25g/os2"),
                ("rack-broadcast", 0.2521785779615169, 0.25459209224723117, "ethernet-25g"),
                ("node-broadcast", 0.25459209224723117, 0.2549451255805645, "infiniband-100g"),
            )),
            (0.002, 0.002, 0.002904, 0.07676456636975082, 0.18008455921081368, (
                ("node-gather", 0.07676456636975082, 0.07695099970308415, "infiniband-100g"),
                ("rack-gather", 0.07695099970308415, 0.08316717683520415, "ethernet-25g"),
                ("pod-gather", 0.08316717683520415, 0.09768141665058663, "ethernet-25g/os2"),
                ("core-allgather", 0.09768141665058663, 0.17254198302033746, "ethernet-10g/os4"),
                ("pod-broadcast", 0.17254198302033746, 0.17731801159176602, "ethernet-25g/os2"),
                ("rack-broadcast", 0.17731801159176602, 0.1797315258774803, "ethernet-25g"),
                ("node-broadcast", 0.1797315258774803, 0.18008455921081365, "infiniband-100g"),
            )),
            (0.001, 0.001, 0.0019039999999999999, 0.0019039999999999999, 0.10522399284106285, (
                ("node-gather", 0.0019039999999999999, 0.002090433333333333, "infiniband-100g"),
                ("rack-gather", 0.002090433333333333, 0.008306610465453336, "ethernet-25g"),
                ("pod-gather", 0.008306610465453336, 0.022820850280835817, "ethernet-25g/os2"),
                ("core-allgather", 0.022820850280835817, 0.09768141665058663, "ethernet-10g/os4"),
                ("pod-broadcast", 0.09768141665058665, 0.10245744522201522, "ethernet-25g/os2"),
                ("rack-broadcast", 0.10245744522201522, 0.10487095950772951, "ethernet-25g"),
                ("node-broadcast", 0.10487095950772951, 0.10522399284106285, "infiniband-100g"),
            )),
        ],
    },
}

#: ``link_utilization()`` of both ``LOOP_GOLDEN["chunked", *]`` schedules,
#: captured from the former per-event view.  Both lane modes report the same
#: values.
CHUNKED_LINK_UTILIZATION = {
    "ethernet-10g": {
        "busy_seconds": 0.03827758696714288,
        "window_seconds": 0.04045634675788852,
        "utilization": 0.9461454143700999,
    },
    "infiniband-100g": {
        "busy_seconds": 0.0027200821664885456,
        "window_seconds": 0.04045634675788852,
        "utilization": 0.06723499239234104,
    },
}


@pytest.fixture(scope="module")
def bucketed_results():
    return _results(16_000)


def _results(bucket_bytes):
    gradient = realistic_gradient(20_000, seed=13)
    pipeline = CompressionPipeline(create_compressor("topk"), bucket_bytes=bucket_bytes)
    return [pipeline.compress(gradient, 0.05) for _ in range(2)]


def _timeline(
    preset,
    *,
    overlap="comm+compress",
    cross_bucket=True,
    algorithm="hierarchical",
    dedup="uniform",
    pipeline_chunks=1,
    dimension_scale=50.0,
):
    topology = get_topology(preset)
    collective = CollectiveModel(
        topology=topology,
        allgather_algorithm=algorithm,
        allgather_dedup=None if dedup is None else SparseAggregateModel(dedup),
        pipeline_chunks=pipeline_chunks,
    )
    return TimelineModel(
        collective=collective,
        device=GPU_V100,
        compute_seconds=0.005,
        model_dimension=20_000,
        update_seconds=0.001,
        dimension_scale=dimension_scale,
        overlap=overlap,
        cross_bucket_pipeline=cross_bucket,
    )


def _event_rows(schedule):
    return list(zip(
        schedule.ready.tolist(),
        schedule.compress_start.tolist(),
        schedule.compress_end.tolist(),
        schedule.comm_start.tolist(),
        schedule.comm_end.tolist(),
    ))


def _full_rows(schedule):
    return [(*row, phases) for row, phases in zip(_event_rows(schedule), phase_rows(schedule))]


class TestGoldenPins:
    """The scheduler reproduces the captured schedules exactly."""

    @pytest.mark.parametrize("preset", sorted(GOLDEN))
    def test_schedule_matches_golden(self, preset, bucketed_results):
        golden = GOLDEN[preset]
        schedule = _timeline(preset).schedule_iteration(bucketed_results)
        assert isinstance(schedule, ScheduleArrays)
        check_schedule(schedule)
        assert schedule.iteration_seconds == golden["iteration_seconds"]
        assert schedule.serialized_seconds == golden["serialized_seconds"]
        assert _event_rows(schedule) == golden["events"]
        first = phase_rows(schedule)[0]
        assert tuple(name for name, _, _, _ in first) == golden["phase_names"]
        assert tuple(link for _, _, _, link in first) == golden["phase_links"]

    @pytest.mark.parametrize("cross_bucket", [False, True])
    def test_ragged_chunked_schedule_matches_loop_golden(self, cross_bucket):
        golden = LOOP_GOLDEN[("chunked", cross_bucket)]
        timeline = _timeline(
            "ethernet-4x8", cross_bucket=cross_bucket, pipeline_chunks=4, dimension_scale=100.0
        )
        schedule = timeline.schedule_iteration(_results(36_000))
        check_schedule(schedule)
        # Ragged rows: both sides of the latency-bound serial fallback.
        assert [len(phases) for phases in phase_rows(schedule)] == [12, 12, 3]
        assert schedule.iteration_seconds == golden["iteration_seconds"]
        assert schedule.serialized_seconds == golden["serialized_seconds"]
        assert _full_rows(schedule) == golden["events"]
        assert schedule.link_utilization() == CHUNKED_LINK_UTILIZATION

    @pytest.mark.parametrize("cross_bucket", [False, True])
    def test_scaled_comm_lane_matches_loop_golden(self, cross_bucket, bucketed_results):
        golden = LOOP_GOLDEN[("comm_scale", cross_bucket)]
        timing = _timeline("fat-tree-128", cross_bucket=cross_bucket).compressed_iteration(
            bucketed_results, comm_scale=1.7
        )
        schedule = check_schedule(timing.schedule)
        assert timing.communication == golden["communication"]
        assert timing.total == golden["iteration_seconds"]
        assert schedule.serialized_seconds == golden["serialized_seconds"]
        assert _full_rows(schedule) == golden["events"]


class TestInvariantsAcrossPresets:
    """Every preset and knob combination yields a valid, consistent schedule."""

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    @pytest.mark.parametrize("cross_bucket", [False, True])
    @pytest.mark.parametrize("overlap", ["comm", "comm+compress"])
    def test_schedules_valid_across_presets(self, preset, cross_bucket, overlap, bucketed_results):
        timeline = _timeline(preset, overlap=overlap, cross_bucket=cross_bucket)
        schedule = timeline.schedule_iteration(bucketed_results)
        assert isinstance(schedule, ScheduleArrays)
        assert schedule.cross_bucket is cross_bucket
        check_schedule(schedule)
        times = timeline.bucket_communication_times(bucketed_results)
        assert (schedule.comm_end - schedule.comm_start).tolist() == pytest.approx(times)

    @pytest.mark.parametrize("preset", ALL_PRESETS)
    @pytest.mark.parametrize("overlap", ["none", "comm", "comm+compress"])
    def test_iteration_timing_consistent_with_schedule(self, preset, overlap, bucketed_results):
        timeline = _timeline(preset, overlap=overlap)
        timing = timeline.compressed_iteration(bucketed_results)
        assert timing.communication == sum(timeline.bucket_communication_times(bucketed_results))
        if overlap == "none":
            assert timing.schedule is None
            assert timing.total == timing.serialized
        else:
            check_schedule(timing.schedule)
            assert timing.total == timing.schedule.iteration_seconds
            assert timing.schedule.serialized_seconds == pytest.approx(timing.serialized)

    @pytest.mark.parametrize("algorithm", ["flat-allgather", "recursive-doubling", "hierarchical"])
    @pytest.mark.parametrize("dedup", [None, "uniform"])
    @pytest.mark.parametrize("pipeline_chunks", [1, 4])
    def test_table_rows_equal_per_bucket_costs(
        self, algorithm, dedup, pipeline_chunks, bucketed_results
    ):
        # Row b of the priced table is bucket b's CollectiveCost, bit for bit.
        timeline = _timeline(
            "fat-tree-128", algorithm=algorithm, dedup=dedup, pipeline_chunks=pipeline_chunks
        )
        metadata = bucketed_results[0].metadata
        payloads = [
            max(r.metadata["bucket_payload_bytes"][i] for r in bucketed_results)
            for i in range(metadata["num_buckets"])
        ]
        densities = [p / 8 / size for p, size in zip(payloads, metadata["bucket_sizes"])]
        costs = [
            timeline.collective.allgather_cost(p * 50.0, density=d)
            for p, d in zip(payloads, densities)
        ]
        assert timeline.bucket_communication_times(bucketed_results) == [c.total for c in costs]
        check_schedule(timeline.schedule_iteration(bucketed_results))


class TestScheduleArraysSurface:
    """Summary properties and link utilisation read straight off the arrays."""

    def test_summary_properties_match_the_priced_trace(self, bucketed_results):
        timeline = _timeline("ethernet-4x8")
        arrays = timeline.schedule_iteration(bucketed_results)
        assert arrays.num_buckets == bucketed_results[0].metadata["num_buckets"]
        assert arrays.phase_mask is None and arrays.present.all()
        comm = timeline.bucket_communication_times(bucketed_results)
        assert arrays.total_comm_seconds == pytest.approx(sum(comm))
        assert (arrays.compress_end - arrays.compress_start).sum() > 0.0
        assert 0.0 < arrays.iteration_seconds < arrays.serialized_seconds

    def test_link_utilization_sums_present_phases_per_link(self, bucketed_results):
        arrays = _timeline("torus-2d").schedule_iteration(bucketed_results)
        util = arrays.link_utilization()
        assert sorted(util) == sorted(set(arrays.phase_links))
        window = max(arrays.comm_end.tolist()) - min(arrays.comm_start.tolist())
        for link, stats in util.items():
            columns = [p for p, name in enumerate(arrays.phase_links) if name == link]
            seconds = (arrays.phase_end - arrays.phase_start)[:, columns]
            assert stats["busy_seconds"] == pytest.approx(seconds.sum())
            assert stats["window_seconds"] == window
            assert stats["utilization"] == stats["busy_seconds"] / window


class TestChunkedAndUnbucketed:
    def test_chunked_collectives_schedule_from_a_masked_table(self, bucketed_results):
        timeline = _timeline("ethernet-4x8", pipeline_chunks=4, dimension_scale=100.0)
        schedule = timeline.schedule_iteration(_results(36_000))
        assert isinstance(schedule, ScheduleArrays)
        assert schedule.phase_mask is not None
        assert schedule.phase_mask.sum(axis=1).tolist() == [12, 12, 3]

    def test_unbucketed_results_price_one_payload_without_schedule(self):
        gradient = realistic_gradient(5_000, seed=7)
        results = [create_compressor("topk").compress(gradient, 0.05)]
        timeline = _timeline("torus-2d")
        timing = timeline.compressed_iteration(results)
        assert timing.schedule is None
        payload = results[0].sparse.payload_bytes() * 50.0
        expected = timeline.collective.allgather_cost(payload, density=results[0].sparse.density)
        assert timing.communication == expected.total


class TestPhaseTableFromCosts:
    def test_ragged_rows_fill_their_own_blocks(self):
        model = CollectiveModel(
            get_topology("ethernet-4x8"), allgather_algorithm="hierarchical", pipeline_chunks=4
        )
        costs = [model.allgather_cost(p) for p in (2e6, 1e4, 3e6)]
        table = PhaseTable.from_costs(costs)
        assert table.seconds.shape == (3, 15)  # 12 chunk columns + 3 serial columns
        assert table.mask.sum(axis=1).tolist() == [12, 3, 12]
        assert table.mask[0, :12].all() and table.mask[1, 12:].all()
        assert table.names[12:] == ("intra-gather", "inter-allgather", "intra-broadcast")
        assert table.names[0] == "intra-gather[c0]"
        assert table.totals.tolist() == [cost.total for cost in costs]
        assert table.seconds[~table.mask].tolist() == [0.0] * (3 * 15 - 27)

    def test_empty_and_phaseless_costs(self):
        one_worker = CollectiveModel.flat(NetworkModel(), 1)
        table = PhaseTable.from_costs([one_worker.allgather_cost(1e5)])
        assert table.seconds.shape == (1, 0)
        assert table.totals.tolist() == [0.0]
        assert PhaseTable.from_costs([]).seconds.shape[0] == 0


class TestScheduleIterationErrors:
    def test_empty_results_rejected(self):
        with pytest.raises(ValueError, match="at least one worker result"):
            _timeline("torus-2d").schedule_iteration([])

    def test_overlap_none_rejected(self, bucketed_results):
        timeline = _timeline("torus-2d", overlap="none")
        with pytest.raises(ValueError, match="builds no schedule"):
            timeline.schedule_iteration(bucketed_results)

    def test_unbucketed_results_rejected(self):
        gradient = realistic_gradient(5_000, seed=7)
        results = [create_compressor("topk").compress(gradient, 0.05)]
        with pytest.raises(ValueError, match="no per-bucket payloads"):
            _timeline("torus-2d").schedule_iteration(results)


class TestSimulateIterationArraysValidation:
    def _valid_kwargs(self):
        return dict(
            ready_seconds=[0.1, 0.2],
            compress_seconds=[0.01, 0.01],
            phase_seconds=[[0.1, 0.2], [0.1, 0.2]],
            phase_names=("gather", "broadcast"),
            phase_links=("intra", "inter"),
            compute_seconds=0.3,
            overlap="comm",
        )

    def test_valid_inputs_build_a_schedule(self):
        arrays = simulate_iteration_arrays(**self._valid_kwargs())
        assert isinstance(arrays, ScheduleArrays)
        assert arrays.num_buckets == 2
        assert arrays.iteration_seconds > 0.0
        check_schedule(arrays)

    @pytest.mark.parametrize("ready", [0.1, [[0.1], [0.2]]], ids=["scalar", "2-D"])
    def test_ready_seconds_must_be_one_dimensional(self, ready):
        # A scalar used to raise IndexError, a matrix TypeError from the
        # gate comparison in the ready-order pass.
        kwargs = dict(self._valid_kwargs(), ready_seconds=ready)
        with pytest.raises(ValueError, match="ready_seconds must be 1-D"):
            simulate_iteration_arrays(**kwargs)

    def test_phase_matrix_shape_enforced(self):
        kwargs = self._valid_kwargs()
        kwargs["phase_seconds"] = [[0.1, 0.2]]  # one row for two buckets
        with pytest.raises(ValueError, match="num_buckets, num_phases"):
            simulate_iteration_arrays(**kwargs)

    def test_phase_template_length_enforced(self):
        kwargs = self._valid_kwargs()
        kwargs["phase_names"] = ("gather",)
        with pytest.raises(ValueError, match="phase_names and phase_links"):
            simulate_iteration_arrays(**kwargs)

    def test_compress_shape_enforced(self):
        kwargs = self._valid_kwargs()
        kwargs["compress_seconds"] = [0.01]
        with pytest.raises(ValueError, match="compress_seconds"):
            simulate_iteration_arrays(**kwargs)

    def test_offsets_and_mask_shapes_enforced(self):
        with pytest.raises(ValueError, match="phase_offsets"):
            simulate_iteration_arrays(**self._valid_kwargs(), phase_offsets=[[0.0, 0.1]])
        with pytest.raises(ValueError, match="phase_mask"):
            simulate_iteration_arrays(**self._valid_kwargs(), phase_mask=[[True, True]])

    def test_absent_phases_must_be_empty(self):
        with pytest.raises(ValueError, match="zero seconds"):
            simulate_iteration_arrays(
                **self._valid_kwargs(), phase_mask=[[True, False], [True, True]]
            )

    def test_negative_times_rejected(self):
        kwargs = self._valid_kwargs()
        kwargs["ready_seconds"] = [-0.1, 0.2]
        with pytest.raises(ValueError, match="non-negative"):
            simulate_iteration_arrays(**kwargs)
        with pytest.raises(ValueError, match="non-negative"):
            simulate_iteration_arrays(**{**self._valid_kwargs(), "compute_seconds": -1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, bad):
        # NaN fails every ordered comparison, so "< 0" alone let it through
        # and the iteration time came back NaN.
        for field in ("compute_seconds", "update_seconds"):
            with pytest.raises(ValueError, match="finite"):
                simulate_iteration_arrays(**{**self._valid_kwargs(), field: bad})
        for field, value in (
            ("ready_seconds", [bad, 0.2]),
            ("compress_seconds", [0.01, bad]),
            ("phase_seconds", [[0.1, bad], [0.1, 0.2]]),
        ):
            with pytest.raises(ValueError, match="finite"):
                simulate_iteration_arrays(**{**self._valid_kwargs(), field: value})
        with pytest.raises(ValueError, match="finite"):
            simulate_iteration_arrays(**self._valid_kwargs(), phase_offsets=[[0.0, bad]] * 2)

    @pytest.mark.parametrize("cross_bucket", [False, True])
    @pytest.mark.parametrize("comm_scale", [1.0, 1.7])
    def test_serial_offsets_given_explicitly_change_nothing(self, cross_bucket, comm_scale):
        # Offsets equal to the serial cursor walk reproduce the default path.
        kwargs = dict(self._valid_kwargs(), cross_bucket_pipeline=cross_bucket,
                      comm_scale=comm_scale)
        seconds = np.asarray(kwargs["phase_seconds"])
        offsets = np.zeros_like(seconds)
        offsets[:, 1:] = np.cumsum(seconds, axis=1)[:, :-1]
        implicit = simulate_iteration_arrays(**kwargs)
        explicit = simulate_iteration_arrays(**kwargs, phase_offsets=offsets)
        assert_same_schedule(explicit, implicit)
