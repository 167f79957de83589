"""Golden pins on the planner's lower bound, captured before the bound was memoized.

The tuner tests compare memoized runs with memo-off runs, which cannot see a
bound that moves on both paths alike; these pins can.  Two matrices, every
value the exact float the engine produced when they were captured:

* ``BOUNDS``: :func:`~repro.harness.bound_point` on a small proxy over
  compressor x dedup assumption x cross-bucket lanes x overlap policy x
  chunk pipelining, on ``fat-tree-128`` and ``torus-2d``;
* ``TRACE``: every record of the cache-cold planner query the end-to-end
  benchmark times (``vgg16-cifar10``, seed 0, ``fat-tree-128``, the grid
  below): the lower bound of each skipped point and every metric of each
  priced one, in trace order.

Exact ``==`` on purpose, as in ``test_sweep_golden.py``: these are
deterministic closed-form and event-driven computations, not measurements.
The same cold query also checks what a bound pays for: a compression's
result facts are derived once, and a phase table is reduced once.
"""

import itertools

import pytest

from repro.distributed import timeline, topology
from repro.harness import SweepCache, SweepPoint, WorkloadSpec, autotune, bound_point

MiB = 2**20

WORKLOAD = WorkloadSpec(
    name="golden-bound", dimension=1_000_000, comm_overhead=0.7, proxy_elements=4096, seed=7
)

#: (topology, compressor, dedup_assumption, cross_bucket_pipeline, overlap,
#: pipeline_chunks), in pin order.
CELLS = list(
    itertools.product(
        ("fat-tree-128", "torus-2d"),
        ("topk", "dgc", "sidco-e"),
        (None, "uniform"),
        (False, True),
        ("none", "comm", "comm+compress"),
        (1, 4),
    )
)

#: The cold planner query's grid (the end-to-end benchmark's ``COLD_AXES``).
COLD_AXES = {
    "compressor": ("topk", "dgc", "sidco-e"),
    "ratio": (0.1, 0.01, 0.001),
    "bucket_bytes": (MiB, 4 * MiB),
    "overlap": ("comm+compress",),
    "allgather_algorithm": ("hierarchical",),
    "dedup_assumption": (None, "uniform"),
    "cross_bucket_pipeline": (False, True),
    "scheduler_backend": ("vectorized",),
}

#: ``bound_point`` per cell of :data:`CELLS` (ratio 0.01, 512 KiB buckets,
#: hierarchical all-gather).
BOUNDS = {('fat-tree-128', 'topk', None, False, 'none', 1): 0.8535254625818487,
 ('fat-tree-128', 'topk', None, False, 'none', 4): 0.6708978958001904,
 ('fat-tree-128', 'topk', None, False, 'comm', 1): 0.8493850719609892,
 ('fat-tree-128', 'topk', None, False, 'comm', 4): 0.6667575051793309,
 ('fat-tree-128', 'topk', None, False, 'comm+compress', 1): 0.7805380854226932,
 ('fat-tree-128', 'topk', None, False, 'comm+compress', 4): 0.597910518641035,
 ('fat-tree-128', 'topk', None, True, 'none', 1): 0.8535254625818487,
 ('fat-tree-128', 'topk', None, True, 'none', 4): 0.6708978958001904,
 ('fat-tree-128', 'topk', None, True, 'comm', 1): 0.597881649577445,
 ('fat-tree-128', 'topk', None, True, 'comm', 4): 0.6014816495258448,
 ('fat-tree-128', 'topk', None, True, 'comm+compress', 1): 0.5290346630391491,
 ('fat-tree-128', 'topk', None, True, 'comm+compress', 4): 0.5326346629875489,
 ('fat-tree-128', 'topk', 'uniform', False, 'none', 1): 0.3295606735521122,
 ('fat-tree-128', 'topk', 'uniform', False, 'none', 4): 0.29846728123819344,
 ('fat-tree-128', 'topk', 'uniform', False, 'comm', 1): 0.3254202829312527,
 ('fat-tree-128', 'topk', 'uniform', False, 'comm', 4): 0.29432689061733386,
 ('fat-tree-128', 'topk', 'uniform', False, 'comm+compress', 1): 0.2565732963929568,
 ('fat-tree-128', 'topk', 'uniform', False, 'comm+compress', 4): 0.22547990407903795,
 ('fat-tree-128', 'topk', 'uniform', True, 'none', 1): 0.3295606735521122,
 ('fat-tree-128', 'topk', 'uniform', True, 'none', 4): 0.29846728123819344,
 ('fat-tree-128', 'topk', 'uniform', True, 'comm', 1): 0.2759624265046941,
 ('fat-tree-128', 'topk', 'uniform', True, 'comm', 4): 0.2795624264530941,
 ('fat-tree-128', 'topk', 'uniform', True, 'comm+compress', 1): 0.2071154399663982,
 ('fat-tree-128', 'topk', 'uniform', True, 'comm+compress', 4): 0.21071543991479824,
 ('fat-tree-128', 'dgc', None, False, 'none', 1): 0.7688255617284534,
 ('fat-tree-128', 'dgc', None, False, 'none', 4): 0.6058008967129066,
 ('fat-tree-128', 'dgc', None, False, 'comm', 1): 0.7680795180247073,
 ('fat-tree-128', 'dgc', None, False, 'comm', 4): 0.6050548530091605,
 ('fat-tree-128', 'dgc', None, False, 'comm+compress', 1): 0.6992325314864113,
 ('fat-tree-128', 'dgc', None, False, 'comm+compress', 4): 0.5362078664708645,
 ('fat-tree-128', 'dgc', None, True, 'none', 1): 0.7688255617284534,
 ('fat-tree-128', 'dgc', None, True, 'none', 4): 0.6058008967129066,
 ('fat-tree-128', 'dgc', None, True, 'comm', 1): 0.5427132979959782,
 ('fat-tree-128', 'dgc', None, True, 'comm', 4): 0.5463132979443781,
 ('fat-tree-128', 'dgc', None, True, 'comm+compress', 1): 0.47386631145768243,
 ('fat-tree-128', 'dgc', None, True, 'comm+compress', 4): 0.47746631140608226,
 ('fat-tree-128', 'dgc', 'uniform', False, 'none', 1): 0.30790173715280633,
 ('fat-tree-128', 'dgc', 'uniform', False, 'none', 4): 0.27887664124133876,
 ('fat-tree-128', 'dgc', 'uniform', False, 'comm', 1): 0.3071556934490602,
 ('fat-tree-128', 'dgc', 'uniform', False, 'comm', 4): 0.27813059753759267,
 ('fat-tree-128', 'dgc', 'uniform', False, 'comm+compress', 1): 0.2383087069107643,
 ('fat-tree-128', 'dgc', 'uniform', False, 'comm+compress', 4): 0.20928361099929674,
 ('fat-tree-128', 'dgc', 'uniform', True, 'none', 1): 0.30790173715280633,
 ('fat-tree-128', 'dgc', 'uniform', True, 'none', 4): 0.27887664124133876,
 ('fat-tree-128', 'dgc', 'uniform', True, 'comm', 1): 0.2604555655591033,
 ('fat-tree-128', 'dgc', 'uniform', True, 'comm', 4): 0.2640555655075033,
 ('fat-tree-128', 'dgc', 'uniform', True, 'comm+compress', 1): 0.19160857902080744,
 ('fat-tree-128', 'dgc', 'uniform', True, 'comm+compress', 4): 0.19520857896920749,
 ('fat-tree-128', 'sidco-e', None, False, 'none', 1): 5.060791410755536,
 ('fat-tree-128', 'sidco-e', None, False, 'none', 4): 3.8588129521360854,
 ('fat-tree-128', 'sidco-e', None, False, 'comm', 1): 5.060718129505609,
 ('fat-tree-128', 'sidco-e', None, False, 'comm', 4): 3.8587396708861585,
 ('fat-tree-128', 'sidco-e', None, False, 'comm+compress', 1): 4.991871142967313,
 ('fat-tree-128', 'sidco-e', None, False, 'comm+compress', 4): 3.789892684347863,
 ('fat-tree-128', 'sidco-e', None, True, 'none', 1): 5.060791410755536,
 ('fat-tree-128', 'sidco-e', None, True, 'none', 4): 3.8588129521360854,
 ('fat-tree-128', 'sidco-e', None, True, 'comm', 1): 3.4500801846324736,
 ('fat-tree-128', 'sidco-e', None, True, 'comm', 4): 3.4536801844630394,
 ('fat-tree-128', 'sidco-e', None, True, 'comm+compress', 1): 3.3812331980952792,
 ('fat-tree-128', 'sidco-e', None, True, 'comm+compress', 4): 3.3848331979291495,
 ('fat-tree-128', 'sidco-e', 'uniform', False, 'none', 1): 0.3841348785683874,
 ('fat-tree-128', 'sidco-e', 'uniform', False, 'none', 4): 0.3239344954216689,
 ('fat-tree-128', 'sidco-e', 'uniform', False, 'comm', 1): 0.3840615973184607,
 ('fat-tree-128', 'sidco-e', 'uniform', False, 'comm', 4): 0.32386121417174213,
 ('fat-tree-128', 'sidco-e', 'uniform', False, 'comm+compress', 1): 0.31521461078016483,
 ('fat-tree-128', 'sidco-e', 'uniform', False, 'comm+compress', 4): 0.2550142276334463,
 ('fat-tree-128', 'sidco-e', 'uniform', True, 'none', 1): 0.3841348785683874,
 ('fat-tree-128', 'sidco-e', 'uniform', True, 'none', 4): 0.3239344954216689,
 ('fat-tree-128', 'sidco-e', 'uniform', True, 'comm', 1): 0.29579441978150267,
 ('fat-tree-128', 'sidco-e', 'uniform', True, 'comm', 4): 0.29939441972990266,
 ('fat-tree-128', 'sidco-e', 'uniform', True, 'comm+compress', 1): 0.22694743324320674,
 ('fat-tree-128', 'sidco-e', 'uniform', True, 'comm+compress', 4): 0.23054743319160678,
 ('torus-2d', 'topk', None, False, 'none', 1): 0.01792693875758327,
 ('torus-2d', 'topk', None, False, 'none', 4): 0.01792693875758327,
 ('torus-2d', 'topk', None, False, 'comm', 1): 0.01378654813672366,
 ('torus-2d', 'topk', None, False, 'comm', 4): 0.01378654813672366,
 ('torus-2d', 'topk', None, False, 'comm+compress', 1): 0.009279851712658927,
 ('torus-2d', 'topk', None, False, 'comm+compress', 4): 0.009279851712658927,
 ('torus-2d', 'topk', None, True, 'none', 1): 0.01792693875758327,
 ('torus-2d', 'topk', None, True, 'none', 4): 0.01792693875758327,
 ('torus-2d', 'topk', None, True, 'comm', 1): 0.012509795905857555,
 ('torus-2d', 'topk', None, True, 'comm', 4): 0.012509795905857555,
 ('torus-2d', 'topk', None, True, 'comm+compress', 1): 0.009279851712658927,
 ('torus-2d', 'topk', None, True, 'comm+compress', 4): 0.009279851712658927,
 ('torus-2d', 'topk', 'uniform', False, 'none', 1): 0.017826383526160047,
 ('torus-2d', 'topk', 'uniform', False, 'none', 4): 0.017826383526160047,
 ('torus-2d', 'topk', 'uniform', False, 'comm', 1): 0.013685992905300436,
 ('torus-2d', 'topk', 'uniform', False, 'comm', 4): 0.013685992905300436,
 ('torus-2d', 'topk', 'uniform', False, 'comm+compress', 1): 0.009266554487133502,
 ('torus-2d', 'topk', 'uniform', False, 'comm+compress', 4): 0.009266554487133502,
 ('torus-2d', 'topk', 'uniform', True, 'none', 1): 0.017826383526160047,
 ('torus-2d', 'topk', 'uniform', True, 'none', 4): 0.017826383526160047,
 ('torus-2d', 'topk', 'uniform', True, 'comm', 1): 0.012509795905857555,
 ('torus-2d', 'topk', 'uniform', True, 'comm', 4): 0.012509795905857555,
 ('torus-2d', 'topk', 'uniform', True, 'comm+compress', 1): 0.009266554487133502,
 ('torus-2d', 'topk', 'uniform', True, 'comm+compress', 4): 0.009266554487133502,
 ('torus-2d', 'dgc', None, False, 'none', 1): 0.01387852591877454,
 ('torus-2d', 'dgc', None, False, 'none', 4): 0.01387852591877454,
 ('torus-2d', 'dgc', None, False, 'comm', 1): 0.013132482215028395,
 ('torus-2d', 'dgc', None, False, 'comm', 4): 0.013132482215028395,
 ('torus-2d', 'dgc', None, False, 'comm+compress', 1): 0.008794945010214147,
 ('torus-2d', 'dgc', None, False, 'comm+compress', 4): 0.008794945010214147,
 ('torus-2d', 'dgc', None, True, 'none', 1): 0.01387852591877454,
 ('torus-2d', 'dgc', None, True, 'none', 4): 0.01387852591877454,
 ('torus-2d', 'dgc', None, True, 'comm', 1): 0.01107962505822411,
 ('torus-2d', 'dgc', None, True, 'comm', 4): 0.01107962505822411,
 ('torus-2d', 'dgc', None, True, 'comm+compress', 1): 0.008794945010214147,
 ('torus-2d', 'dgc', None, True, 'comm+compress', 4): 0.008794945010214147,
 ('torus-2d', 'dgc', 'uniform', False, 'none', 1): 0.01379072185215468,
 ('torus-2d', 'dgc', 'uniform', False, 'none', 4): 0.01379072185215468,
 ('torus-2d', 'dgc', 'uniform', False, 'comm', 1): 0.013044678148408538,
 ('torus-2d', 'dgc', 'uniform', False, 'comm', 4): 0.013044678148408538,
 ('torus-2d', 'dgc', 'uniform', False, 'comm+compress', 1): 0.008781647784688722,
 ('torus-2d', 'dgc', 'uniform', False, 'comm+compress', 4): 0.008781647784688722,
 ('torus-2d', 'dgc', 'uniform', True, 'none', 1): 0.01379072185215468,
 ('torus-2d', 'dgc', 'uniform', True, 'none', 4): 0.01379072185215468,
 ('torus-2d', 'dgc', 'uniform', True, 'comm', 1): 0.011055036672137523,
 ('torus-2d', 'dgc', 'uniform', True, 'comm', 4): 0.011055036672137523,
 ('torus-2d', 'dgc', 'uniform', True, 'comm+compress', 1): 0.008781647784688722,
 ('torus-2d', 'dgc', 'uniform', True, 'comm+compress', 4): 0.008781647784688722,
 ('torus-2d', 'sidco-e', None, False, 'none', 1): 0.031315510172766126,
 ('torus-2d', 'sidco-e', None, False, 'none', 4): 0.02896908160368399,
 ('torus-2d', 'sidco-e', None, False, 'comm', 1): 0.03124222892283941,
 ('torus-2d', 'sidco-e', None, False, 'comm', 4): 0.02889580035375727,
 ('torus-2d', 'sidco-e', None, False, 'comm+compress', 1): 0.02392345102837247,
 ('torus-2d', 'sidco-e', None, False, 'comm+compress', 4): 0.02157702245929033,
 ('torus-2d', 'sidco-e', None, True, 'none', 1): 0.031315510172766126,
 ('torus-2d', 'sidco-e', None, True, 'none', 4): 0.02896908160368399,
 ('torus-2d', 'sidco-e', None, True, 'comm', 1): 0.022375086058563694,
 ('torus-2d', 'sidco-e', None, True, 'comm', 4): 0.025525086013413693,
 ('torus-2d', 'sidco-e', None, True, 'comm+compress', 1): 0.015056308164096754,
 ('torus-2d', 'sidco-e', None, True, 'comm+compress', 4): 0.018206308118946753,
 ('torus-2d', 'sidco-e', 'uniform', False, 'none', 1): 0.027729801550172444,
 ('torus-2d', 'sidco-e', 'uniform', False, 'none', 4): 0.02709205222129705,
 ('torus-2d', 'sidco-e', 'uniform', False, 'comm', 1): 0.027656520300245728,
 ('torus-2d', 'sidco-e', 'uniform', False, 'comm', 4): 0.027018770971370332,
 ('torus-2d', 'sidco-e', 'uniform', False, 'comm+compress', 1): 0.020337742405778788,
 ('torus-2d', 'sidco-e', 'uniform', False, 'comm+compress', 4): 0.019699993076903392,
 ('torus-2d', 'sidco-e', 'uniform', True, 'none', 1): 0.027729801550172444,
 ('torus-2d', 'sidco-e', 'uniform', True, 'none', 4): 0.02709205222129705,
 ('torus-2d', 'sidco-e', 'uniform', True, 'comm', 1): 0.021227582652376696,
 ('torus-2d', 'sidco-e', 'uniform', True, 'comm', 4): 0.02437758260722669,
 ('torus-2d', 'sidco-e', 'uniform', True, 'comm+compress', 1): 0.013908804757909758,
 ('torus-2d', 'sidco-e', 'uniform', True, 'comm+compress', 4): 0.01705880471275975}

#: Per record of the cold query's trace: (compressor, ratio, bucket_bytes,
#: dedup_assumption, cross_bucket_pipeline) and the bound of a skipped point or
#: the metrics of a priced one.
TRACE = [(('topk', 0.1, 1048576, None, False), 123.6638310830231),
 (('topk', 0.1, 1048576, None, True), 83.74501970766548),
 (('topk', 0.1, 1048576, 'uniform', False), 4.73613684951768),
 (('topk', 0.1, 1048576, 'uniform', True), 3.2992221677214086),
 (('topk', 0.1, 4194304, None, False), 124.14794830497635),
 (('topk', 0.1, 4194304, None, True), 84.08724400803459),
 (('topk', 0.1, 4194304, 'uniform', False), 4.728352255987444),
 (('topk', 0.1, 4194304, 'uniform', True), 3.3075398940882565),
 (('topk', 0.01, 1048576, None, False), 13.042328821135868),
 (('topk', 0.01, 1048576, None, True), 8.821523084423015),
 (('topk', 0.01, 1048576, 'uniform', False), 3.8265341308682967),
 (('topk', 0.01, 1048576, 'uniform', True), 3.076865508238084),
 (('topk', 0.01, 4194304, None, False), 12.502524013239608),
 (('topk', 0.01, 4194304, None, True), 8.470249123634376),
 (('topk', 0.01, 4194304, 'uniform', False), 3.7799345662217934),
 (('topk', 0.01, 4194304, 'uniform', True), 3.0592030181566785),
 (('topk', 0.001, 1048576, None, False), 2.234262950502387),
 (('topk', 0.001, 1048576, None, True), 1.5012637297352929),
 (('topk', 0.001, 1048576, 'uniform', False), 1.5940019400048084),
 (('topk', 0.001, 1048576, 'uniform', True), 1.2028310424735098),
 (('topk', 0.001, 4194304, None, False), 1.1256125704675244),
 (('topk', 0.001, 4194304, None, True), 0.8792108465660106),
 (('topk', 0.001, 4194304, 'uniform', False), 0.9384445110700509),
 (('topk', 0.001, 4194304, 'uniform', True), 0.866532967080085),
 (('dgc', 0.1, 1048576, None, False), 108.26689754213452),
 (('dgc', 0.1, 1048576, None, True), 73.31668071229967),
 (('dgc', 0.1, 1048576, 'uniform', False), 4.692130357761716),
 (('dgc', 0.1, 1048576, 'uniform', True), 3.299039266221192),
 (('dgc', 0.1, 4194304, None, False), 114.62812912455254),
 (('dgc', 0.1, 4194304, None, True), 77.6391421446086),
 (('dgc', 0.1, 4194304, 'uniform', False), 4.703019879409183),
 (('dgc', 0.1, 4194304, 'uniform', True), 3.3064032774658716),
 (('dgc', 0.01, 1048576, None, False), 12.738763443212369),
 (('dgc', 0.01, 1048576, None, True), 8.615861047298015),
 (('dgc', 0.01, 1048576, 'uniform', False), 3.7765965934073513),
 (('dgc', 0.01, 1048576, 'uniform', True), 3.0359100848534593),
 (('dgc', 0.01, 4194304, None, False), 9.391550087523248),
 (('dgc', 0.01, 4194304, None, True), 6.362784440921315),
 (('dgc', 0.01, 4194304, 'uniform', False), 3.150211318257354),
 (('dgc', 0.01, 4194304, 'uniform', True), 2.53663189898527),
 (('dgc', 0.001, 1048576, None, False), 2.2340819381861667),
 (('dgc', 0.001, 1048576, None, True), 1.5010827174190937),
 (('dgc', 0.001, 1048576, 'uniform', False), 1.593820927688588),
 (('dgc', 0.001, 1048576, 'uniform', True), 1.2026500301573104),
 (('dgc', 0.001, 4194304, None, False), 1.1243289852174696),
 (('dgc', 0.001, 4194304, None, True), 0.8747915357876683),
 (('dgc', 0.001, 4194304, 'uniform', False), 0.9371609258199959),
 (('dgc', 0.001, 4194304, 'uniform', True),
  {'iteration_seconds': 0.8651268563047066,
   'serialized_seconds': 1.72336489238119,
   'overlap_saving': 0.4980013460124788,
   'compute_seconds': 0.7980855095714287,
   'compression_seconds': 0.004429335160000001,
   'communication_seconds': 0.9208500476497614,
   'dense_baseline_seconds': 1.9952137739285716,
   'speedup_vs_dense': 2.306267294083212,
   'dedup_ratio': 1.1178924524904157,
   'achieved_ratio': 0.000885009765625,
   'num_buckets': 15,
   'num_workers': 1024,
   'clean_iteration_seconds': 0.8651268563047066,
   'straggler_overhead': 1.0,
   'participating_workers': 1024,
   'stragglers_cut': 0}),
 (('sidco-e', 0.1, 1048576, None, False), 91.84618439710047),
 (('sidco-e', 0.1, 1048576, None, True), 62.19498588798325),
 (('sidco-e', 0.1, 1048576, 'uniform', False), 4.652347340764844),
 (('sidco-e', 0.1, 1048576, 'uniform', True), 3.299004344857158),
 (('sidco-e', 0.1, 4194304, None, False), 92.10162614229557),
 (('sidco-e', 0.1, 4194304, None, True), 62.38196221532651),
 (('sidco-e', 0.1, 4194304, 'uniform', False), 4.644684930130286),
 (('sidco-e', 0.1, 4194304, 'uniform', True), 3.306184944946662),
 (('sidco-e', 0.01, 1048576, None, False), 70.3817448084038),
 (('sidco-e', 0.01, 1048576, None, True), 47.65720766077883),
 (('sidco-e', 0.01, 1048576, 'uniform', False), 4.579135947049296),
 (('sidco-e', 0.01, 1048576, 'uniform', True), 3.2989979618360343),
 (('sidco-e', 0.01, 4194304, None, False), 70.22003313403063),
 (('sidco-e', 0.01, 4194304, None, True), 47.56164766087713),
 (('sidco-e', 0.01, 4194304, 'uniform', False), 4.570136797315979),
 (('sidco-e', 0.01, 4194304, 'uniform', True), 3.306183378926214),
 (('sidco-e', 0.001, 1048576, None, False), 54.64368397923575),
 (('sidco-e', 0.001, 1048576, None, True), 36.99788263553178),
 (('sidco-e', 0.001, 1048576, 'uniform', False), 4.506407031273434),
 (('sidco-e', 0.001, 1048576, 'uniform', True), 3.298922293410953),
 (('sidco-e', 0.001, 4194304, None, False), 55.012894838858585),
 (('sidco-e', 0.001, 4194304, None, True), 37.261914322342996),
 (('sidco-e', 0.001, 4194304, 'uniform', False), 4.500261354511286),
 (('sidco-e', 0.001, 4194304, 'uniform', True), 3.3061478472850623),
 (('dgc', 0.0005, 4194304, 'uniform', True),
  {'iteration_seconds': 0.8333917671007488,
   'serialized_seconds': 1.3212585987801853,
   'overlap_saving': 0.36924401637184856,
   'compute_seconds': 0.7980855095714287,
   'compression_seconds': 0.00443756566,
   'communication_seconds': 0.5187355235487565,
   'dense_baseline_seconds': 1.9952137739285716,
   'speedup_vs_dense': 2.394088653970792,
   'dedup_ratio': 1.0637353114907435,
   'achieved_ratio': 0.000457763671875,
   'num_buckets': 15,
   'num_workers': 1024,
   'clean_iteration_seconds': 0.8333917671007488,
   'straggler_overhead': 1.0,
   'participating_workers': 1024,
   'stragglers_cut': 0}),
 (('dgc', 0.002, 4194304, 'uniform', True), 1.3139512125087711),
 (('dgc', 0.001, 2097152, 'uniform', True),
  {'iteration_seconds': 0.8329117967043734,
   'serialized_seconds': 1.7336846895672435,
   'overlap_saving': 0.519571348979103,
   'compute_seconds': 0.7980855095714287,
   'compression_seconds': 0.00696642268,
   'communication_seconds': 0.9286327573158147,
   'dense_baseline_seconds': 1.9952137739285716,
   'speedup_vs_dense': 2.3954682618533445,
   'dedup_ratio': 1.117836580535865,
   'achieved_ratio': 0.000885009765625,
   'num_buckets': 29,
   'num_workers': 1024,
   'clean_iteration_seconds': 0.8329117967043734,
   'straggler_overhead': 1.0,
   'participating_workers': 1024,
   'stragglers_cut': 0}),
 (('dgc', 0.001, 8388608, 'uniform', True), 0.9507189767325297),
 (('dgc', 0.0005, 2097152, 'uniform', True),
  {'iteration_seconds': 0.8329117967043734,
   'serialized_seconds': 1.7336846895672435,
   'overlap_saving': 0.519571348979103,
   'compute_seconds': 0.7980855095714287,
   'compression_seconds': 0.00696642268,
   'communication_seconds': 0.9286327573158147,
   'dense_baseline_seconds': 1.9952137739285716,
   'speedup_vs_dense': 2.3954682618533445,
   'dedup_ratio': 1.117836580535865,
   'achieved_ratio': 0.000885009765625,
   'num_buckets': 29,
   'num_workers': 1024,
   'clean_iteration_seconds': 0.8329117967043734,
   'straggler_overhead': 1.0,
   'participating_workers': 1024,
   'stragglers_cut': 0}),
 (('dgc', 0.002, 2097152, 'uniform', True), 1.1848534663151618)]


def _point(cell) -> SweepPoint:
    topology, compressor, dedup, cross, overlap, chunks = cell
    return SweepPoint.from_config(
        WORKLOAD.name,
        dict(
            topology=topology,
            compressor=compressor,
            ratio=0.01,
            bucket_bytes=2**19,
            allgather_algorithm="hierarchical",
            dedup_assumption=dedup,
            cross_bucket_pipeline=cross,
            overlap=overlap,
            pipeline_chunks=chunks,
        ),
    )


def _bounds(cache) -> dict:
    return {cell: bound_point(WORKLOAD, _point(cell), cache=cache) for cell in CELLS}


def test_bound_matrix_covers_every_cell():
    assert list(BOUNDS) == CELLS
    assert len(CELLS) == 144


@pytest.mark.parametrize("memoized", [True, False], ids=["memoized", "memo-off"])
def test_every_bound_matches_golden_exactly(memoized):
    actual = _bounds(SweepCache() if memoized else None)
    for cell in CELLS:
        assert actual[cell] == BOUNDS[cell], f"{cell}: {actual[cell]!r} != {BOUNDS[cell]!r}"


def _cold_query(**memo):
    return autotune(
        WorkloadSpec.from_benchmark("vgg16-cifar10", seed=0), "fat-tree-128", axes=COLD_AXES, **memo
    )


@pytest.mark.parametrize("memoized", [True, False], ids=["memoized", "memo-off"])
def test_cold_query_trace_matches_golden_exactly(memoized):
    result = _cold_query(**({"cache": SweepCache()} if memoized else {"memoize": False}))
    assert len(result.trace) == len(TRACE) == 78
    for record, (cell, expected) in zip(result.trace, TRACE):
        config = record.config
        assert (
            config["compressor"],
            config["ratio"],
            config["bucket_bytes"],
            config["dedup_assumption"],
            config["cross_bucket_pipeline"],
        ) == cell
        if isinstance(expected, float):
            assert record.metrics == {"lower_bound_seconds": expected}, cell
        else:
            assert record.metrics == expected, cell
    assert sum(not isinstance(expected, float) for _, expected in TRACE) == 4


def test_cold_query_derives_each_compressions_facts_and_reduces_each_table_once(monkeypatch):
    counts = {"facts": 0, "reductions": 0}
    result_facts = timeline.TimelineModel.result_facts
    reduce_phases = topology.reduce_phases

    def counted_result_facts(self, worker_results):
        counts["facts"] += 1
        return result_facts(self, worker_results)

    def counted_reduce_phases(*args):
        counts["reductions"] += 1
        return reduce_phases(*args)

    monkeypatch.setattr(timeline.TimelineModel, "result_facts", counted_result_facts)
    monkeypatch.setattr(topology, "reduce_phases", counted_reduce_phases)
    cache = SweepCache()
    cold = _cold_query(cache=cache)
    # 78 bounded points share 24 compressions (12 DGC, 6 Top-k, 6 SIDCo)
    # and 37 phase tables.
    assert len(cache.compressions) == len(cache.facts) == counts["facts"] == 24
    assert len(cache.phase_tables) == counts["reductions"] == 37
    again = _cold_query(cache=SweepCache())
    assert counts == {"facts": 48, "reductions": 74}
    assert again.trace == cold.trace
    _cold_query(cache=cache)  # warm: nothing is derived or reduced again
    assert counts == {"facts": 48, "reductions": 74}
    assert _cold_query(memoize=False).trace == cold.trace
