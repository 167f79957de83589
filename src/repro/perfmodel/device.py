"""Calibrated device profiles: a V100-class GPU and a Xeon-class CPU.

Coefficients are chosen so the *relative ordering* the paper reports emerges:

* on the GPU, a full Top-k selection over ``d`` elements costs roughly two
  orders of magnitude more per element than a reduction, so threshold
  estimators are ~40-60x faster than Top-k (Figure 1a) and DGC sits in
  between (its Top-k runs only on a 1% sample but it still pays a full-vector
  random mask);
* on the CPU, the k-selection is only a few times more expensive than a
  reduction while per-element random sampling is *more* expensive than the
  selection, so DGC drops below Top-k while threshold estimators stay ~2-3x
  faster (Figure 1b / Figure 12).
"""

from __future__ import annotations

from .costs import DeviceProfile

#: V100-class accelerator: memory-bandwidth bound primitives are ~10^-11 s/elem,
#: selection/sort primitives parallelise poorly.
GPU_V100 = DeviceProfile(
    name="gpu-v100",
    per_element={
        "elementwise": 1.0e-11,
        "reduce": 2.0e-11,
        "log_reduce": 3.0e-11,
        "compact": 2.0e-11,
        "topk_select": 4.5e-9,
        "sort": 9.0e-9,
        "random_sample": 6.0e-11,
    },
    launch_overhead=5.0e-6,
)

#: Xeon-class CPU (single socket, vectorised single-thread kernels):
#: reductions stream at ~1 ns/elem, selection ~1.2e-8, random sampling ~2e-8.
CPU_XEON = DeviceProfile(
    name="cpu-xeon",
    per_element={
        "elementwise": 1.0e-9,
        "reduce": 1.0e-9,
        "log_reduce": 4.0e-9,
        "compact": 2.0e-9,
        "topk_select": 2.0e-8,
        "sort": 8.0e-8,
        "random_sample": 5.0e-8,
    },
    launch_overhead=2.0e-7,
)

DEVICES: dict[str, DeviceProfile] = {
    "gpu": GPU_V100,
    "cpu": CPU_XEON,
}
