"""Workload models: the paper's applications.

* :mod:`repro.apps.matmul_gpu` — the (BS, G, R) blocked matmul the GPU
  weak-EP study sweeps (Section IV).
* :mod:`repro.apps.dgemm_cpu` — the threadgroup-parallel CPU DGEMM of
  the Fig. 4 utilization study (Section III).
* :mod:`repro.apps.fft2d` — the 2D-FFT workload of the strong-EP study
  (Fig. 1, from [12]).
"""

from repro._lazy import attach

_SUBMODULES = {
    "decomposition": (
        "DecompositionError", "GroupAssignment", "ThreadAssignment",
        "decompose", "verify_weak_ep_constraints",
    ),
    "cuda_source": (
        "dispatch_kernel", "full_source", "group_routine", "product_code",
    ),
    "dgemm_cpu": ("DGEMMCPUApp",),
    "fft2d": (
        "FFT2DApp", "FFTDeviceProfile", "FFTRunResult", "fft_work",
        "largest_prime_factor", "radix_penalty",
    ),
    "matmul_gpu": ("MatmulConfig", "MatmulGPUApp", "divisors"),
}

__all__ = [name for names in _SUBMODULES.values() for name in names]
__getattr__, __dir__ = attach(__name__, _SUBMODULES)
