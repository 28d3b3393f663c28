"""Benchmark harness regenerating the paper's evaluation artifacts."""

from repro.bench.builds import (  # noqa: F401
    BUILD_ORDER,
    CUDA,
    NEW_RT,
    NEW_RT_NIGHTLY,
    NEW_RT_NO_ASSUME,
    OLD_RT_NIGHTLY,
    ablation_configs,
    build_options,
)
from repro.bench.harness import (  # noqa: F401
    APPS,
    MatrixResult,
    map_cells,
    run_build_matrix,
)
