"""The evaluation's build matrix (paper §V).

Five configurations per application:

* ``Old RT (Nightly)`` — legacy device runtime, pre-co-design pipeline;
* ``New RT (Nightly)`` — the co-designed runtime paired with the
  nightly pipeline that does not yet understand it (keeps the full
  shared stack: the 11.3KB SMem row of Fig. 11);
* ``New RT - w/o Assumptions`` — the co-designed runtime plus all the
  §IV optimizations but no user-provided assumptions;
* ``New RT`` — additionally with the over-subscription assumptions
  (§III-F) enabled;
* ``CUDA (NVCC)`` — the hand-written-CUDA-style lowering.
"""

from __future__ import annotations

from typing import Dict

from repro.frontend.driver import CompileOptions, Target
from repro.passes.pass_manager import PipelineConfig

OLD_RT_NIGHTLY = "Old RT (Nightly)"
NEW_RT_NIGHTLY = "New RT (Nightly)"
NEW_RT_NO_ASSUME = "New RT - w/o Assumptions"
NEW_RT = "New RT"
CUDA = "CUDA (NVCC)"

#: The paper's presentation order.
BUILD_ORDER = [OLD_RT_NIGHTLY, NEW_RT_NIGHTLY, NEW_RT_NO_ASSUME, NEW_RT, CUDA]


def build_options() -> Dict[str, CompileOptions]:
    """Fresh CompileOptions for each named build."""
    return {
        OLD_RT_NIGHTLY: CompileOptions(
            Target.OPENMP_OLD, pipeline=PipelineConfig.nightly()
        ),
        NEW_RT_NIGHTLY: CompileOptions(
            Target.OPENMP_NEW, pipeline=PipelineConfig.nightly()
        ),
        NEW_RT_NO_ASSUME: CompileOptions(Target.OPENMP_NEW),
        NEW_RT: CompileOptions(Target.OPENMP_NEW).with_oversubscription(),
        CUDA: CompileOptions(Target.CUDA),
    }


def ablation_configs() -> Dict[str, PipelineConfig]:
    """Fig. 13 / §V-C: the full pipeline with one optimization disabled
    at a time.  Disabling §IV-B1 disables all of §IV-B, as the paper
    notes."""
    def cfg(**kwargs) -> PipelineConfig:
        base = PipelineConfig()
        for key, value in kwargs.items():
            setattr(base, key, value)
        return base

    return {
        "full": cfg(),
        "no field-sensitive (IV-B1)": cfg(enable_field_sensitive=False),
        "no reach/dom (IV-B2)": cfg(enable_reach_dom=False),
        "no assumed content (IV-B3)": cfg(enable_assumed_content=False),
        "no invariant prop (IV-B4)": cfg(enable_invariant_prop=False),
        "no aligned exec (IV-C)": cfg(enable_aligned_exec=False),
        "no barrier elim (IV-D)": cfg(enable_barrier_elim=False),
    }
