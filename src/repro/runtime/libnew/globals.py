"""State globals of the new device runtime (paper §III-A…III-D).

Everything lives in static shared memory: the SPMD-mode flag, the team
ICV state, the thread-state pointer array (NULL-initialized), and the
pre-allocated shared-memory stack with its per-thread top offsets.
The over-subscription assumptions and the debug feature mask are
emitted as *constant* globals so the optimizer can fold loads of them
(§III-F/G).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.types import I32, I64
from repro.ir.values import GlobalVariable
from repro.runtime.common import RuntimeBuilder
from repro.runtime.icv import ICV_STATE, icv_offset, icv_state_size
from repro.runtime.state import (
    GV_ASSUME_TEAMS_OVERSUB,
    GV_ASSUME_THREADS_OVERSUB,
    GV_DEBUG_KIND,
    GV_DUMMY,
    GV_ENV_DEBUG,
    GV_IS_SPMD_MODE,
    GV_SMEM_STACK,
    GV_SMEM_STACK_TOPS,
    GV_TEAM_STATE,
    GV_THREAD_STATES,
    TEAM_STATE,
    smem_stack_type,
    smem_tops_type,
    team_state_offset,
    thread_states_type,
)


@dataclass
class NewRTGlobals:
    """Handles to the runtime state globals plus layout constants."""

    is_spmd_mode: GlobalVariable
    team_state: GlobalVariable
    thread_states: GlobalVariable
    smem_stack: GlobalVariable
    smem_stack_tops: GlobalVariable
    dummy: GlobalVariable
    assume_teams_oversub: GlobalVariable
    assume_threads_oversub: GlobalVariable
    debug_kind: GlobalVariable
    env_debug: GlobalVariable

    # Byte offsets within TeamState.
    off_levels: int = 0
    off_active_levels: int = 0
    off_nthreads: int = 0
    off_parallel_team_size: int = 0
    off_has_thread_state: int = 0
    off_parallel_region_fn: int = 0
    off_parallel_args: int = 0
    off_done: int = 0
    icv_size: int = 0
    #: Size of one on-demand thread ICV state record: the ICVs plus a
    #: trailing i64 link to the previous record (nesting list, Fig. 3).
    thread_state_record_size: int = 0


def create_new_rt_globals(rb: RuntimeBuilder) -> NewRTGlobals:
    module, config = rb.module, rb.config
    module.add_struct_type(ICV_STATE)
    module.add_struct_type(TEAM_STATE)

    gvs = NewRTGlobals(
        is_spmd_mode=rb.shared_global(GV_IS_SPMD_MODE, I32),
        team_state=rb.shared_global(GV_TEAM_STATE, TEAM_STATE),
        thread_states=rb.shared_global(
            GV_THREAD_STATES, thread_states_type(config.max_threads)
        ),
        smem_stack=rb.shared_global(
            GV_SMEM_STACK, smem_stack_type(config.smem_stack_size)
        ),
        smem_stack_tops=rb.shared_global(
            GV_SMEM_STACK_TOPS, smem_tops_type(config.max_threads)
        ),
        dummy=rb.shared_global(GV_DUMMY, I64),
        assume_teams_oversub=rb.config_global(
            GV_ASSUME_TEAMS_OVERSUB, int(config.assume_teams_oversubscription)
        ),
        assume_threads_oversub=rb.config_global(
            GV_ASSUME_THREADS_OVERSUB, int(config.assume_threads_oversubscription)
        ),
        debug_kind=rb.config_global(GV_DEBUG_KIND, config.debug_kind),
        env_debug=rb.device_global(GV_ENV_DEBUG, I32),
    )

    icvs_base = team_state_offset("icvs")
    gvs.off_nthreads = icvs_base + icv_offset("nthreads_var")
    gvs.off_levels = icvs_base + icv_offset("levels_var")
    gvs.off_active_levels = icvs_base + icv_offset("active_levels_var")
    gvs.off_parallel_team_size = team_state_offset("parallel_team_size")
    gvs.off_has_thread_state = team_state_offset("has_thread_state")
    gvs.off_parallel_region_fn = team_state_offset("parallel_region_fn")
    gvs.off_parallel_args = team_state_offset("parallel_args")
    gvs.off_done = team_state_offset("done")
    gvs.icv_size = icv_state_size()
    gvs.thread_state_record_size = gvs.icv_size + 8
    return gvs
