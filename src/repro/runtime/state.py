"""Team state layout and the runtime's global-variable inventory.

One ``TeamState`` instance lives in static shared memory per team
(§III-B); the thread-state pointer array (§III-C) starts NULL-filled so
that a zero-byte image means "everyone uses the team state" — the
property the field-sensitive access analysis exploits to fold
thread-state lookups to the team state (§IV-B1).
"""

from __future__ import annotations

from repro.memory.layout import DATA_LAYOUT
from repro.ir.types import ArrayType, I8, I32, I64, StructType
from repro.runtime.icv import ICV_STATE

TEAM_STATE = StructType(
    "TeamState",
    (
        ("icvs", ICV_STATE),
        ("parallel_team_size", I32),
        ("has_thread_state", I32),
        ("parallel_region_fn", I64),  # function address (indirect-call target)
        ("parallel_args", I64),
        ("done", I32),
    ),
)

# -- global names (new runtime) ---------------------------------------------------

GV_IS_SPMD_MODE = "__omp_rtl_is_spmd_mode"
GV_TEAM_STATE = "__omp_rtl_team_state"
GV_THREAD_STATES = "__omp_rtl_thread_states"
GV_SMEM_STACK = "__omp_rtl_smem_stack"
GV_SMEM_STACK_TOPS = "__omp_rtl_smem_stack_tops"
GV_DUMMY = "__omp_rtl_dummy"
GV_ASSUME_TEAMS_OVERSUB = "__omp_rtl_assume_teams_oversubscription"
GV_ASSUME_THREADS_OVERSUB = "__omp_rtl_assume_threads_oversubscription"
GV_DEBUG_KIND = "__omp_rtl_debug_kind"
GV_ENV_DEBUG = "__omp_rtl_env_DEBUG"

# -- global names (old runtime) ---------------------------------------------------

GV_OLD_TEAM_CONTEXT = "__omp_old_team_context"
GV_OLD_DATA_STACK = "__omp_old_data_stack"
GV_OLD_STACK_TOP = "__omp_old_stack_top"
GV_OLD_EXEC_MODE = "__omp_old_exec_mode"

#: Old-runtime shared footprint (bytes), sized so Old RT totals ~2.3KB
#: as in the paper's Fig. 11.
OLD_TEAM_CONTEXT_SIZE = 272
OLD_DATA_STACK_SIZE = 2048


def team_state_offset(field: str) -> int:
    return DATA_LAYOUT.field_offset(TEAM_STATE, field)


def team_state_size() -> int:
    return DATA_LAYOUT.size_of(TEAM_STATE)


def thread_states_type(max_threads: int) -> ArrayType:
    return ArrayType(I64, max_threads)


def smem_stack_type(size: int) -> ArrayType:
    return ArrayType(I8, size)


def smem_tops_type(max_threads: int) -> ArrayType:
    return ArrayType(I32, max_threads)
