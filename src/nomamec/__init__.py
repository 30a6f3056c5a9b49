"""Delay-optimal resource allocation for NOMA-enabled edge computing.

The package solves the min-max task completion problem where users split
work between local CPUs and a shared uplink to an edge server: a
bisection solver over the common delay for any user count, an analytic
two-user solution, the standard comparison schemes, and a seeded
Monte-Carlo channel harness with a batch CLI.
"""

from .baselines import (
    SchemeResult,
    full_local_delay,
    solve_noma_full_offload,
    solve_noma_partial,
    solve_ofdma_partial,
)
from .closed_form import (
    EqualTimeInfeasible,
    TwoUserSolution,
    p1_water,
    p2_water,
    solve_two_user,
)
from .configio import ConfigError, LoadedScenario, load_config
from .lambertw import lambert_wm1
from .model import (
    Allocation,
    ChannelRealization,
    ScenarioConfig,
    ServerSpec,
    UsageError,
    UserSpec,
    aggregated_offload_time,
    local_energy,
    local_time,
    offload_energy,
    server_time,
    sinr,
    sum_rate,
    total_delay,
    user_rate,
)
from .scenario import (
    Seed,
    dbm_per_hz_to_watts,
    generate_channels,
    reorder_users,
)
from .solver import (
    FeasibilityReport,
    InfeasibleScenarioError,
    SolveResult,
    bss_solve,
    check_feasibility,
    max_violation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Allocation",
    "ChannelRealization",
    "ConfigError",
    "EqualTimeInfeasible",
    "FeasibilityReport",
    "InfeasibleScenarioError",
    "LoadedScenario",
    "ScenarioConfig",
    "SchemeResult",
    "Seed",
    "ServerSpec",
    "SolveResult",
    "TwoUserSolution",
    "UsageError",
    "UserSpec",
    "aggregated_offload_time",
    "bss_solve",
    "check_feasibility",
    "dbm_per_hz_to_watts",
    "full_local_delay",
    "generate_channels",
    "lambert_wm1",
    "load_config",
    "local_energy",
    "local_time",
    "max_violation",
    "offload_energy",
    "p1_water",
    "p2_water",
    "reorder_users",
    "server_time",
    "sinr",
    "solve_noma_full_offload",
    "solve_noma_partial",
    "solve_ofdma_partial",
    "solve_two_user",
    "sum_rate",
    "total_delay",
    "user_rate",
]
