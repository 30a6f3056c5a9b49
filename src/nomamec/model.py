"""Domain types and physical formulas for NOMA uplink offloading.

All quantities are SI internally: Hz, W, J, s, bits. Channel gains are
normalized by the receiver noise power so that the SINR of user m is

    gain[m] * p[m] / (sum_{j<m} gain[j] * p[j] + 1)

with gains sorted ascending. User m is decoded after all stronger users,
so user 1 (weakest gain) sees no residual interference. User indices in
the public functions are 1-based, matching the decode position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "UserSpec",
    "ServerSpec",
    "ScenarioConfig",
    "ChannelRealization",
    "Allocation",
    "DelayBreakdown",
    "UsageError",
    "sinr",
    "user_rate",
    "sum_rate",
    "aggregated_offload_time",
    "local_time",
    "local_energy",
    "offload_energy",
    "server_time",
    "total_delay",
]


class UsageError(ValueError):
    """Raised when a caller violates a documented precondition."""


def dbm_per_hz_to_watts(n0_dbm: float, bandwidth: float) -> float:
    """Total noise power sigma^2 = N0 * B with N0 given in dBm/Hz; inf past the float range."""
    try:
        return 10.0 ** ((n0_dbm - 30.0) / 10.0) * bandwidth
    except OverflowError:
        return math.inf


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise UsageError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class UserSpec:
    """One mobile user's task and compute capability.

    task_bits: input size of the task, bits.
    cycles_per_bit: CPU cycles needed per input bit.
    cpu_freq: local CPU frequency, cycles/s.
    kappa: effective capacitance coefficient, J*s^2/cycle^3.
    distance: meters from the base station; 0 means "place randomly"
        during scenario generation.

    local_full_time (seconds to compute the whole task locally) and
    local_full_energy (joules to do so) are derived once, at
    construction; the solvers read them on every solve.
    """

    task_bits: float
    cycles_per_bit: float
    cpu_freq: float
    kappa: float
    distance: float = 0.0
    local_full_time: float = field(init=False, repr=False, compare=False)
    local_full_energy: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_positive(
            task_bits=self.task_bits,
            cycles_per_bit=self.cycles_per_bit,
            cpu_freq=self.cpu_freq,
            kappa=self.kappa,
        )
        if not (math.isfinite(self.distance) and self.distance >= 0):
            raise UsageError("distance must be finite and >= 0")
        time = self.task_bits * self.cycles_per_bit / self.cpu_freq
        try:
            energy = self.kappa * self.task_bits * self.cycles_per_bit * self.cpu_freq**2
        except OverflowError:
            energy = math.inf
        for name, value, fields in (
            ("time", time, "task_bits * cycles_per_bit / cpu_freq"),
            ("energy", energy, "kappa * task_bits * cycles_per_bit * cpu_freq**2"),
        ):
            if not 0.0 < value < math.inf:
                raise UsageError(
                    f"the fully-local {name} {fields} must be finite and > 0, got {value!r}"
                )
        object.__setattr__(self, "local_full_time", time)
        object.__setattr__(self, "local_full_energy", energy)


@dataclass(frozen=True)
class ServerSpec:
    """Edge server compute capability (finite-capacity variant)."""

    cycles_per_bit: float
    cpu_freq: float
    kappa: float

    def __post_init__(self):
        _require_positive(
            server_cycles_per_bit=self.cycles_per_bit,
            server_cpu_freq=self.cpu_freq,
            server_kappa=self.kappa,
        )


def _path_loss_fields(config: "ScenarioConfig", i: int) -> str:
    """The config fields that set user i's path loss d^alpha."""
    where = f"users[{i}].distance_m" if config.users[i].distance else "cell_radius_m"
    return f"{where} and path_loss_exp"


@dataclass(frozen=True)
class ScenarioConfig:
    """Full physical and task parameterization of one cell.

    noise_density_dbm is the AWGN spectral density in dBm/Hz; everything
    else is SI. The users list is ordered; solvers assume users[m] is
    aligned with gains[m] of the channel realization they are given.
    """

    bandwidth: float  # Hz
    noise_density_dbm: float  # dBm/Hz
    users: tuple[UserSpec, ...]
    p_max: float  # W
    e_max: float  # J
    path_loss_exp: float = 3.76
    cell_radius: float = 500.0  # m
    server: Optional[ServerSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        _require_positive(
            bandwidth=self.bandwidth,
            p_max=self.p_max,
            e_max=self.e_max,
            path_loss_exp=self.path_loss_exp,
            cell_radius=self.cell_radius,
        )
        if not 0.0 < dbm_per_hz_to_watts(self.noise_density_dbm, self.bandwidth) < math.inf:
            raise UsageError(
                f"noise_density_dbm: the noise power N0 B must be finite and > 0, got "
                f"{self.noise_density_dbm!r} dBm/Hz over {self.bandwidth!r} Hz"
            )
        if not self.users:
            raise UsageError("users must be nonempty")
        # a drawn distance is at most cell_radius, and d^alpha rises with d
        try:
            for user in self.users:
                math.pow(user.distance or self.cell_radius, self.path_loss_exp)
        except OverflowError:
            i = self.users.index(user)
            raise UsageError(
                f"{_path_loss_fields(self, i)}: the path loss d^alpha = "
                f"{user.distance or self.cell_radius!r} ** {self.path_loss_exp!r} of user {i} "
                "leaves the float range"
            ) from None

    @property
    def num_users(self) -> int:
        return len(self.users)


def _with_users(config: ScenarioConfig, users: tuple) -> ScenarioConfig:
    """replace(config, users=users) without rerunning __post_init__.

    Sound for any nonempty selection of config.users: a subset, a
    permutation or a repetition. Each check of __post_init__ reads fields
    the copy shares with config (bandwidth, noise, budgets, path_loss_exp,
    cell_radius), or the users' nonemptiness, which callers ensure (the
    user_count axis rejects counts below 1, and solve_ofdma_partial
    passes one user), or each user alone: the path-loss overflow check,
    which every selected user passed in config.
    """
    new = object.__new__(ScenarioConfig)
    new.__dict__.update(config.__dict__, users=users)
    return new


@dataclass(frozen=True)
class ChannelRealization:
    """Normalized channel gains, ascending (decode order).

    gains[m] is |g|^2 * (1 + d^alpha)^-1 / sigma^2 in 1/W, so gain *
    power is the dimensionless received SNR contribution. sic_order maps
    each sorted slot back to the index in the originating user list.
    """

    gains: tuple[float, ...]
    sic_order: tuple[int, ...] = field(default=())

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
        object.__setattr__(self, "gains", gains)
        if not gains:
            raise UsageError("gains must be nonempty")
        if not all(math.isfinite(g) and g > 0 for g in gains):
            raise UsageError("gains must be finite and strictly positive")
        if any(gains[i] > gains[i + 1] for i in range(len(gains) - 1)):
            raise UsageError("gains must be sorted ascending (SIC decode order)")
        if not self.sic_order:
            object.__setattr__(self, "sic_order", tuple(range(len(gains))))
        elif sorted(self.sic_order) != list(range(len(gains))):
            raise UsageError("sic_order must be a permutation of the user indices")


@dataclass(frozen=True)
class Allocation:
    """Per-user partition ratios and transmit powers."""

    betas: tuple[float, ...]
    powers: tuple[float, ...]

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        powers = tuple(float(p) for p in self.powers)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "powers", powers)
        if len(betas) != len(powers):
            raise UsageError("betas and powers must have equal length")
        # chained range tests are false for NaN, and the upper one for inf
        if not all(-1e-12 <= b <= 1 + 1e-12 for b in betas):
            raise UsageError("betas must lie in [0, 1]")
        if not all(-1e-12 <= p < math.inf for p in powers):
            raise UsageError("powers must be finite and nonnegative")


@dataclass(frozen=True)
class DelayBreakdown:
    """Per-user time components and their max.

    offload[m] is the aggregated offload time of user m plus the server
    compute time when a server is configured; overall is the max over
    all offload and local entries.
    """

    offload: tuple[float, ...]
    local: tuple[float, ...]
    server: Optional[float]
    overall: float


def _check_index(m: int, n: int) -> None:
    if not 1 <= m <= n:
        raise UsageError(f"user index {m} out of range 1..{n}")


def _snr_sum(g: Sequence[float], p: Sequence[float], m: int) -> float:
    """sum_{i<m} g[i] p[i], added left to right from 0.0."""
    total = 0.0
    for i in range(m):
        total += g[i] * p[i]
    return total


def sinr(m: int, gains, powers: Sequence[float]) -> float:
    """Received SINR of user m under ascending-gain SIC decoding.

    User m is decoded after users m+1..M have been removed, so only the
    weaker users j < m interfere.
    """
    g = gains.gains if isinstance(gains, ChannelRealization) else gains
    _check_index(m, len(g))
    if len(powers) != len(g):
        raise UsageError("powers length must match gains length")
    return g[m - 1] * powers[m - 1] / (_snr_sum(g, powers, m - 1) + 1.0)


def user_rate(m: int, gains, powers: Sequence[float], bandwidth: float) -> float:
    """Achievable rate of user m in bits/s: B * log2(1 + SINR_m)."""
    return bandwidth * math.log2(1.0 + sinr(m, gains, powers))


def sum_rate(gains, powers: Sequence[float], bandwidth: float, m: int) -> float:
    """Aggregate rate of the m weakest users: B * log2(1 + sum_{i<=m} gain_i p_i).

    Telescoping makes this equal to sum(user_rate(i) for i <= m).
    """
    g = gains.gains if isinstance(gains, ChannelRealization) else gains
    _check_index(m, len(g))
    return bandwidth * math.log2(1.0 + _snr_sum(g, powers, m))


def aggregated_offload_time(
    m: int,
    betas: Sequence[float],
    gains,
    powers: Sequence[float],
    users: Sequence[UserSpec],
    bandwidth: float,
) -> float:
    """Common-window offload time of the m weakest users.

    Equals (sum_{i<=m} beta_i L_i) / sum_rate(m). Returns 0.0 when no
    bits are offloaded and +inf when bits are offloaded at zero rate;
    +inf is a legal value meaning "unoffloadable", not an error.
    """
    _check_index(m, len(betas))
    bits = 0.0
    for i in range(m):
        bits += betas[i] * users[i].task_bits
    if bits <= 0.0:
        return 0.0
    rate = sum_rate(gains, powers, bandwidth, m)
    if rate <= 0.0:
        return math.inf
    return bits / rate


def local_time(beta_m: float, user: UserSpec) -> float:
    """Local compute time for the share kept on the device."""
    return (1.0 - beta_m) * user.task_bits * user.cycles_per_bit / user.cpu_freq


def local_energy(beta_m: float, user: UserSpec) -> float:
    """Local compute energy: kappa * (1-beta) * L * C * f^2."""
    return (
        user.kappa
        * (1.0 - beta_m)
        * user.task_bits
        * user.cycles_per_bit
        * user.cpu_freq**2
    )


def offload_energy(
    m: int,
    alloc: Allocation,
    gains,
    users: Sequence[UserSpec],
    bandwidth: float,
) -> float:
    """Radiated energy of user m: aggregated offload time times its power.

    Zero power gives zero energy even when the offload time is infinite.
    """
    p_m = alloc.powers[m - 1]
    if p_m == 0.0:
        return 0.0
    t = aggregated_offload_time(m, alloc.betas, gains, alloc.powers, users, bandwidth)
    return t * p_m


def server_time(betas: Sequence[float], users: Sequence[UserSpec], server: Optional[ServerSpec]) -> float:
    """Edge compute time for all offloaded bits: (sum beta_m L_m) * C_S / f_S.

    The bits are added left to right from 0.0.
    """
    if server is None:
        raise UsageError("server_time requires a configured server")
    bits = 0.0
    for b, u in zip(betas, users):
        bits += b * u.task_bits
    return bits * server.cycles_per_bit / server.cpu_freq


def total_delay(alloc: Allocation, gains, config: ScenarioConfig) -> DelayBreakdown:
    """Task completion breakdown for an allocation.

    overall = max_m max(offload path time of m, local time of m), where
    the offload path includes the server compute time when configured.
    """
    users = config.users
    n = len(users)
    if len(alloc.betas) != n:
        raise UsageError("allocation size must match user count")
    t_server = server_time(alloc.betas, users, config.server) if config.server else None
    offload = []
    local = []
    for m in range(1, n + 1):
        t_off = aggregated_offload_time(
            m, alloc.betas, gains, alloc.powers, users, config.bandwidth
        )
        if t_server is not None and t_off > 0.0:
            # a user with no offloaded bits in its prefix waits for nothing
            t_off = t_off + t_server
        offload.append(t_off)
        local.append(local_time(alloc.betas[m - 1], users[m - 1]))
    overall = max(max(offload), max(local))
    return DelayBreakdown(
        offload=tuple(offload), local=tuple(local), server=t_server, overall=overall
    )
