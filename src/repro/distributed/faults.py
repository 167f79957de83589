"""Per-worker heterogeneity, fault injection, and sync-mitigation policies.

Everything priced so far assumes a perfect cluster: identical workers, clean
links, nobody leaves.  Real deployments are defined by the opposite — ML
clusters see persistent stragglers (co-located jobs, thermal throttling),
degraded links (oversubscription, flaky NICs) and elastic membership — and
whether aggressive gradient compression makes such a cluster *more* or *less*
straggler-tolerant is exactly the kind of question the paper's comm-bound
argument raises but never answers.  This module supplies the three layers
needed to ask it:

* **Heterogeneity** — :class:`WorkerProfile` / :class:`ClusterProfile` give
  each worker a compute-rate multiplier and a link bandwidth-degradation
  factor.  Rates are *time* multipliers: ``compute=2.0`` means this worker's
  backward pass, compression stream and update take twice as long;
  ``link=2.0`` means its network transfers do.  The homogeneous profile is all
  1.0s and reproduces today's schedules bit-for-bit (the scheduler skips the
  scaling branch entirely at nominal rates).
* **Injection** — :class:`StragglerInjector`, :class:`LinkDegradation` and
  :class:`WorkerChurn` perturb the profile per iteration.  Draws come from
  ``np.random.default_rng((seed, iteration, salt))`` so iteration *t* sees the
  same faults no matter how many times or in which order it is priced —
  injection is a pure function of ``(seed, iteration)``, never of call count.
* **Mitigation** — :class:`SyncPolicy` prices the cluster iteration from the
  per-worker finish times the scheduler computes: ``full-sync`` is today's
  barrier (wait for the slowest), ``backup-workers`` cuts the slowest *k*
  (their gradients are dropped from aggregation), and ``time-window`` is the
  SAGN-style accumulation window — workers finishing within
  ``window_factor x`` the fastest worker's time participate, later ones are
  cut.

Model assumption, stated once: worker *w*'s finish time is *its own* iteration
schedule evaluated at its ``(compute, link)`` rates, i.e. stragglers stretch
their whole lane rather than perturbing individual bucket events, and a slow
worker does not slow the collective of the fast ones (their cost is priced at
nominal rates; the barrier — the sync policy — is where the slow worker
hurts).  That keeps per-worker pricing a two-point memoized evaluation instead
of a full multi-worker event simulation, and matches how straggler studies
report per-replica step times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Recognised synchronization policies, most to least conservative.
SYNC_POLICIES: tuple[str, ...] = ("full-sync", "backup-workers", "time-window")

#: Per-injector-class seed salts: three injectors sharing one seed still draw
#: from independent streams.
_STRAGGLER_SALT = 0x51
_LINK_SALT = 0x11
_CHURN_SALT = 0xC4


def validate_sync_policy(policy: str) -> str:
    """Return ``policy`` if it is a recognised sync policy, else raise."""
    if policy not in SYNC_POLICIES:
        raise ValueError(f"unknown sync policy {policy!r}; known: {list(SYNC_POLICIES)}")
    return policy


def _validate_multiplier(name: str, value: float, *, minimum: float = 0.0) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= minimum:
        raise ValueError(f"{name} must be a finite number > {minimum}, got {value!r}")
    return value


def _validate_probability(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class WorkerProfile:
    """One worker's persistent lane rates (time multipliers, 1.0 = nominal)."""

    compute: float = 1.0
    link: float = 1.0

    def __post_init__(self) -> None:
        _validate_multiplier("compute", self.compute)
        _validate_multiplier("link", self.link)


@dataclass(frozen=True)
class ClusterProfile:
    """Persistent per-worker heterogeneity of a cluster."""

    workers: tuple[WorkerProfile, ...]

    def __post_init__(self) -> None:
        if not self.workers:
            raise ValueError("a cluster profile needs at least one worker")
        object.__setattr__(self, "workers", tuple(self.workers))

    @property
    def num_workers(self) -> int:
        return len(self.workers)

    @classmethod
    def homogeneous(cls, num_workers: int) -> "ClusterProfile":
        """The perfect cluster every earlier PR priced: all rates 1.0."""
        return cls(workers=tuple(WorkerProfile() for _ in range(num_workers)))

    @classmethod
    def degraded(
        cls, num_workers: int, *, worker: int = 0, compute: float = 1.0, link: float = 1.0
    ) -> "ClusterProfile":
        """Homogeneous cluster with one deterministic straggler at ``worker``."""
        if not 0 <= worker < num_workers:
            raise ValueError(f"worker must be in [0, {num_workers}), got {worker}")
        profiles = [WorkerProfile() for _ in range(num_workers)]
        profiles[worker] = WorkerProfile(compute=compute, link=link)
        return cls(workers=tuple(profiles))

    @classmethod
    def from_factors(cls, compute, link=None) -> "ClusterProfile":
        """Build a profile from parallel sequences of compute/link multipliers."""
        compute = [float(c) for c in compute]
        link = [1.0] * len(compute) if link is None else [float(x) for x in link]
        if len(link) != len(compute):
            raise ValueError("compute and link factor sequences must have equal length")
        return cls(workers=tuple(WorkerProfile(compute=c, link=m) for c, m in zip(compute, link)))

    @classmethod
    def lognormal(
        cls,
        num_workers: int,
        *,
        compute_sigma: float = 0.2,
        link_sigma: float = 0.0,
        seed: int = 0,
    ) -> "ClusterProfile":
        """Seeded lognormal heterogeneity (mean log 0, so the median rate is 1.0)."""
        if compute_sigma < 0.0 or link_sigma < 0.0:
            raise ValueError("sigma values must be non-negative")
        rng = np.random.default_rng(seed)
        compute = np.exp(rng.normal(0.0, compute_sigma, size=num_workers))
        link = np.exp(rng.normal(0.0, link_sigma, size=num_workers))
        return cls.from_factors(compute.tolist(), link.tolist())

    def rates(self) -> "WorkerRates":
        """The profile as fresh per-worker rate arrays, everyone active."""
        return WorkerRates(
            compute=np.array([p.compute for p in self.workers], dtype=float),
            link=np.array([p.link for p in self.workers], dtype=float),
            active=np.ones(self.num_workers, dtype=bool),
        )


@dataclass(frozen=True, eq=False)
class WorkerRates:
    """Effective per-worker lane rates for one iteration, after injection."""

    compute: np.ndarray
    link: np.ndarray
    active: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.compute) == len(self.link) == len(self.active)):
            raise ValueError("compute, link, and active must have equal length")

    @property
    def num_workers(self) -> int:
        return len(self.compute)

    @property
    def active_indices(self) -> list[int]:
        return [int(w) for w in np.flatnonzero(self.active)]


@dataclass(frozen=True)
class StragglerInjector:
    """Each iteration, each worker independently straggles with ``probability``.

    A straggling worker's compute rate is multiplied by ``slowdown`` (>= 1) on
    top of its profile rate.  Draws depend only on ``(seed, iteration)``.
    """

    probability: float = 0.1
    slowdown: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_probability("probability", self.probability)
        if _validate_multiplier("slowdown", self.slowdown) < 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown!r}")

    def apply(self, iteration: int, rates: WorkerRates) -> WorkerRates:
        rng = np.random.default_rng((self.seed, iteration, _STRAGGLER_SALT))
        hit = rng.random(rates.num_workers) < self.probability
        compute = np.where(hit, rates.compute * self.slowdown, rates.compute)
        return WorkerRates(compute=compute, link=rates.link, active=rates.active)


@dataclass(frozen=True)
class LinkDegradation:
    """Each iteration, each worker's link independently degrades with ``probability``.

    A degraded worker's link rate is multiplied by ``factor`` (>= 1, i.e. its
    transfers take ``factor`` times longer — a bandwidth cut to ``1/factor``).
    """

    probability: float = 0.1
    factor: float = 4.0
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_probability("probability", self.probability)
        if _validate_multiplier("factor", self.factor) < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor!r}")

    def apply(self, iteration: int, rates: WorkerRates) -> WorkerRates:
        rng = np.random.default_rng((self.seed, iteration, _LINK_SALT))
        hit = rng.random(rates.num_workers) < self.probability
        link = np.where(hit, rates.link * self.factor, rates.link)
        return WorkerRates(compute=rates.compute, link=link, active=rates.active)


@dataclass
class WorkerChurn:
    """Elastic membership: workers leave and rejoin between iterations.

    Membership follows a deterministic two-state Markov chain per worker: an
    active worker leaves with ``leave_probability``, an inactive one rejoins
    with ``rejoin_probability``, both drawn from ``(seed, iteration)``-keyed
    streams.  The chain is replayed from iteration 0 (with an internal cache),
    so membership at iteration *t* is a pure function of the seed — pricing
    iterations out of order, or twice, cannot change who was present.

    ``min_active`` is a floor: when a draw would leave fewer members, the
    lowest-index inactive workers are re-activated (a scheduler restarting
    replacements), keeping every iteration priceable.
    """

    leave_probability: float = 0.05
    rejoin_probability: float = 0.5
    seed: int = 0
    min_active: int = 1
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        _validate_probability("leave_probability", self.leave_probability)
        _validate_probability("rejoin_probability", self.rejoin_probability)
        if self.min_active < 1:
            raise ValueError(f"min_active must be >= 1, got {self.min_active}")

    def membership(self, iteration: int, num_workers: int) -> np.ndarray:
        """Active mask at ``iteration`` for a ``num_workers`` cluster."""
        if iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {iteration}")
        if num_workers < self.min_active:
            raise ValueError(
                f"num_workers ({num_workers}) is below min_active ({self.min_active})"
            )
        states = self._cache.setdefault(num_workers, [np.ones(num_workers, dtype=bool)])
        while len(states) <= iteration:
            t = len(states)
            previous = states[-1]
            rng = np.random.default_rng((self.seed, t, _CHURN_SALT))
            leave = rng.random(num_workers) < self.leave_probability
            rejoin = rng.random(num_workers) < self.rejoin_probability
            state = np.where(previous, ~leave, rejoin)
            deficit = self.min_active - int(state.sum())
            if deficit > 0:
                state = state.copy()
                state[np.flatnonzero(~state)[:deficit]] = True
            states.append(state)
        return states[iteration].copy()

    def apply(self, iteration: int, rates: WorkerRates) -> WorkerRates:
        active = rates.active & self.membership(iteration, rates.num_workers)
        deficit = self.min_active - int(active.sum())
        if deficit > 0:
            # Another injector (or the caller) already removed workers; keep
            # the floor against the combined membership too.
            active = active.copy()
            active[np.flatnonzero(~active)[:deficit]] = True
        return WorkerRates(compute=rates.compute, link=rates.link, active=active)


@dataclass(frozen=True)
class FaultModel:
    """A cluster profile plus the injectors perturbing it each iteration."""

    profile: ClusterProfile
    injectors: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "injectors", tuple(self.injectors))
        for injector in self.injectors:
            if not callable(getattr(injector, "apply", None)):
                raise ValueError(f"injector {injector!r} has no apply(iteration, rates)")

    def rates_for_iteration(self, iteration: int) -> WorkerRates:
        """Effective rates at ``iteration``: profile first, injectors in order."""
        rates = self.profile.rates()
        for injector in self.injectors:
            rates = injector.apply(iteration, rates)
        return rates


@dataclass(frozen=True, eq=False)
class PolicyOutcome:
    """What a sync policy decided for one iteration."""

    #: The cluster's iteration time: the latest *participating* finish time.
    iteration_seconds: float
    #: Per-worker mask of gradients the policy aggregated.
    participating: np.ndarray
    #: Active workers the policy cut (their gradients are dropped).
    stragglers_cut: int

    @property
    def num_participating(self) -> int:
        return int(self.participating.sum())


class SyncPolicy:
    """Prices the cluster iteration from per-worker finish times.

    ``finish`` is a ``(num_workers,)`` array of per-worker iteration times
    (NaN for inactive workers); ``active`` is the membership mask.  A policy
    decides which active workers participate in aggregation and what the
    cluster-level iteration time is — it never changes the finish times
    themselves.
    """

    name: str = ""

    def price(self, finish: np.ndarray, active: np.ndarray) -> PolicyOutcome:
        raise NotImplementedError

    @staticmethod
    def _check(finish: np.ndarray, active: np.ndarray) -> np.ndarray:
        active = np.asarray(active, dtype=bool)
        if len(finish) != len(active):
            raise ValueError("finish and active must have equal length")
        if not active.any():
            raise ValueError("cannot price an iteration with no active workers")
        return active


@dataclass(frozen=True)
class FullSync(SyncPolicy):
    """Today's barrier: every active worker participates, the slowest gates."""

    name = "full-sync"

    def price(self, finish: np.ndarray, active: np.ndarray) -> PolicyOutcome:
        active = self._check(finish, active)
        return PolicyOutcome(
            iteration_seconds=float(np.max(finish[active])),
            participating=active.copy(),
            stragglers_cut=0,
        )


@dataclass(frozen=True)
class BackupWorkers(SyncPolicy):
    """Cut the slowest ``backup_workers`` active workers from the barrier.

    The classic backup-workers mitigation: provision ``k`` more workers than
    you need and let each iteration proceed once ``n - k`` have finished.  The
    cut workers' gradients are dropped from aggregation.  At most
    ``n_active - 1`` workers are ever cut (someone must produce a gradient),
    and ties break on worker index — the lower index is kept — so the policy
    is deterministic.  ``backup_workers=0`` is exactly ``full-sync``.
    """

    backup_workers: int = 1

    name = "backup-workers"

    def __post_init__(self) -> None:
        if self.backup_workers < 0:
            raise ValueError(f"backup_workers must be >= 0, got {self.backup_workers}")

    def price(self, finish: np.ndarray, active: np.ndarray) -> PolicyOutcome:
        active = self._check(finish, active)
        indices = np.flatnonzero(active)
        cut = min(self.backup_workers, len(indices) - 1)
        if cut > 0:
            order = sorted(indices.tolist(), key=lambda w: (finish[w], w))
            kept = np.array(sorted(order[: len(order) - cut]), dtype=int)
            participating = np.zeros_like(active)
            participating[kept] = True
        else:
            participating = active.copy()
        return PolicyOutcome(
            iteration_seconds=float(np.max(finish[participating])),
            participating=participating,
            stragglers_cut=cut,
        )


@dataclass(frozen=True)
class TimeWindowSync(SyncPolicy):
    """SAGN-style accumulation window anchored at the fastest worker.

    Workers finishing within ``window_factor x`` the fastest active finish
    time participate; later ones are cut from this iteration's aggregation.
    The fastest worker is always inside its own window, so at least one
    gradient always survives, and on a homogeneous cluster every finish time
    ties the minimum — the policy degenerates to ``full-sync`` exactly.
    """

    window_factor: float = 1.5

    name = "time-window"

    def __post_init__(self) -> None:
        if _validate_multiplier("window_factor", self.window_factor) < 1.0:
            raise ValueError(f"window_factor must be >= 1, got {self.window_factor!r}")

    def price(self, finish: np.ndarray, active: np.ndarray) -> PolicyOutcome:
        active = self._check(finish, active)
        indices = np.flatnonzero(active)
        finish_active = finish[indices]
        window = self.window_factor * float(np.min(finish_active))
        keep = finish_active <= window
        participating = np.zeros_like(active)
        participating[indices[keep]] = True
        return PolicyOutcome(
            iteration_seconds=float(np.max(finish_active[keep])),
            participating=participating,
            stragglers_cut=int(len(indices) - keep.sum()),
        )


def get_sync_policy(
    policy: str, *, backup_workers: int = 0, time_window_factor: float | None = None
) -> SyncPolicy:
    """Build the named policy from the flat knob values.

    ``backup_workers`` only applies to ``"backup-workers"`` and
    ``time_window_factor`` only to ``"time-window"`` (``None`` means the
    policy default of 1.5); the callers' config validation rejects
    contradictory combinations before they reach this factory.
    """
    validate_sync_policy(policy)
    if policy == "full-sync":
        return FullSync()
    if policy == "backup-workers":
        return BackupWorkers(backup_workers=backup_workers)
    factor = 1.5 if time_window_factor is None else time_window_factor
    return TimeWindowSync(window_factor=factor)


def worker_finish_times(price, rates: WorkerRates) -> np.ndarray:
    """Per-worker iteration finish times under ``rates`` (NaN when inactive).

    ``price(compute_scale, comm_scale)`` prices one worker's iteration at the
    given lane rates; :meth:`TimelineModel.price
    <repro.distributed.timeline.TimelineModel.price>` passes one over its
    compressed or dense iteration.  Distinct ``(compute, link)``
    pairs are memoized, so the common "one straggler" case costs two pricing
    calls no matter how many workers the cluster has, and the nominal pair is
    priced by the unscaled scheduler path (bit-for-bit today's number).
    """
    finish = np.full(rates.num_workers, math.nan)
    memo: dict[tuple[float, float], float] = {}
    for w in rates.active_indices:
        pair = (float(rates.compute[w]), float(rates.link[w]))
        if pair not in memo:
            memo[pair] = float(price(*pair))
        finish[w] = memo[pair]
    return finish


@dataclass(frozen=True, eq=False)
class FaultedIteration:
    """Per-worker finish times plus the policy's verdict for one iteration."""

    finish_seconds: np.ndarray
    outcome: PolicyOutcome

    @property
    def iteration_seconds(self) -> float:
        return self.outcome.iteration_seconds


def price_iteration(price, rates: WorkerRates, policy: SyncPolicy) -> FaultedIteration:
    """Price one cluster iteration: per-worker finish times, then the policy."""
    finish = worker_finish_times(price, rates)
    return FaultedIteration(finish_seconds=finish, outcome=policy.price(finish, rates.active))
