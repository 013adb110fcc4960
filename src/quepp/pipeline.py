"""The boosted estimator: classical truncated sum plus rescaled residual.

Protocol, given a circuit, an observable and a truncated path set B:

1. classical part: sum of g * ideal over B (exact, classical);
2. execute the target and every nonzero-ideal path circuit noisily;
3. residual: noisy target minus sum of g * noisy over B;
4. rescaling factor eta from the per-circuit ratios eta_i = noisy/ideal;
5. boosted estimate: classical part + residual / eta.

The residual is exactly the noisy weight of the paths *outside* B, so
dividing by eta undoes (to the accuracy of the single-factor noise model)
the attenuation of the tail the classical sum cannot afford, while the head
is known exactly.  Everything here is pure post-processing over immutable
inputs; the quantum side is behind the Backend interface.

Also here: the variance bound on the ensemble-execution part, the
combinatorial tail bound and the eta-spread heuristic bound on the
remaining bias, and the convergence series, whose errors carry the
bootstrap variance of the eta estimator (``_eta_variance``).
"""

import math
import statistics
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .backend import Backend, ExecutionPlan, NoisyEstimate
from .circuits import Circuit, normalize_rotations
from .engine import (
    PauliPath,
    TruncationPolicy,
    classical_cpt_estimate,
    coefficient_power,
    enumerate_paths_parallel,
    path_to_circuit,
)
from .errors import ConsistencyError, DegenerateEtaError, EnumerationLimitError
from .pauli import PauliString
from .sampler import (SamplerConfig, SamplingReport, build_ensemble,
                      require_complete)

__all__ = [
    "EnsembleRecord",
    "EtaChoice",
    "VarianceBound",
    "CombinatorialBiasBound",
    "EtaBiasBound",
    "QueppResult",
    "make_record",
    "eta_median",
    "eta_weighted_average",
    "eta_balance",
    "eta_star",
    "eta_prime",
    "eta_bar",
    "variance_bound",
    "bias_bound_combinatorial",
    "bias_bound_eta",
    "quepp_estimate",
    "choose_eta",
    "run_quepp",
    "convergence_series",
    "ETA_METHODS",
]

@dataclass(frozen=True)
class EnsembleRecord:
    """One executed path: its exact weight, ideal sign, and noisy estimate."""

    path: PauliPath
    ideal: int
    noisy: NoisyEstimate
    eta: float

    def __post_init__(self):
        if self.ideal not in (-1, 1):
            raise ValueError("only nonzero-ideal paths are executed")
        if not math.isfinite(self.eta):
            raise ValueError("eta must be finite")


def make_record(path: PauliPath, noisy: NoisyEstimate) -> EnsembleRecord:
    ideal = path.ideal_expectation
    if ideal == 0:
        raise ValueError(f"path {path.path_id} has zero ideal expectation")
    return EnsembleRecord(path=path, ideal=ideal, noisy=noisy,
                          eta=noisy.mean / ideal)


@dataclass(frozen=True)
class EtaChoice:
    method: str
    value: float

    def __post_init__(self):
        if self.value == 0.0 or not math.isfinite(self.value):
            raise ValueError("rescaling factor must be finite and nonzero")


def eta_median(records: Sequence[EnsembleRecord]) -> float:
    """Median of the per-circuit rescaling factors (even count: midpoint mean)."""
    if not records:
        raise ValueError("no records")
    return statistics.median(r.eta for r in records)


def eta_weighted_average(records: Sequence[EnsembleRecord]) -> float:
    """Coefficient-weighted average: sum(g eta ideal) / sum(g ideal).

    This choice zeroes the measured part of the remaining bias exactly.  The
    denominator is the classical part of the estimate; when it vanishes the
    ratio is meaningless and the caller should fall back to the median.
    """
    if not records:
        raise ValueError("no records")
    num = math.fsum(r.path.coeff * r.eta * r.ideal for r in records)
    den = math.fsum(r.path.coeff * r.ideal for r in records)
    scale = math.fsum(abs(r.path.coeff) for r in records)
    if den == 0.0 or abs(den) < 1e-12 * scale:
        raise DegenerateEtaError(
            "weighted-average denominator sum(g*ideal) vanishes")
    return num / den


def eta_balance(records: Sequence[EnsembleRecord]) -> float:
    """Sample point that best balances the eta mass below and above it.

    Exact balance (sum below == sum above) is generically impossible on a
    discrete sample, so this scans the distinct sample values v and
    minimizes |sum(eta < v) - sum(eta >= v)|, breaking ties toward the
    larger v: overshooting eta rescales by less than the effective noise,
    which is the safer side.
    """
    if not records:
        raise ValueError("no records")
    values = sorted(r.eta for r in records)
    total = math.fsum(values)
    best_value = values[-1]
    best_imbalance = math.inf
    below = 0.0
    i = 0
    while i < len(values):
        v = values[i]
        # advance over duplicates: they all sit in the >= v side
        imbalance = abs(below - (total - below))
        if imbalance <= best_imbalance:
            best_imbalance = imbalance
            best_value = v
        while i < len(values) and values[i] == v:
            below += values[i]
            i += 1
    return best_value


_ETA_ESTIMATORS = {
    "median": eta_median,
    "weighted_average": eta_weighted_average,
    "balance": eta_balance,
}
ETA_METHODS = tuple(_ETA_ESTIMATORS)


def eta_bar(records: Sequence[EnsembleRecord]) -> float:
    if not records:
        raise ValueError("no records")
    return math.fsum(r.eta for r in records) / len(records)


def eta_star(records: Sequence[EnsembleRecord], eta: float) -> float:
    """The sample eta maximizing |1 - eta_i/eta| (worst attenuation spread)."""
    if not records:
        raise ValueError("no records")
    return max((r.eta for r in records), key=lambda e: abs(1.0 - e / eta))


def eta_prime(records: Sequence[EnsembleRecord], eta: float) -> float:
    """The sample eta maximizing |1 - eta/eta_i|; 0 in the sample wins."""
    if not records:
        raise ValueError("no records")
    return max((r.eta for r in records),
               key=lambda e: math.inf if e == 0.0 else abs(1.0 - eta / e))


@dataclass(frozen=True)
class VarianceBound:
    """sigma^2 of the ensemble-execution part of the boosted estimate.

    ``bound`` is gamma * p_kt / shots; ``exact`` is the tighter per-record
    sum  sum(g^2 (1 - eta_i^2)) / (eta^2 N), which can dip negative when
    shot noise pushes a measured |eta_i| above 1.
    """

    bound: float
    gamma: float
    p_kt: float
    exact: float
    shots: int


def variance_bound(records: Sequence[EnsembleRecord], eta: float, shots: int,
                   p_kt: Optional[float] = None) -> VarianceBound:
    """Shot-variance bound; ``p_kt`` should be the truncated coefficient
    power over *all* paths (zero-ideal ones included); default uses the
    executed records only, which understates it."""
    if eta == 0.0:
        raise ValueError("eta must be nonzero")
    gamma = 1.0 / (eta * eta)
    if p_kt is None:
        p_kt = min(1.0, math.fsum(r.path.coeff ** 2 for r in records))
    if shots <= 0:
        return VarianceBound(bound=0.0, gamma=gamma, p_kt=p_kt, exact=0.0,
                             shots=0)
    exact = math.fsum(
        r.path.coeff ** 2 * (1.0 - r.eta ** 2) for r in records
    ) * gamma / shots
    return VarianceBound(bound=gamma * p_kt / shots, gamma=gamma, p_kt=p_kt,
                         exact=exact, shots=shots)


@dataclass(frozen=True)
class CombinatorialBiasBound:
    """Tail bound: prefactor times the binomial tail of sin(theta*)."""

    sum_bound: float
    closed_form: Optional[float]
    closed_form_applicable: bool
    prefactor: float


def _logsumexp(values: Sequence[float]) -> float:
    """log(sum(exp(values))) of finite values, by the steps of the
    reference ``logsumexp`` the tests compare it with, so the result carries
    the same bits.

    The m values tied at the maximum a_max are split out of the sum for
    precision: with s the sum of exp(a - a_max) over the others, the result
    is log1p(s / m) + log(m) + a_max.
    """
    a = np.asarray(values, dtype=float)
    a_max = np.max(a)
    tied = a == a_max
    m = float(np.count_nonzero(tied))
    s = np.sum(np.exp(np.where(tied, -np.inf, a) - a_max))
    if s != 0.0:
        s = s / m
    return np.log1p(s) + np.log(m) + a_max


def bias_bound_combinatorial(k_total: int, k_t: int, theta_star: float,
                             eta: float, eta_star_value: float) -> CombinatorialBiasBound:
    """Remaining-bias bound from counting the truncated-away paths.

    sum form:    |1 - eta*/eta| * sum_{k=k_t+1}^{K} C(K, k) sin(theta*)^k
    closed form: |1 - eta*/eta| * (e K sin(theta*) / (k_t + 1))^(k_t + 1),
    valid only when sin(theta*) <= (k_t + 1) / K; the sum form always is.
    The closed form is 0 where the truncation is exact (k_t >= K) and at a
    zero prefactor, where no power is taken; either form is a true but
    vacuous inf where it passes the float range.
    """
    if k_total < 0 or k_t < 0:
        raise ValueError("orders must be >= 0")
    if eta == 0.0:
        raise ValueError("eta must be nonzero")
    prefactor = abs(1.0 - eta_star_value / eta)
    s = abs(math.sin(theta_star))
    if k_t >= k_total or s == 0.0 or prefactor == 0.0:
        sum_bound = 0.0
    else:
        log_s = math.log(s)
        log_terms = [
            math.lgamma(k_total + 1) - math.lgamma(k + 1)
            - math.lgamma(k_total - k + 1) + k * log_s
            for k in range(k_t + 1, k_total + 1)
        ]
        with np.errstate(over="ignore"):  # past the float range: inf
            sum_bound = prefactor * float(np.exp(_logsumexp(log_terms)))
    applicable = k_total == 0 or s <= (k_t + 1) / k_total
    closed_form = None
    if applicable:
        try:
            closed_form = 0.0 if k_t >= k_total or not prefactor else \
                prefactor * (math.e * k_total * s / (k_t + 1)) ** (k_t + 1)
        except OverflowError:
            closed_form = math.inf
        if closed_form < sum_bound * (1.0 - 1e-9):
            raise ConsistencyError(
                f"closed form {closed_form} must dominate the exact sum "
                f"{sum_bound} where valid")
    return CombinatorialBiasBound(sum_bound=sum_bound, closed_form=closed_form,
                                  closed_form_applicable=applicable,
                                  prefactor=prefactor)


@dataclass(frozen=True)
class EtaBiasBound:
    """Heuristic remaining-bias bounds from the spread of the eta sample.

    ``*_raw`` keep the uncapped values: a negative raw value means either
    uniform noise (nothing left to bound) or a violation of the same-sign
    assumption behind the heuristic; the capped fields floor it at zero.
    """

    worst_case: float
    average_case: float
    worst_case_raw: float
    average_case_raw: float


def bias_bound_eta(mitigated_value: float, eta: float, eta_prime_value: float,
                   eta_bar_value: float, delta_kt_m: float) -> EtaBiasBound:
    """|eta/eta' - 1| |<O>_M| - |delta^Kt_M|, and the eta-bar average variant.

    Heuristic, not strict: it bounds the unknown distance of the mitigated
    target from ideal by the most-misrescaled measured ensemble circuit.
    """
    if eta_prime_value == 0.0:
        raise DegenerateEtaError("eta' = 0: worst-case spread is unbounded")
    if eta_bar_value == 0.0:
        raise DegenerateEtaError("mean eta = 0: average spread is unbounded")
    worst_raw = abs(eta / eta_prime_value - 1.0) * abs(mitigated_value) \
        - abs(delta_kt_m)
    average_raw = abs(eta / eta_bar_value - 1.0) * abs(mitigated_value) \
        - abs(delta_kt_m)
    return EtaBiasBound(
        worst_case=max(0.0, worst_raw),
        average_case=max(0.0, average_raw),
        worst_case_raw=worst_raw,
        average_case_raw=average_raw,
    )


@dataclass(frozen=True)
class QueppResult:
    classical_part: float
    noisy_target: NoisyEstimate
    noisy_ensemble_part: float
    residual: float
    eta: EtaChoice
    boosted: float
    boosted_std_error: float
    gamma: float
    p_kt: float
    variance: VarianceBound
    bias_combinatorial: Optional[CombinatorialBiasBound]
    bias_eta: Optional[EtaBiasBound]
    eta_candidates: dict[str, Optional[float]]
    records: tuple[EnsembleRecord, ...]
    sampling_report: Optional[SamplingReport] = None

    def __post_init__(self):
        # both hold by construction in quepp_estimate
        residual = self.noisy_target.mean - self.noisy_ensemble_part
        if (self.residual != residual
                or self.boosted != self.classical_part + residual / self.eta.value):
            raise ConsistencyError(
                "residual and boosted do not follow from the noisy target, "
                "the noisy ensemble part and eta")

    def to_json_dict(self) -> dict:
        return {
            "classical_part": self.classical_part,
            "noisy_target": asdict(self.noisy_target),
            "noisy_ensemble_part": self.noisy_ensemble_part,
            "residual": self.residual,
            "eta": asdict(self.eta),
            "eta_candidates": dict(self.eta_candidates),
            "boosted": self.boosted,
            "boosted_std_error": self.boosted_std_error,
            "gamma": self.gamma,
            "p_kt": self.p_kt,
            # gamma and p_kt appear once, at the top level
            "variance": {
                "bound": self.variance.bound,
                "exact": self.variance.exact,
                "shots": self.variance.shots,
            },
            "bias_combinatorial": (None if self.bias_combinatorial is None
                                   else asdict(self.bias_combinatorial)),
            "bias_eta": None if self.bias_eta is None else asdict(self.bias_eta),
            "records": [
                {
                    "path_id": r.path.path_id,
                    "order": r.path.order,
                    "coefficient": r.path.coeff,
                    "ideal": r.ideal,
                    "noisy_mean": r.noisy.mean,
                    "noisy_std_error": r.noisy.std_error,
                    "eta": r.eta,
                }
                for r in self.records
            ],
            "sampling_report": (None if self.sampling_report is None
                                else self.sampling_report.to_json_dict()),
        }


def quepp_estimate(records: Sequence[EnsembleRecord],
                   target_noisy: NoisyEstimate,
                   classical_part: float,
                   eta: EtaChoice, *,
                   p_kt: Optional[float] = None,
                   k_total: Optional[int] = None,
                   k_t: Optional[int] = None,
                   theta_star: Optional[float] = None,
                   eta_candidates: Optional[dict] = None,
                   sampling_report: Optional[SamplingReport] = None) -> QueppResult:
    """Assemble the boosted estimate and its bounds from executed records.

    ``classical_part`` must come from the same path set as ``records``
    (zero-ideal paths contribute nothing to it, so the executed subset
    determines it); this is re-derived and checked, because combining a
    classical sum with a noisy ensemble from different truncations silently
    breaks the telescoping.  The combinatorial bias bound needs the circuit
    context (k_total, k_t, theta_star) and is omitted when not given.
    """
    ordered = sorted(records, key=lambda r: r.path.path_id)
    check = math.fsum(r.path.coeff * r.ideal for r in ordered)
    if abs(check - classical_part) > 1e-9:
        raise ConsistencyError(
            f"classical part {classical_part} does not match the executed "
            f"path set (expected {check}); classical and noisy ensembles "
            "must come from the same truncation")
    noisy_ensemble_part = math.fsum(
        r.path.coeff * r.noisy.mean for r in ordered)
    residual = target_noisy.mean - noisy_ensemble_part
    boosted = classical_part + residual / eta.value

    shot_var = target_noisy.std_error ** 2 + math.fsum(
        (r.path.coeff * r.noisy.std_error) ** 2 for r in ordered)
    boosted_std_error = math.sqrt(shot_var) / abs(eta.value)

    # the fewest shots of any record keep gamma * p_kt / N an upper bound
    shots = (min(r.noisy.total_shots for r in records) if records
             else target_noisy.total_shots)
    variance = variance_bound(ordered, eta.value, shots, p_kt=p_kt)

    bias_comb = None
    if records and k_total is not None and k_t is not None and theta_star is not None:
        bias_comb = bias_bound_combinatorial(
            k_total, k_t, theta_star, eta.value, eta_star(ordered, eta.value))

    bias_sp = None
    if records:
        delta_kt_m = classical_part - noisy_ensemble_part / eta.value
        mitigated_target = target_noisy.mean / eta.value
        try:
            bias_sp = bias_bound_eta(mitigated_target, eta.value,
                                     eta_prime(ordered, eta.value),
                                     eta_bar(ordered), delta_kt_m)
        except DegenerateEtaError:
            bias_sp = None

    return QueppResult(
        classical_part=classical_part,
        noisy_target=target_noisy,
        noisy_ensemble_part=noisy_ensemble_part,
        residual=residual,
        eta=eta,
        boosted=boosted,
        boosted_std_error=boosted_std_error,
        gamma=variance.gamma,
        p_kt=variance.p_kt,
        variance=variance,
        bias_combinatorial=bias_comb,
        bias_eta=bias_sp,
        eta_candidates=dict(eta_candidates or {}),
        records=tuple(ordered),
        sampling_report=sampling_report,
    )


def _eta_candidates(records: Sequence[EnsembleRecord]) -> dict[str, Optional[float]]:
    """Every estimator's eta; None for a degenerate weighted average."""
    candidates: dict[str, Optional[float]] = {}
    for method, estimator in _ETA_ESTIMATORS.items():
        try:
            candidates[method] = estimator(records)
        except DegenerateEtaError:
            candidates[method] = None
    return candidates


def _eta_or_median(records: Sequence[EnsembleRecord],
                   method: str) -> tuple[str, float]:
    """The requested estimator's (method, eta), or the median's when the
    weighted average is degenerate.  Raises DegenerateEtaError, naming the
    method, when that eta is 0 or not finite: it cannot rescale."""
    if method not in ETA_METHODS:
        raise ValueError(f"unknown eta method {method!r}")
    try:
        value = _ETA_ESTIMATORS[method](records)
    except DegenerateEtaError:
        method, value = "median", eta_median(records)
    if value == 0.0 or not math.isfinite(value):
        raise DegenerateEtaError(f"the {method} rescaling factor eta is "
                                 f"{value}; it cannot rescale the target")
    return method, value


def choose_eta(records: Sequence[EnsembleRecord], method: str) -> tuple[EtaChoice, dict]:
    """All three estimators, plus the requested one (median fallback when
    the weighted average is degenerate)."""
    used, value = _eta_or_median(records, method)
    return EtaChoice(method=used, value=value), _eta_candidates(records)


def run_quepp(circuit: Circuit, observable: PauliString, backend: Backend,
              plan: ExecutionPlan, *,
              policy: Optional[TruncationPolicy] = None,
              sampler: Optional[SamplerConfig] = None,
              eta_method: str = "median",
              allow_partial: bool = False) -> QueppResult:
    """End-to-end boosted estimate.

    Exactly one of ``policy`` (enumerate the truncated tree) or ``sampler``
    (Monte Carlo ensemble) selects the path set.  The circuit is normalized
    here; the target is executed in normalized form so its noise locations
    match the ensemble circuits slot for slot.

    A run whose executable path set is empty raises
    :class:`EnumerationLimitError` naming the budget to change, the policy
    or the sampler's ``max_attempts``: no circuit calibrates the rescaling.
    The one exception is an expansion that provably omits nothing: an order
    policy that keeps every rotation, or a path set whose weight ``p_kt``
    is exactly 1.  The classical sum is then the full expansion, and the
    target measurement is folded in unrescaled (eta method ``unit``).  Only
    an order policy reports the combinatorial bias bound, which covers the
    orders above its cutoff; a coefficient floor drops paths at any order.
    """
    if (policy is None) == (sampler is None):
        raise ValueError("pass exactly one of policy or sampler")
    normalized = normalize_rotations(circuit)

    report = None
    k_t = None
    if policy is not None:
        paths = enumerate_paths_parallel(normalized, observable, policy)
        p_kt = paths.p_kt
        executed = list(paths.executed)
        if policy.mode == "order":
            k_t = policy.max_order
        fix = f"loosen the {policy.mode} truncation policy ({policy})"
    else:
        executed, report = build_ensemble(normalized, observable, sampler)
        require_complete(report, sampler, allow_partial)
        p_kt = coefficient_power(executed)
        fix = f"raise max_attempts ({sampler.max_attempts})"
    # p_kt is exactly 1.0 when no rotation branched; without executed paths
    # it is 0.0 for the sampler
    omits_nothing = p_kt == 1.0 or (k_t is not None
                                    and k_t >= normalized.num_rotations)
    if not executed and not omits_nothing:
        raise EnumerationLimitError(
            "no executable path: every kept path has zero ideal expectation, "
            f"so no circuit calibrates the rescaling factor; {fix}")

    classical_part = classical_cpt_estimate(executed)
    items = [(normalized, observable)]
    items.extend((path_to_circuit(normalized, p.codes), observable)
                 for p in executed)
    estimates = backend.submit_batch(items, plan)
    target_noisy = estimates[0]
    records = [make_record(p, est) for p, est in zip(executed, estimates[1:])]

    if records:
        eta, candidates = choose_eta(records, eta_method)
    else:
        # Exact coverage with no reference circuit: nothing is omitted, so
        # the residual has zero expectation under any rescaling.  Keep it
        # unrescaled instead of refusing the run.
        eta, candidates = EtaChoice(method="unit", value=1.0), {}
    theta_star = max((abs(op.angle) for _, _, op in normalized.rotations()),
                     default=0.0)
    return quepp_estimate(
        records, target_noisy, classical_part, eta,
        p_kt=p_kt,
        k_total=normalized.num_rotations,
        k_t=k_t,
        theta_star=theta_star,
        eta_candidates=candidates,
        sampling_report=report,
    )


def _row_medians(rows: np.ndarray) -> np.ndarray:
    """``statistics.median`` of every row of a finite 2-d array.
    ``np.median`` gives the same values, but its first call imports
    ``numpy.ma``, which costs more than a small command's whole series."""
    rows = np.sort(rows, axis=1)
    middle = rows.shape[1] // 2
    if rows.shape[1] % 2:
        return rows[:, middle]
    return (rows[:, middle - 1] + rows[:, middle]) / 2


def _resampled_eta(records: Sequence[EnsembleRecord], method: str) -> float:
    """``_eta_or_median``'s eta, or nan where it is degenerate."""
    try:
        return _eta_or_median(records, method)[1]
    except DegenerateEtaError:
        return math.nan


def _eta_variance(records, etas, method: str, num_resamples: int, rng):
    """Variance of the eta estimator ``method`` over ``num_resamples``
    resamples of the records (``etas`` their etas as an array), each with
    choose_eta's median fallback; a zero or non-finite eta is skipped.  All
    picks are one ``(num_resamples, n)`` draw from ``rng``, which PCG64
    fills with the stream of one size-n draw per resample; the median runs
    along the rows at once (``_row_medians``)."""
    picks = rng.integers(0, len(records), size=(num_resamples, len(records)))
    if method == "median":
        values = _row_medians(etas[picks])
    else:
        values = np.array([_resampled_eta([records[i] for i in row], method)
                           for row in picks])
    # drop the degenerate values
    estimates = values[(values != 0.0) & np.isfinite(values)]
    if len(estimates) < 2:
        return 0.0
    # np.var(estimates, ddof=1)'s two passes, without its Python overhead
    spread = estimates - estimates.sum() / len(estimates)
    return float((spread * spread).sum() / (len(estimates) - 1))


def convergence_series(records: Sequence[EnsembleRecord],
                       target_noisy: NoisyEstimate, *,
                       eta_method: str = "median",
                       sizes: Optional[Sequence[int]] = None,
                       bootstrap_resamples: int = 200,
                       seed: int = 0) -> list[dict]:
    """Boosted estimate versus ensemble size, over prefixes of ``records``
    in the order given; ``run_quepp`` results hold them sorted by path_id.

    The standard error combines target and ensemble shot noise with the
    bootstrap variance of the eta estimator over the prefix, propagated
    through residual / eta.  A prefix whose eta is 0 or not finite cannot
    rescale: its row reports eta, boosted and std_error as None.
    """
    if sizes is None:
        sizes = range(1, len(records) + 1)
    # each prefix resamples from a fresh generator of seed and sums slices
    entropy = np.random.SeedSequence(seed)
    etas = np.array([r.eta for r in records])
    classical = [r.path.coeff * r.ideal for r in records]
    noisy = [r.path.coeff * r.noisy.mean for r in records]
    shots = [(r.path.coeff * r.noisy.std_error) ** 2 for r in records]
    series = []
    for size in sizes:
        if not 1 <= size <= len(records):
            raise ValueError(f"prefix size {size} out of range")
        prefix = list(records[:size])
        row = {"size": size, "boosted": None, "std_error": None, "eta": None,
               "classical_part": math.fsum(classical[:size]),
               "residual": target_noisy.mean - math.fsum(noisy[:size])}
        series.append(row)
        try:
            eta = _eta_or_median(prefix, eta_method)[1]
        except DegenerateEtaError:
            continue
        eta_var = _eta_variance(prefix, etas[:size], eta_method,
                                bootstrap_resamples,
                                np.random.default_rng(entropy))
        # quepp_estimate's boosted value and shot error, by its expressions
        shot_error = math.sqrt(target_noisy.std_error ** 2
                               + math.fsum(shots[:size])) / abs(eta)
        row.update(boosted=row["classical_part"] + row["residual"] / eta,
                   eta=eta, std_error=math.sqrt(shot_error ** 2 + (
                       row["residual"] / eta ** 2) ** 2 * eta_var))
    return series
