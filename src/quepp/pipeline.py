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
inputs; the quantum side is behind the Backend interface.  A record derives
its ideal and eta; ``_columns`` lists the records' etas and g*ideal, and
``_eta_rows``, the one eta rule, runs each estimator on rows of their picks:
the one row of ``choose_eta``, the one public picker, and of the result's
eta candidates; each prefix and its resamples in the convergence series.
``quepp_estimate`` derives every other value of a result, and its bounds.
"""

import contextlib
import math
from dataclasses import asdict, dataclass, field
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
    """One executed path and its noisy estimate, with the path's +-1 ideal
    expectation and the rescaling factor eta = noisy mean / ideal."""

    path: PauliPath
    noisy: NoisyEstimate
    ideal: int = field(init=False)
    eta: float = field(init=False)

    def __post_init__(self):
        ideal = self.path.ideal_expectation
        if ideal not in (-1, 1):
            raise ValueError(f"path {self.path.path_id} has ideal expectation "
                             f"{ideal}; only +-1-ideal paths are executed")
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "eta", self.noisy.mean / ideal)


def make_record(path: PauliPath, noisy: NoisyEstimate) -> EnsembleRecord:
    return EnsembleRecord(path, noisy)


@dataclass(frozen=True)
class EtaChoice:
    method: str
    value: float

    def __post_init__(self):
        if self.value == 0.0 or not math.isfinite(self.value):
            raise ValueError("rescaling factor must be finite and nonzero")


def _etas(records: Sequence[EnsembleRecord]) -> list[float]:
    """The records' etas, in order; every estimator refuses no records."""
    if not records:
        raise ValueError("no records")
    return [r.eta for r in records]


def _sorted_rows(picks: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Each row of ``etas[picks]`` in ``sorted``'s order: ties of 0.0 and
    -0.0, the only equal values with other bits, need a stable sort."""
    signs = np.signbit(etas[etas == 0.0])
    stable = signs.size and signs.any() and not signs.all()
    return np.sort(etas[picks], axis=1, kind="stable" if stable else None)


def _fsums(rows: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row: correctly rounded, so in any order."""
    return np.array([math.fsum(row) for row in rows.tolist()])


def _median_rows(picks, etas, g_ideal) -> np.ndarray:
    """The median of each row, the midpoint of its middle two at an even
    count (``np.median`` imports ``numpy.ma``)."""
    rows, half = _sorted_rows(picks, etas), picks.shape[1] // 2
    if picks.shape[1] % 2:
        return rows[:, half]
    return (rows[:, half - 1] + rows[:, half]) / 2


def _weighted_average_rows(picks, etas, g_ideal) -> np.ndarray:
    """sum(g eta ideal) / sum(g ideal) of each row, which zeroes the measured
    bias; nan where the denominator, the classical part, vanishes."""
    g = g_ideal[picks]
    num, den, scale = _fsums(g * etas[picks]), _fsums(g), _fsums(np.abs(g))
    degenerate = (den == 0.0) | (np.abs(den) < 1e-12 * scale)
    return num / np.where(degenerate, np.nan, den)


def _balance_rows(picks, etas, g_ideal) -> np.ndarray:
    """The value v of each row that best balances its eta mass, the least
    |sum(eta < v) - sum(eta >= v)| by one scan of the sorted row; ties go to
    the larger v, the safer side: it rescales by less than the noise."""
    values = _sorted_rows(picks, etas)
    # below[:, j] adds 0.0 and values[:, :j] one at a time, left to right
    below = np.cumsum(np.hstack((np.zeros((len(values), 1)),
                                 values[:, :-1])), axis=1)
    imbalance = np.abs(below - (_fsums(values)[:, None] - below))
    # a duplicate sits on the >= side of the first of its run: no candidate
    imbalance[:, 1:][values[:, 1:] == values[:, :-1]] = np.inf
    # argmin takes the first of the least, so it scans the rows reversed
    last = values.shape[1] - 1 - np.argmin(imbalance[:, ::-1], axis=1)
    return values[np.arange(len(values)), last]


_ROW_ESTIMATORS = {"median": _median_rows,
                   "weighted_average": _weighted_average_rows,
                   "balance": _balance_rows}
ETA_METHODS = tuple(_ROW_ESTIMATORS)


def _eta_rows(method: str, picks: np.ndarray, etas: np.ndarray,
              g_ideal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one eta rule on each row of ``picks``, indices into the records'
    etas and g*ideal: the estimator's eta, or the median's on the rows where
    the weighted average is degenerate (nan); and the mask of those rows."""
    if method not in ETA_METHODS:
        raise ValueError(f"unknown eta method {method!r}")
    values = _ROW_ESTIMATORS[method](picks, etas, g_ideal)
    fell_back = np.isnan(values)
    if fell_back.any():
        values[fell_back] = _median_rows(picks[fell_back], etas, g_ideal)
    return values, fell_back


def _columns(records) -> tuple[np.ndarray, np.ndarray]:
    """The records' etas and g*ideal, in order: what ``_eta_rows`` reads."""
    return (np.array([r.eta for r in records]),
            np.array([r.path.coeff * r.ideal for r in records]))


def _eta_row(method: str, etas, g_ideal) -> tuple[float, bool]:
    """``_eta_rows`` on the one row that picks each record once."""
    if not etas.size:
        raise ValueError("no records")
    values, fell_back = _eta_rows(method, np.arange(len(etas))[None], etas,
                                  g_ideal)
    return float(values[0]), bool(fell_back[0])


def eta_bar(records: Sequence[EnsembleRecord]) -> float:
    return math.fsum(_etas(records)) / len(records)


def eta_star(records: Sequence[EnsembleRecord], eta: float) -> float:
    """The sample eta maximizing |1 - eta_i/eta| (worst attenuation spread)."""
    return max(_etas(records), key=lambda e: abs(1.0 - e / eta))


def eta_prime(records: Sequence[EnsembleRecord], eta: float) -> float:
    """The sample eta maximizing |1 - eta/eta_i|; 0 in the sample wins."""
    return max(_etas(records),
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
            # what was measured; ``noiseless`` is the command's ``ideal``
            "noisy_target": {key: getattr(self.noisy_target, key) for key
                             in ("mean", "std_error", "total_shots")},
            "noisy_ensemble_part": self.noisy_ensemble_part,
            "residual": self.residual,
            "eta": asdict(self.eta),
            "eta_candidates": dict(self.eta_candidates),
            "boosted": self.boosted,
            "boosted_std_error": self.boosted_std_error,
            "gamma": self.variance.gamma,
            "p_kt": self.variance.p_kt,
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
                   eta: EtaChoice, *,
                   p_kt: Optional[float] = None,
                   k_total: Optional[int] = None,
                   k_t: Optional[int] = None,
                   theta_star: Optional[float] = None,
                   sampling_report: Optional[SamplingReport] = None) -> QueppResult:
    """Assemble the boosted estimate and its bounds from executed records.

    The classical part (``classical_cpt_estimate`` of the records' paths)
    and the eta candidates (each method's eta, ``None`` for a degenerate
    weighted average, none without records) are derived here.  The
    combinatorial bias bound needs the circuit context (k_total, k_t,
    theta_star) and is omitted when not given.
    """
    ordered = sorted(records, key=lambda r: r.path.path_id)
    classical_part = classical_cpt_estimate(r.path for r in ordered)
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

    bias_sp, candidates = None, {}
    if records:
        columns = _columns(records)
        for method in ETA_METHODS:
            value, fell_back = _eta_row(method, *columns)
            candidates[method] = None if fell_back else value
        delta_kt_m = classical_part - noisy_ensemble_part / eta.value
        mitigated_target = target_noisy.mean / eta.value
        with contextlib.suppress(DegenerateEtaError):
            bias_sp = bias_bound_eta(mitigated_target, eta.value,
                                     eta_prime(ordered, eta.value),
                                     eta_bar(ordered), delta_kt_m)

    return QueppResult(
        classical_part=classical_part,
        noisy_target=target_noisy,
        noisy_ensemble_part=noisy_ensemble_part,
        residual=residual,
        eta=eta,
        boosted=boosted,
        boosted_std_error=boosted_std_error,
        variance=variance,
        bias_combinatorial=bias_comb,
        bias_eta=bias_sp,
        eta_candidates=candidates,
        records=tuple(ordered),
        sampling_report=sampling_report,
    )


def choose_eta(records: Sequence[EnsembleRecord], method: str) -> EtaChoice:
    """The one public picker of the rescaling factor, ``_eta_rows`` on the
    records' one row: the requested estimator's eta (``_median_rows``,
    ``_weighted_average_rows`` or ``_balance_rows``), or the median's when
    the weighted average is degenerate.  Raises DegenerateEtaError, naming
    the method, when that eta is 0 or not finite: it cannot rescale."""
    value, fell_back = _eta_row(method, *_columns(records))
    method = "median" if fell_back else method
    if value == 0.0 or not math.isfinite(value):
        raise DegenerateEtaError(f"the {method} rescaling factor eta is "
                                 f"{value}; it cannot rescale the target")
    return EtaChoice(method, value)


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

    items = [(normalized, observable)]
    items.extend((path_to_circuit(normalized, p.codes), observable)
                 for p in executed)
    estimates = backend.submit_batch(items, plan)
    target_noisy = estimates[0]
    records = [make_record(p, est) for p, est in zip(executed, estimates[1:])]

    # Exact coverage with no reference circuit: nothing is omitted, so the
    # residual has zero expectation under any rescaling.  Keep it
    # unrescaled instead of refusing the run.
    eta = choose_eta(records, eta_method) if records \
        else EtaChoice(method="unit", value=1.0)
    theta_star = max((abs(op.angle) for _, _, op in normalized.rotations()),
                     default=0.0)
    return quepp_estimate(
        records, target_noisy, eta,
        p_kt=p_kt,
        k_total=normalized.num_rotations,
        k_t=k_t,
        theta_star=theta_star,
        sampling_report=report,
    )


def _bootstrap_variance(values: np.ndarray) -> float:
    """Sample variance of the etas that can rescale; 0.0 below two."""
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

    One ``_eta_rows`` call takes the etas of a prefix and its resamples;
    the standard error adds the resamples' variance, through residual / eta,
    to the target and ensemble shot noise.  A prefix whose eta is 0 or not
    finite cannot rescale: its row reports eta, boosted and std_error None.
    """
    if sizes is None:
        sizes = range(1, len(records) + 1)
    entropy = np.random.SeedSequence(seed)
    etas, g_ideal = _columns(records)
    classical = g_ideal.tolist()
    noisy = [r.path.coeff * r.noisy.mean for r in records]
    shots = [(r.path.coeff * r.noisy.std_error) ** 2 for r in records]
    series = []
    for size in sizes:
        if not 1 <= size <= len(records):
            raise ValueError(f"prefix size {size} out of range")
        row = {"size": size, "boosted": None, "std_error": None, "eta": None,
               "classical_part": math.fsum(classical[:size]),
               "residual": target_noisy.mean - math.fsum(noisy[:size])}
        series.append(row)
        # row 0 is the prefix, then its resamples from a fresh rng of seed
        picks = np.concatenate((np.arange(size)[None], np.random.default_rng(
            entropy).integers(0, size, size=(bootstrap_resamples, size))))
        values, _ = _eta_rows(eta_method, picks, etas[:size], g_ideal[:size])
        eta = float(values[0])
        if eta == 0.0 or not math.isfinite(eta):
            continue
        eta_var = _bootstrap_variance(values[1:])
        # quepp_estimate's boosted value and shot error, by its expressions
        shot_error = math.sqrt(target_noisy.std_error ** 2
                               + math.fsum(shots[:size])) / abs(eta)
        row.update(boosted=row["classical_part"] + row["residual"] / eta,
                   eta=eta, std_error=math.sqrt(shot_error ** 2 + (
                       row["residual"] / eta ** 2) ** 2 * eta_var))
    return series
