"""Monte Carlo path sampling for ensembles too large to enumerate.

The walk mirrors the depth-first enumeration, but at every anticommuting
rotation a coin decides the branch: cosine with probability
|cos t| / (|cos t| + |sin t|), sine otherwise.  Every walk completes, so the
sampled distribution (call it the greedy distribution) is slightly biased
toward paths with fewer branch points relative to weights proportional to
|g|; the bias is a factor of at most sqrt(2) per commuting point.  The
post-selection variant removes the bias by continuing through each commuting
rotation only with probability 1 / (|cos t| + |sin t|), which makes the
completion probability of any path exactly |g| times a path-independent
constant.

Like the enumerator, a walk jumps from one anticommuting rotation to the
next on masks compiled once per circuit (``_walk.compile_walk``), and
draws the coins a walk testing every rotation would, in its order.
``_walk_once`` is the one walk: ``build_ensemble`` drives it from one
uniform stream, and the tests check the law of its draws against the
analytic distribution with a chi-square test of their own.

Ensembles are built by drawing until the target number of unique paths is
reached, deduplicating on path identity; exhausting the attempt budget first
is a normal outcome in rare-path regimes and is reported, not raised.
Callers that need the full target raise it with ``require_complete``.
"""

from dataclasses import asdict, dataclass

import numpy as np

from ._walk import compile_walk, sin_branch_bits
from .circuits import Circuit
from .engine import PauliPath, _C, _S, _check_enumerable, _make_path
from .errors import EnumerationLimitError
from .pauli import PauliString, _input_expectation

__all__ = [
    "SamplerConfig",
    "SamplingReport",
    "build_ensemble",
    "require_complete",
    "D_TILDE",
    "D_POSTSELECTED",
]

D_TILDE = "d_tilde"
D_POSTSELECTED = "d_postselected"
_DISTRIBUTIONS = (D_TILDE, D_POSTSELECTED)


@dataclass(frozen=True)
class SamplerConfig:
    target_unique_paths: int
    max_attempts: int
    distribution: str = D_TILDE
    rng_seed: int = 0

    def __post_init__(self):
        if self.target_unique_paths < 1:
            raise ValueError("target_unique_paths must be >= 1")
        if self.max_attempts < self.target_unique_paths:
            raise ValueError("max_attempts must be >= target_unique_paths")
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


@dataclass(frozen=True)
class SamplingReport:
    """Outcome counters for one ensemble build.

    attempts == accepted + aborted + zero_expectation; unique counts the
    distinct paths kept.  ``saturated`` is set when the attempt budget ran
    out before the unique target was met.
    """

    attempts: int
    accepted: int
    unique: int
    aborted: int
    zero_expectation: int
    saturated: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def _uniforms(seed: int):
    """The uniforms of one seeded stream, drawn 1024 at a time as Python
    floats: much cheaper than one Generator.random() call per coin, and a
    block's size changes none of them."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    while True:
        yield from rng.random(1024).tolist()


def _walk_once(steps, x, z, sign, anti, draw, postselect):
    """One stochastic reverse walk over ``compile_walk`` steps, from its
    starting frame and mask; ``draw()`` gives each coin's uniform, and the
    post-selection variant still draws one at each commuting rotation.
    Returns (codes, x, z, sign, coeff, order) for a completed walk, or None
    if the post-selection variant aborted at a commuting rotation.
    """
    coeff, order = 1.0, 0
    codes = bytearray(b"p" * len(steps))
    # codes run forward, so rotation j is codes[~j]; a sentinel past the
    # last rotation ends the walk; post-selection coins from pos are due
    anti |= 1 << len(steps)
    pos = 0
    while True:
        low = anti & -anti
        anti ^= low
        j = low.bit_length() - 1
        if postselect and any(draw() >= keep for *_, keep, _ in steps[pos:j]):
            return None
        pos = j + 1
        if not anti:
            return codes.decode(), x, z, sign, coeff, order
        gx, gz, gsign, cos_t, sin_t, cos_p, _, flips = steps[j]
        if draw() < cos_p:
            coeff *= cos_t
            codes[~j] = _C
        else:
            x, z, sign = sin_branch_bits(gx, gz, x, z, sign * gsign)
            coeff *= sin_t
            order += 1
            codes[~j] = _S
            anti ^= flips


def build_ensemble(circuit: Circuit, observable: PauliString,
                   config: SamplerConfig) -> tuple[list[PauliPath], SamplingReport]:
    """Sample until ``target_unique_paths`` distinct accepted paths or budget.

    The returned list is in discovery order; ``run_quepp`` sorts its records
    by path_id, so the CLI's convergence series runs over path_id-order
    prefixes.  Duplicates of an already present path count as accepted
    attempts but add nothing.
    """
    _check_enumerable(circuit, observable)
    steps, start = compile_walk(circuit, observable)
    draw = _uniforms(config.rng_seed).__next__
    postselect = config.distribution == D_POSTSELECTED

    found: dict[str, PauliPath] = {}
    attempts = accepted = aborted = zero_expectation = 0
    while attempts < config.max_attempts and len(found) < config.target_unique_paths:
        attempts += 1
        result = _walk_once(steps, *start, draw, postselect)
        if result is None:
            aborted += 1
            continue
        codes, x, z, sign, coeff, order = result
        if codes in found:
            accepted += 1
            continue
        ideal = _input_expectation(x, z, sign, circuit.input_kind)
        if ideal == 0:
            zero_expectation += 1
            continue
        accepted += 1
        found[codes] = _make_path(codes,
                                  PauliString(circuit.num_qubits, x, z, sign),
                                  ideal, coeff, order)
    report = SamplingReport(
        attempts=attempts,
        accepted=accepted,
        unique=len(found),
        aborted=aborted,
        zero_expectation=zero_expectation,
        saturated=len(found) < config.target_unique_paths,
    )
    return list(found.values()), report


def require_complete(report: SamplingReport, config: SamplerConfig,
                     allow_partial: bool) -> None:
    """Raise :class:`EnumerationLimitError` for a saturated ensemble unless
    the caller keeps partial ensembles."""
    if report.saturated and not allow_partial:
        raise EnumerationLimitError(
            f"sampler found {report.unique} of {config.target_unique_paths} "
            f"paths in {report.attempts} attempts; pass --allow-partial "
            "(allow_partial=True) to keep the partial ensemble")
