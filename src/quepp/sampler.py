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
``_walks`` is the one walk loop: a generator per ensemble whose draws, taken
only when a walk is asked for, are those one walk per call took.  Both
``build_ensemble`` and the tests' chi-square check of its law drive it.  A walk
carries its unsigned frame bits only and names its path by the bits of its
sine rotations; ``_walk.path_of`` replays only the paths kept.

Ensembles are built by drawing until the target number of unique paths is
reached, deduplicating on those bits; exhausting the attempt budget first
is a normal outcome in rare-path regimes and is reported, not raised.
Callers that need the full target raise it with ``require_complete``.
"""

from dataclasses import asdict, dataclass
from itertools import chain
from operator import le

import numpy as np

from ._walk import path_of
from .circuits import Circuit
from .engine import PauliPath, _compile, _make_path
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
    """The uniforms of one seeded stream as Python floats, drawn 1024 at a
    time and chained at C level: much cheaper than one Generator.random()
    call per coin, and the same values as one call of any length."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return chain.from_iterable(iter(lambda: rng.random(1024).tolist(), None))


def _walks(steps, start, draw, postselect):
    """Stochastic reverse walks over ``compile_walk`` steps from ``start``,
    one per ``next()`` and drawing only then, each carrying the unsigned
    frame bits and mask only; ``draw()`` gives each coin's uniform, and the
    post-selection variant still draws one at each commuting rotation.
    Yields (sines, x, z), the walk-order bits of the sine rotations taken
    and the final frame's bits, or None for an aborted post-selected walk;
    ``_walk.path_of`` rebuilds the rest."""
    # the coin law: cosine below |cos| / w, and a post-selected walk goes on
    # past a commuting rotation below 1 / w, for w = |cos| + |sin|
    weights = [abs(c) + abs(s) for _, _, _, c, s, _ in steps]
    table = [(gx, gz, abs(c) / w, flips)
             for (gx, gz, _, c, _, flips), w in zip(steps, weights)]
    keep, coins = tuple(1.0 / w for w in weights), iter(draw, None)
    x0, z0, _, anti0 = start
    while True:
        x, z, anti, sines, pos = x0, z0, anti0, 0, 0
        while anti:
            low = anti & -anti
            anti ^= low
            j = low.bit_length() - 1
            # post-selection coins from pos are due, up to an abort; map reads
            # keep first, so it draws no coin past the slice
            if postselect:
                if pos < j and any(map(le, keep[pos:j], coins)):
                    break
                pos = j + 1
            gx, gz, cos_p, flips = table[j]
            if draw() >= cos_p:
                x ^= gx
                z ^= gz
                anti ^= flips
                sines |= low
        else:
            if not (postselect and any(map(le, keep[pos:], coins))):
                yield sines, x, z
                continue
        yield None


def build_ensemble(circuit: Circuit, observable: PauliString,
                   config: SamplerConfig) -> tuple[list[PauliPath], SamplingReport]:
    """Sample until ``target_unique_paths`` distinct accepted paths or budget.

    The returned list is in discovery order; ``run_quepp`` sorts its records
    by path_id, so the CLI's convergence series runs over path_id-order
    prefixes.  Duplicates of an already present path count as accepted
    attempts but add nothing.  Only new nonzero paths are replayed.
    """
    steps, start = _compile(circuit, observable)
    walks = _walks(steps, start, _uniforms(config.rng_seed).__next__,
                   config.distribution == D_POSTSELECTED)

    found: dict[int, PauliPath] = {}
    attempts = accepted = aborted = zero_expectation = 0
    while attempts < config.max_attempts and len(found) < config.target_unique_paths:
        attempts += 1
        walk = next(walks)
        if walk is None:
            aborted += 1
            continue
        sines, x, z = walk
        if sines in found:
            accepted += 1
            continue
        # the unsigned final bits tell a zero expectation, whatever the sign
        if not _input_expectation(x, z, 1, circuit.input_kind):
            zero_expectation += 1
            continue
        accepted += 1
        found[sines] = _make_path(*path_of(steps, start, sines), circuit)
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
