"""Stochastic path sampling: acceptance, dedup, and distribution law."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from quepp import sampler
from quepp._walk import compile_walk, path_of
from quepp.circuits import Circuit, PauliRotation, normalize_rotations
from quepp.engine import TruncationPolicy, _make_path, enumerate_paths
from quepp.pauli import (CliffordGate, PauliString,
                         expectation_on_stabilizer_input)
from quepp.sampler import (D_POSTSELECTED, D_TILDE, SamplerConfig,
                           _uniforms, _walks, build_ensemble)

from helpers import random_circuit, wide_pauli
from oracles import (compiled_start, empirical_distribution_check,
                     walk_once_oracle)

THETA = 0.3


def draw_path(circuit, observable, rng, distribution=D_TILDE):
    """One walk of the sampler's core from ``rng``: (path, accepted), or
    (None, False) when the post-selection variant aborts."""
    steps, start = compile_walk(circuit, observable)
    walk = next(_walks(steps, start, rng.random,
                       distribution == D_POSTSELECTED))
    if walk is None:
        return None, False
    path = _make_path(*path_of(steps, start, walk[0]), circuit)
    assert path.ideal_expectation == expectation_on_stabilizer_input(
        path.frame, circuit.input_kind)
    return path, path.ideal_expectation != 0


def plus_state_circuit():
    # one anticommuting rotation; the sine branch lands on a frame with
    # zero expectation on |+>, so only the cosine path is ever accepted
    return Circuit(1, (CliffordGate("h", (0,)),
                       PauliRotation(PauliString(1, 1, 0), THETA)),
                   input_kind="all_plus")


def branching_circuit():
    # reverse walk: three guaranteed branch points (X rotations against a
    # Z/Y frame), then a final rotation that is a passthrough for half the
    # frames and a branch for the other half; 12 leaves in total
    ops = (PauliRotation(PauliString.from_label("Z"), 0.5),
           PauliRotation(PauliString.from_label("X"), 0.7),
           PauliRotation(PauliString.from_label("X"), 0.7),
           PauliRotation(PauliString.from_label("X"), 0.7))
    return Circuit(1, ops)


class CountedDraws:
    """A seeded ``_uniforms`` stream that counts the uniforms taken."""

    def __init__(self, seed):
        self.taken = 0
        self._next = _uniforms(seed).__next__

    def __call__(self):
        self.taken += 1
        return self._next()


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_uniform_stream_matches_one_generator_call(seed):
    # 3,000 values cross two of the stream's 1024-value block edges
    got = list(itertools.islice(_uniforms(seed), 3000))
    want = np.random.default_rng(np.random.SeedSequence(seed)).random(3000)
    assert got == want.tolist()


@pytest.mark.parametrize("distribution", [D_TILDE, D_POSTSELECTED])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65, 70])
def test_mask_walk_matches_the_per_rotation_oracle(n, distribution):
    # the walks that jump between anticommuting rotations must take the
    # oracle's every draw, walk by walk, from the same stream, and no draw
    # of a walk before it is asked for
    rng = np.random.default_rng(600 + n)
    postselect = distribution == D_POSTSELECTED
    branched = skipped = 0
    for trial in range(3):
        c = normalize_rotations(random_circuit(
            n, 40, 16, rng, rotation_weight=1 + trial))
        obs = wide_pauli(n, rng)
        steps, start = compile_walk(c, obs)
        rotations, oracle_start = compiled_start(c, obs)
        assert start[:3] == oracle_start
        draws, oracle_draws = CountedDraws(n + trial), CountedDraws(n + trial)
        walks = _walks(steps, start, draws, postselect)
        for _ in range(60):
            walk = next(walks)
            want = walk_once_oracle(rotations, *oracle_start, oracle_draws,
                                    postselect)
            assert draws.taken == oracle_draws.taken
            if want is None:
                assert walk is None
                continue
            codes, x, z, sign, coeff, order = want
            got = path_of(steps, start, walk[0])
            assert walk[1:] == got[1:3]
            assert got == (codes, x, z, sign, coeff, order)
            assert repr(got[4]) == repr(coeff)
            branched += len(codes) - codes.count("p")
            skipped += codes.count("p")
    assert branched and skipped


def test_acceptance_rate_tracks_cos_weight():
    c = plus_state_circuit()
    obs = PauliString.from_label("Z")
    rng = np.random.default_rng(40)
    draws = 20000
    hits = 0
    for _ in range(draws):
        path, accepted = draw_path(c, obs, rng)
        assert path is not None
        hits += accepted
    p = abs(math.cos(THETA)) / (abs(math.cos(THETA)) + abs(math.sin(THETA)))
    se = math.sqrt(p * (1 - p) / draws)
    assert hits / draws == pytest.approx(p, abs=5 * se)


def test_sampled_paths_agree_with_enumeration():
    c = branching_circuit()
    obs = PauliString.from_label("Z")
    policy = TruncationPolicy.order(c.num_rotations)
    by_id = {p.path_id: p
             for p in enumerate_paths(c, obs, policy)}
    assert len(by_id) == 12
    rng = np.random.default_rng(41)
    for _ in range(50):
        path, _ = draw_path(c, obs, rng)
        want = by_id[path.path_id]
        assert path.frame == want.frame
        assert path.codes == want.codes
        assert path.ideal_expectation == want.ideal_expectation
        assert path.coeff == pytest.approx(want.coeff, abs=1e-14)
        assert path.order == want.order


def test_postselection_aborts_at_commuting_rotations():
    c = Circuit(1, (PauliRotation(PauliString.from_label("Z"), 0.5),))
    obs = PauliString.from_label("Z")
    rng = np.random.default_rng(42)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        path, accepted = draw_path(c, obs, rng, distribution=D_POSTSELECTED)
        outcomes[path is None] += 1
        if path is not None:
            assert accepted
            assert path.codes == "p"
    assert outcomes[True] > 0 and outcomes[False] > 0


def test_sample_path_rejects_unknown_distribution():
    c = plus_state_circuit()
    with pytest.raises(ValueError):
        empirical_distribution_check(c, PauliString.from_label("Z"), 10,
                                     distribution="exact")


@pytest.mark.parametrize("distribution", [D_TILDE, D_POSTSELECTED])
def test_empirical_distribution_matches_analytic_law(distribution):
    c = branching_circuit()
    obs = PauliString.from_label("Z")
    check = empirical_distribution_check(c, obs, 100000,
                                         distribution=distribution,
                                         rng_seed=7)
    assert check.num_paths == 12
    assert sum(check.observed) == check.num_draws == 100000
    assert sum(check.expected) == pytest.approx(100000, abs=1e-6)
    assert check.p_value > 0.01
    if distribution == D_TILDE:
        assert check.aborted == 0
    else:
        assert check.aborted > 0


def test_ensemble_dedupes_and_reports():
    c = plus_state_circuit()
    obs = PauliString.from_label("Z")
    config = SamplerConfig(target_unique_paths=2, max_attempts=200,
                           rng_seed=5)
    paths, report = build_ensemble(c, obs, config)
    # the only nonzero-expectation path is the cosine branch, so the
    # unique target can never be met
    assert len(paths) == 1
    assert paths[0].codes == "c"
    assert report.unique == 1
    assert report.saturated
    assert report.attempts == 200
    assert report.zero_expectation > 0
    assert report.attempts == (report.accepted + report.aborted
                               + report.zero_expectation)


def test_zero_expectation_walks_build_no_path(monkeypatch):
    c = plus_state_circuit()
    obs = PauliString.from_label("Z")
    built = []

    def spy(*args):
        built.append(args[0])
        return _make_path(*args)

    monkeypatch.setattr(sampler, "_make_path", spy)
    paths, report = build_ensemble(
        c, obs, SamplerConfig(target_unique_paths=2, max_attempts=200,
                              rng_seed=5))
    assert report.zero_expectation > 0
    # one path per unique nonzero-expectation walk, none for the others
    assert built == [p.codes for p in paths] == ["c"]


def test_ensemble_saturates_on_single_path_circuit():
    c = Circuit(1, (CliffordGate("h", (0,)),))
    obs = PauliString.from_label("X")
    config = SamplerConfig(target_unique_paths=5, max_attempts=50)
    paths, report = build_ensemble(c, obs, config)
    assert len(paths) == 1
    assert paths[0].ideal_expectation == 1
    assert report.unique == 1
    assert report.accepted == 50
    assert report.saturated


def test_ensemble_is_deterministic():
    c = branching_circuit()
    obs = PauliString.from_label("Z")
    config = SamplerConfig(target_unique_paths=10, max_attempts=500,
                           rng_seed=11)
    first, report_a = build_ensemble(c, obs, config)
    second, report_b = build_ensemble(c, obs, config)
    assert [p.path_id for p in first] == [p.path_id for p in second]
    assert report_a == report_b


def test_ensemble_meets_target_when_reachable():
    c = branching_circuit()
    obs = PauliString.from_label("Z")
    config = SamplerConfig(target_unique_paths=4, max_attempts=5000,
                           rng_seed=3)
    paths, report = build_ensemble(c, obs, config)
    assert len(paths) == 4
    assert not report.saturated
    assert len({p.path_id for p in paths}) == 4
    assert all(p.ideal_expectation != 0 for p in paths)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(target_unique_paths=0, max_attempts=10)
    with pytest.raises(ValueError):
        SamplerConfig(target_unique_paths=10, max_attempts=5)
    with pytest.raises(ValueError):
        SamplerConfig(target_unique_paths=1, max_attempts=1,
                      distribution="uniform")


def test_report_json_shape():
    c = plus_state_circuit()
    obs = PauliString.from_label("Z")
    _, report = build_ensemble(c, obs, SamplerConfig(1, 10))
    data = report.to_json_dict()
    assert set(data) == {"attempts", "accepted", "unique", "aborted",
                         "zero_expectation", "saturated"}


def clifford_rich_circuit():
    # over a hundred Cliffords of all ten kinds around 12 rotations of
    # weight <= 2
    return normalize_rotations(random_circuit(
        3, 90, 12, np.random.default_rng(1), rotation_weight=2))


# Draw streams recorded from the op-by-op walker that pushing the Cliffords
# into the generators replaced; every draw must stay where it was.
PINNED_ENSEMBLES = {
    D_TILDE: (["a4e8b01938977b5a", "31f13f124aa6fa65", "3771f0141bbb5453",
               "0ea38f8f9c55d3fa"], (400, 47, 4, 0, 353)),
    D_POSTSELECTED: (["a4e8b01938977b5a", "3771f0141bbb5453",
                      "31f13f124aa6fa65", "0ea38f8f9c55d3fa",
                      "8f5cb846f2b9d35d"], (400, 18, 5, 248, 134)),
}
PINNED_DRAWS = {D_TILDE: "6328dcf7cde87630", D_POSTSELECTED: "487e571ea1939e4b"}


@pytest.mark.parametrize("distribution", [D_TILDE, D_POSTSELECTED])
def test_seeded_streams_are_pinned(distribution):
    c = clifford_rich_circuit()
    obs = PauliString.from_label("-ZIY")
    paths, report = build_ensemble(c, obs, SamplerConfig(
        12, 400, distribution, rng_seed=17))
    ids, counts = PINNED_ENSEMBLES[distribution]
    assert [p.path_id for p in paths] == ids
    assert (report.attempts, report.accepted, report.unique, report.aborted,
            report.zero_expectation) == counts
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(200):
        path, _ = draw_path(c, obs, rng, distribution=distribution)
        draws.append("-" if path is None
                     else f"{path.codes}:{path.coeff!r}:{path.frame}")
    digest = hashlib.sha256(";".join(draws).encode()).hexdigest()[:16]
    assert digest == PINNED_DRAWS[distribution]
