"""Path enumeration, truncation, and the merged breadth-first sum."""

import collections
import math
import tracemalloc

import numpy as np
import pytest

import quepp._walk
import quepp.statevector as sv
from quepp.backend import ExecutionPlan, NoiseModel, TrajectorySimulator
from quepp.circuits import Circuit, PauliRotation, normalize_rotations
from quepp.engine import (PauliPath, TruncationPolicy, _walk_paths,
                          classical_cpt_estimate,
                          coefficient_power, enumerate_paths_parallel,
                          merged_bfs_cpt, path_record, path_to_circuit)
from quepp.errors import ConsistencyError
from quepp.experiments import ExperimentSpec, generate_experiment
from quepp.pauli import CliffordGate, PauliString
from quepp._walk import (compile_circuit, compile_walk, path_of,
                         sin_branch_bits, tableau_image)

from helpers import (random_circuit, single_site_observable, submit_one,
                     walked_groups, wide_pauli)
from oracles import (full_ranking_budgets, merged_bfs_oracle, paths_oracle,
                     walk_paths_oracle)


def untruncated(circuit):
    return TruncationPolicy.order(circuit.num_rotations)


def enumerate_all(circuit, observable):
    return list(paths_oracle(circuit, observable, untruncated(circuit)))


def executed_all(circuit, observable):
    """The package's untruncated executed paths."""
    return enumerate_paths_parallel(circuit, observable,
                                    untruncated(circuit)).executed


def test_untruncated_sum_matches_statevector():
    rng = np.random.default_rng(21)
    for trial in range(25):
        n = int(rng.integers(2, 7))
        kind = "all_plus" if trial % 3 == 0 else "all_zero"
        c = random_circuit(n, 12, int(rng.integers(1, 7)), rng, input_kind=kind)
        obs = single_site_observable(n, rng)
        norm = normalize_rotations(c)
        paths = executed_all(norm, obs)
        estimate = classical_cpt_estimate(paths)
        assert estimate == pytest.approx(sv.expectation(c, obs), abs=1e-10)


def test_coefficient_power_sums_to_one():
    rng = np.random.default_rng(22)
    for _ in range(15):
        n = int(rng.integers(2, 5))
        c = normalize_rotations(random_circuit(n, 10, 4, rng))
        obs = single_site_observable(n, rng)
        paths = enumerate_all(c, obs)
        assert coefficient_power(paths) == pytest.approx(1.0, abs=1e-12)


def test_cos_branch_emitted_first():
    c = Circuit(1, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString(1, 1, 0), 0.3)))
    steps, start = compile_walk(c, PauliString.from_label("Z"))
    paths = [path_of(steps, start, sines)
             for sines, *_ in _walk_paths(steps, start, untruncated(c))]
    assert paths[0][0] == "c"
    assert paths[1][0] == "s"


def test_order_truncation_prunes_by_sin_count():
    rng = np.random.default_rng(23)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    for k_t in range(c.num_rotations + 1):
        paths = list(paths_oracle(c, obs, TruncationPolicy.order(k_t)))
        assert all(p.order <= k_t for p in paths)
    full = {p.path_id for p in enumerate_all(c, obs)}
    truncated = {p.path_id
                 for p in paths_oracle(c, obs, TruncationPolicy.order(1))}
    assert truncated <= full


def test_coefficient_truncation_prunes_by_magnitude():
    rng = np.random.default_rng(24)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    eps = 0.05
    paths = list(paths_oracle(c, obs, TruncationPolicy(min_coefficient=eps)))
    assert all(abs(p.coeff) >= eps for p in paths)
    full = enumerate_all(c, obs)
    want = {p.path_id for p in full if abs(p.coeff) >= eps}
    assert {p.path_id for p in paths} == want


def test_hybrid_policy_applies_both():
    rng = np.random.default_rng(25)
    c = normalize_rotations(random_circuit(3, 12, 6, rng))
    obs = single_site_observable(3, rng)
    policy = TruncationPolicy(2, 0.05)
    paths = list(paths_oracle(c, obs, policy))
    assert all(p.order <= 2 and abs(p.coeff) >= 0.05
               for p in paths)


def test_policy_validation():
    with pytest.raises(ValueError):
        TruncationPolicy(max_order=None, min_coefficient=0.0)
    # a NaN floor is neither < 0 nor <= 0; every policy must refuse it
    for policy in (lambda: TruncationPolicy(2, math.nan),
                   lambda: TruncationPolicy(min_coefficient=math.nan)):
        with pytest.raises(ValueError):
            policy()
    with pytest.raises(ValueError):
        TruncationPolicy.order(-1)
    with pytest.raises(ValueError):
        TruncationPolicy(min_coefficient=0.0)
    assert TruncationPolicy.order(3).mode == "order"
    assert TruncationPolicy(min_coefficient=1e-3).mode == "coefficient"
    assert TruncationPolicy(3, 1e-3).mode == "hybrid"


def test_unnormalized_circuit_is_rejected():
    # the path set's compile checks every rotation before it walks
    c = Circuit(1, (PauliRotation(PauliString(1, 1, 0), 2.0),))
    with pytest.raises(ValueError, match="normalize_rotations"):
        enumerate_paths_parallel(c, PauliString.from_label("Z"),
                                 TruncationPolicy.order(1))


def path_id(path):
    return path.path_id


def stream_summary(circuit, observable, policy):
    """The executed paths sorted by path_id, the per-order counts and the
    coefficient power of the full ``paths_oracle`` stream."""
    stream = list(paths_oracle(circuit, observable, policy))
    orders = collections.Counter(p.order for p in stream)
    counts = tuple(orders[k] for k in range(circuit.num_rotations + 1))
    executed = sorted((p for p in stream if p.ideal_expectation != 0),
                      key=path_id)
    return stream, tuple(executed), counts, coefficient_power(stream)


def test_path_set_matches_the_full_stream():
    # the path set builds the executed paths and tallies the rest; both must
    # agree with the reference stream that builds every path
    rng = np.random.default_rng(27)
    cases = []
    for trial in range(6):
        n = int(rng.integers(2, 6))
        kind = "all_plus" if trial % 2 else "all_zero"
        c = normalize_rotations(random_circuit(n, 14, 7, rng,
                                               input_kind=kind))
        obs = single_site_observable(n, rng)
        cases.append((c, obs, (TruncationPolicy.order(3),
                               TruncationPolicy(min_coefficient=0.03),
                               TruncationPolicy(2, 0.05))))
    # one rotation (one branch point) and a commuting-only circuit (none)
    single = Circuit(1, (PauliRotation(PauliString.from_label("X"), 0.3),))
    commuting = Circuit(2, (PauliRotation(PauliString.from_label("ZI"), 0.3),
                            CliffordGate("cz", (0, 1)),
                            PauliRotation(PauliString.from_label("IZ"), -0.2)))
    shallow = (TruncationPolicy.order(1),
               TruncationPolicy(min_coefficient=0.1),
               TruncationPolicy(1, 0.5))
    cases += [(single, PauliString.from_label("Z"), shallow),
              (commuting, PauliString.from_label("ZZ"), shallow)]
    zero_ideal = 0
    for c, obs, policies in cases:
        for policy in policies:
            paths = enumerate_paths_parallel(c, obs, policy)
            stream, executed, counts, power = stream_summary(c, obs, policy)
            assert [(p.path_id, p.coeff) for p in paths.executed] == \
                [(p.path_id, p.coeff) for p in executed]
            assert paths.executed == executed
            assert paths.counts == counts
            assert len(paths) == len(stream)
            assert repr(paths.p_kt) == repr(power)
            zero_ideal += len(stream) - len(executed)
    assert zero_ideal > 0


@pytest.mark.parametrize("n", [1, 3, 6, 9, 64, 70])
def test_mask_shards_match_the_per_rotation_oracle(n):
    # the walk that jumps between anticommuting rotations must keep the
    # oracle's paths, in its order, to the bit, under every policy
    rng = np.random.default_rng(700 + n)
    kept = 0
    for trial in range(2):
        kind = "all_plus" if trial else "all_zero"
        c = normalize_rotations(random_circuit(
            n, 36, 14, rng, input_kind=kind, rotation_weight=1 + trial))
        obs = wide_pauli(n, rng)
        for policy in (TruncationPolicy.order(3),
                       TruncationPolicy(min_coefficient=0.03),
                       TruncationPolicy(2, 0.05)):
            steps, start = compile_walk(c, obs)
            walked = []
            for sines, x, z, coeff, order in _walk_paths(steps, start,
                                                         policy):
                path = path_of(steps, start, sines)
                walked.append((*path[:4], repr(path[4]), path[5]))
                # the walk's own bits, coefficient and order are the replay's
                assert (x, z, repr(coeff), order) == walked[-1][1:3] + \
                    walked[-1][4:]
            want = [(codes, x, z, sign, repr(coeff), order)
                    for codes, x, z, sign, coeff, order
                    in walk_paths_oracle(c, obs, policy)]
            assert walked == want
            kept += len(walked)
    assert kept


def test_path_set_memory_is_bounded_by_the_executed_set():
    # a tiny floor keeps 6,400 paths, 256 of them executed; the path set's
    # peak must stay near what building the executed paths alone costs
    spec = ExperimentSpec(family="trotter", num_qubits=8, layers=4,
                          rotation_angle=0.7)
    c = normalize_rotations(generate_experiment(spec))
    obs = spec.resolved_observable()
    policy = TruncationPolicy(min_coefficient=1e-3)

    def peak(run):
        run()  # warm the compile cache
        tracemalloc.start()
        try:
            kept = run()
            return kept, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stream, stream_peak = peak(lambda: list(paths_oracle(c, obs, policy)))
    paths, paths_peak = peak(lambda: enumerate_paths_parallel(c, obs, policy))
    assert len(paths) == len(stream) > 20 * len(paths.executed)
    per_path = stream_peak / len(stream)
    assert paths_peak < 2 * per_path * len(paths.executed)


def test_empty_path_set():
    # a floor above every coefficient keeps nothing
    c = Circuit(1, (PauliRotation(PauliString.from_label("X"), 0.3),))
    paths = enumerate_paths_parallel(c, PauliString.from_label("Z"),
                                     TruncationPolicy(min_coefficient=2.0))
    assert (paths.executed, paths.counts, len(paths)) == ((), (0, 0), 0)
    assert repr(paths.p_kt) == repr(coefficient_power([])) == "0.0"


def test_exact_evaluators_agree_on_random_circuits():
    rng = np.random.default_rng(31)
    backend = TrajectorySimulator(NoiseModel.noiseless(), infinite_shots=True)
    for trial in range(30):
        n = int(rng.integers(1, 7))
        kind = "all_plus" if trial % 2 else "all_zero"
        c = random_circuit(n, 12, int(rng.integers(1, 7)), rng,
                           input_kind=kind, rotation_weight=2)
        obs = single_site_observable(n, rng)
        norm = normalize_rotations(c)
        want = sv.expectation(c, obs)
        enumerated = classical_cpt_estimate(executed_all(norm, obs))
        [(merged, _)] = merged_bfs_cpt(norm, obs, [1 << 16])
        propagated = submit_one(backend, c, obs, ExecutionPlan()).mean
        for got in (enumerated, merged, propagated):
            assert got == pytest.approx(want, abs=1e-12)


def test_merged_bfs_matches_enumeration():
    rng = np.random.default_rng(27)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        kind = "all_plus" if trial % 2 else "all_zero"
        c = normalize_rotations(random_circuit(n, 10, 5, rng, input_kind=kind))
        obs = single_site_observable(n, rng)
        [(estimate, kept)] = merged_bfs_cpt(c, obs, [10000])
        want = classical_cpt_estimate(enumerate_all(c, obs))
        assert estimate == pytest.approx(want, abs=1e-12)
        assert kept >= 1


def test_merged_bfs_cap_is_respected():
    rng = np.random.default_rng(28)
    c = normalize_rotations(random_circuit(4, 14, 7, rng))
    obs = single_site_observable(4, rng)
    [(_, kept_small)] = merged_bfs_cpt(c, obs, [4])
    assert kept_small <= 4


CAPS = (1, 2, 3, 4, 8, 16, 1 << 16)


def tie_case(n, a, b):
    """Z_a Z_b walked through R_X(0.3) on b and on a, then sx on b: Y_a Z_b
    and Z_a Y_b meet a cap of two with equal |value|s, and sx maps only
    the second onto the diagonal, so the tie order sets the estimate."""
    def pauli(letters):
        return PauliString.from_label("".join(letters.get(q, "I")
                                              for q in range(n)))
    return (Circuit(n, (CliffordGate("sx", (b,)),
                        PauliRotation(pauli({a: "X"}), 0.3),
                        PauliRotation(pauli({b: "X"}), 0.3))),
            pauli({a: "Z", b: "Z"}))


def with_quarter_turns(circuit, rng):
    """``circuit`` with about half its rotations moved to an exact pi/2, pi
    or -pi/2, where a sum walk keeps one term and weighs it by 1 or -1."""
    turns = (math.pi / 2, math.pi, -math.pi / 2)
    ops = [PauliRotation(op.generator, turns[int(rng.integers(3))])
           if isinstance(op, PauliRotation) and rng.random() < 0.5 else op
           for op in circuit.ops]
    return Circuit(circuit.num_qubits, tuple(ops), circuit.input_kind)


def test_lockstep_cpt_walk_matches_the_map_oracle():
    rng = np.random.default_rng(29)
    cases = []
    for n in (1, 2, 3, 4, 5, 6, 70):
        for kind in ("all_zero", "all_plus"):
            for floor in (0.0, 0.01, 0.1):
                # one angle for every rotation makes many equal |terms|
                for angle in (None, 0.4):
                    c = random_circuit(n, 16, 7, rng, input_kind=kind,
                                       rotation_angle=angle,
                                       rotation_weight=2)
                    cases.append((c, single_site_observable(n, rng), floor))
    # the cases at random angles (every other one) again, with exact
    # quarter turns
    quarter = np.random.default_rng(30)
    cases += [(with_quarter_turns(c, quarter), obs, floor)
              for c, obs, floor in cases[::2]]
    # qubit 66 has the third key column of a 70-qubit frame
    cases += [tie_case(n, a, b) + (0.0,) for n, a, b in ((2, 0, 1),
                                                          (70, 5, 66))]
    ties_bind = 0
    for c, obs, floor in cases:
        want = [merged_bfs_oracle(c, obs, cap, floor) for cap in CAPS]
        alone = [merged_bfs_cpt(c, obs, [cap], min_coefficient=floor)[0]
                 for cap in CAPS]
        swept = merged_bfs_cpt(c, obs, CAPS, min_coefficient=floor)
        assert repr(alone) == repr(want), (c, obs, floor)
        assert repr(swept) == repr(want), (c, obs, floor)
        # a cap that cuts through equal |terms| keeps other frames under
        # another tie order
        ties_bind += want != [merged_bfs_oracle(
            c, obs, cap, floor, label=lambda p: p.label()[::-1])
            for cap in CAPS]
    assert ties_bind >= 3


def test_lockstep_cpt_walk_edges_match_the_map_oracle():
    label = PauliString.from_label
    # no rotation: the floor still applies once, after the first op
    clifford = Circuit(3, (CliffordGate("h", (0,)), CliffordGate("cx", (0, 2)),
                           CliffordGate("s", (1,))))
    for obs in ("XIZ", "ZIZ", "IYI"):
        for floor in (0.0, 0.5, 1.5):
            want = [merged_bfs_oracle(clifford, label(obs), cap, floor)
                    for cap in CAPS]
            got = merged_bfs_cpt(clifford, label(obs), CAPS,
                                 min_coefficient=floor)
            assert repr(got) == repr(want), (obs, floor)
    # every rotation commutes with the frame: the reference walk peaks at
    # one term, so ``quepp cpt`` sweeps no budget below it
    commuting = Circuit(2, (CliffordGate("cz", (0, 1)),
                            PauliRotation(label("ZI"), 0.3),
                            CliffordGate("h", (1,)),
                            PauliRotation(label("IX"), 0.2)))
    want = merged_bfs_oracle(commuting, label("ZX"), 1 << 16)
    assert want == (1.0, 1)
    assert merged_bfs_cpt(commuting, label("ZX"), [1 << 16]) == [want]
    assert merged_bfs_cpt(commuting, label("ZX"), []) == []


def test_merged_walk_takes_exact_quarter_turns():
    # math.cos(pi / 2) is 6e-17, not 0: weighed by it, the walk would keep
    # five terms and sum to 3.7e-33; with exact turns it keeps one and
    # gives the backend's 0.0
    label = PauliString.from_label
    c = Circuit(2, (PauliRotation(label("XI"), math.pi / 2),
                    PauliRotation(label("ZZ"), math.pi / 2),
                    PauliRotation(label("IY"), math.pi / 2)))
    [got] = merged_bfs_cpt(c, label("ZZ"), [1 << 16])
    [ideal] = TrajectorySimulator(NoiseModel.noiseless(),
                                  infinite_shots=True).submit_batch(
                                      [(c, label("ZZ"))], ExecutionPlan())
    assert repr(got) == repr((0.0, 1)) == repr((ideal.mean, 1))


def test_cpt_cap_ties_rank_the_op_by_op_frames():
    # H on qubit 0 comes first, so the walk's compiled frames are its
    # op-by-op frames conjugated by H: XZ and ZY, which tie at a cap of two,
    # compile to ZZ and XY, in the reverse label order, and only XZ walks
    # on to a diagonal frame
    label = PauliString.from_label
    c = Circuit(2, (CliffordGate("h", (0,)), PauliRotation(label("YI"), 0.3),
                    PauliRotation(label("IX"), 0.3)))
    obs = label("ZZ")
    tableau = compile_circuit(c)[1][-1]

    def compiled(p):
        return PauliString(2, *tableau_image(tableau, p.x, p.z, 1)).label()

    assert [compiled(label(p)) for p in ("XZ", "ZY")] == ["ZZ", "XY"]
    want = [merged_bfs_oracle(c, obs, cap) for cap in CAPS]
    assert want[1] != merged_bfs_oracle(c, obs, 2, label=compiled)
    assert repr(merged_bfs_cpt(c, obs, [2])) == repr(want[1:2])
    assert repr(merged_bfs_cpt(c, obs, CAPS)) == repr(want)


def labels_spy(monkeypatch):
    """Patch ``_walk._local_labels`` to record how many rows each call
    labels; returns that list."""
    labelled, local_labels = [], quepp._walk._local_labels

    def spy(tableau, width, frames):
        labelled.append(frames.shape[1])
        return local_labels(tableau, width, frames)

    monkeypatch.setattr(quepp._walk, "_local_labels", spy)
    return labelled


def test_cpt_cap_labels_only_the_rows_tied_at_it(monkeypatch):
    # tie_case's first rotation gives the cap-1 item two rows, c and s; at
    # its second the cap-1 item's c^2 row leads its c*s, and the four rows
    # c^2, c*s, s*c and s^2 of the items at caps 2 and 3 tie two at the
    # cap: 1 labelled row, then 1 + 2 + 2
    c, obs = tie_case(2, 0, 1)
    want = [merged_bfs_oracle(c, obs, cap) for cap in CAPS]
    labelled = labels_spy(monkeypatch)
    assert repr(merged_bfs_cpt(c, obs, CAPS)) == repr(want)
    assert labelled == [1, 5]


def test_cpt_tie_ranking_matches_the_full_ranking_oracle(monkeypatch):
    rng = np.random.default_rng(31)
    ties = bindings = 0
    for n in (2, 3, 4, 6, 70):
        for kind in ("all_zero", "all_plus"):
            for floor in (0.0, 0.05):
                # one angle for every rotation makes many equal |terms|
                c = random_circuit(n, 20, 9, rng, input_kind=kind,
                                   rotation_angle=0.4, rotation_weight=2)
                obs = single_site_observable(n, rng)
                for budgets in (CAPS, (3, 5, 6, 7), (2, 2, 12, 9, 5)):
                    tied = []
                    want = full_ranking_budgets(c, obs, budgets, floor,
                                                tied=tied)
                    with monkeypatch.context() as patch:
                        labelled = labels_spy(patch)
                        got = merged_bfs_cpt(c, obs, budgets,
                                             min_coefficient=floor)
                    assert repr(got) == repr(want), (c, obs, budgets, floor)
                    assert labelled == list(map(sum, tied)), (c, obs)
                    ties += sum(count > 1 for counts in tied
                                for count in counts)
                    bindings += len(tied)
    # most binding caps cut through equal |terms|
    assert ties >= 100 and bindings >= 150, (ties, bindings)


def test_sine_branch_rejects_a_commuting_generator():
    # Z with Z commutes: i*Z*Z would carry an imaginary phase
    z = PauliString.from_label("Z")
    with pytest.raises(ConsistencyError):
        sin_branch_bits(z.x, z.z, z.x, z.z, 1)


def test_path_to_circuit_realizes_each_frame():
    # executing the realized circuit reproduces the path's ideal expectation:
    # sin slots become quarter turns, everything else angle zero
    rng = np.random.default_rng(29)
    for trial in range(8):
        n = int(rng.integers(2, 5))
        kind = "all_plus" if trial % 2 else "all_zero"
        c = normalize_rotations(random_circuit(n, 10, 4, rng, input_kind=kind))
        obs = single_site_observable(n, rng)
        for p in enumerate_all(c, obs):
            realized = path_to_circuit(c, p.codes)
            assert realized.num_rotations == c.num_rotations
            got = sv.expectation(realized, obs)
            assert got == pytest.approx(p.ideal_expectation, abs=1e-12)


def old_path_circuit(circuit, codes):
    """A path circuit built from new ops and checked op by op."""
    angles = iter([math.pi / 2 if code == "s" else 0.0 for code in codes])
    return Circuit(circuit.num_qubits,
                   tuple(op if isinstance(op, CliffordGate)
                         else PauliRotation(op.generator, next(angles))
                         for op in circuit.ops),
                   circuit.input_kind)


def test_path_to_circuit_reuses_the_targets_ops():
    rng = np.random.default_rng(33)
    targets = []
    for trial in range(6):
        n = int(rng.integers(1, 6))
        kind = "all_plus" if trial % 2 else "all_zero"
        targets.append(normalize_rotations(
            random_circuit(n, 12, int(rng.integers(1, 7)), rng,
                           input_kind=kind)))
    # alternate the targets, so each realization table is met again later
    paths = []  # (target index, path circuit)
    for t, c in enumerate(targets + targets):
        for _ in range(5):
            codes = "".join(rng.choice(list("csp"), c.num_rotations))
            realized = path_to_circuit(c, codes)
            assert realized == old_path_circuit(c, codes)
            paths.append((t % len(targets), realized))
            for op, mine in zip(c.ops, realized.ops):
                if isinstance(op, CliffordGate):
                    assert mine is op
                else:
                    assert mine.generator is op.generator
        # one pair of rotations per slot serves every path
        ones = path_to_circuit(c, "s" * c.num_rotations)
        assert ones.ops == path_to_circuit(c, "s" * c.num_rotations).ops
        assert all(a is b for a, b in zip(
            ones.ops, path_to_circuit(c, "s" * c.num_rotations).ops))
        for bad in ("c" * (c.num_rotations + 1), "c" * (c.num_rotations - 1),
                    "x" * c.num_rotations, "C" * c.num_rotations):
            with pytest.raises(ValueError):
                path_to_circuit(c, bad)
    # a path built from a path walks with the first one's target, and each
    # target's paths walk in one lockstep group: one _frame_means call each
    paths += [(t, path_to_circuit(path, "c" * path.num_rotations))
              for t, path in paths[:30:5]]
    groups, _ = walked_groups([(path, PauliString(path.num_qubits, z=1))
                               for _, path in paths])
    assert groups == [[i for i, (owner, _) in enumerate(paths) if owner == t]
                      for t in range(len(targets))]


def test_path_record_shape():
    c = Circuit(1, (CliffordGate("h", (0,)),
                    PauliRotation(PauliString(1, 1, 0), 0.3)),
                input_kind="all_plus")
    paths = enumerate_all(c, PauliString.from_label("Z"))
    record = path_record(paths[0])
    assert set(record) == {"path_id", "order", "coefficient", "sin_indices",
                           "frame", "ideal_expectation"}
    assert record["order"] == 0
    assert record["frame"] == "X"
    assert record["ideal_expectation"] == 1
    assert isinstance(record["path_id"], str) and len(record["path_id"]) == 16


def test_path_ids_are_distinct_and_stable():
    rng = np.random.default_rng(30)
    c = normalize_rotations(random_circuit(3, 10, 5, rng))
    obs = single_site_observable(3, rng)
    first = enumerate_all(c, obs)
    second = enumerate_all(c, obs)
    ids = [p.path_id for p in first]
    assert len(set(ids)) == len(ids)
    assert ids == [p.path_id for p in second]


def test_zero_expectation_paths_are_yielded():
    # they add nothing to the estimate but complete the coefficient power
    rng = np.random.default_rng(31)
    c = normalize_rotations(random_circuit(3, 10, 5, rng))
    obs = single_site_observable(3, rng)
    paths = enumerate_all(c, obs)
    assert any(p.ideal_expectation == 0 for p in paths)
    assert any(p.ideal_expectation != 0 for p in paths)
    assert coefficient_power(paths) == pytest.approx(1.0, abs=1e-12)
