"""Circuit text format, angle normalization, and inversion."""

import copy
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

import quepp.statevector as sv
from quepp import circuits
from quepp.circuits import (QUARTER_TURN_TOLERANCE, Circuit, PauliRotation,
                            clifford_angle_steps, in_residual_range,
                            inverse_circuit, is_clifford_equivalent,
                            normalize_rotations, parse_circuit,
                            serialize_circuit)
from quepp.backend import DEFAULT_MAX_TERMS
from quepp.engine import merged_bfs_cpt, path_to_circuit
from quepp.errors import ParseError
from quepp.experiments import (ExperimentSpec, circuit_manifest,
                               generate_experiment)
from quepp.pauli import CliffordGate, PauliString

from helpers import random_circuit, random_pauli, walked_groups


def overlap(a: np.ndarray, b: np.ndarray) -> float:
    return abs(np.vdot(a, b))


def test_parse_basic():
    c = parse_circuit("""
        # a comment
        qubits 3
        h 0
        cx 0 1
        rx 2 0.5
        rot XYZ -1.25
        cz 1 2
    """)
    assert c.num_qubits == 3
    assert c.input_kind == "all_zero"
    assert len(c.ops) == 5
    assert isinstance(c.ops[2], PauliRotation)
    assert c.ops[2].generator == PauliString(3, x=0b100, z=0)
    assert c.ops[3].generator == PauliString.from_label("XYZ")
    assert c.ops[3].angle == -1.25


def test_parse_input_kind():
    c = parse_circuit("qubits 2\ninput all_plus\nh 0\n")
    assert c.input_kind == "all_plus"
    with pytest.raises(ParseError):
        parse_circuit("qubits 2\ninput ghz\n")


@pytest.mark.parametrize("text,line", [
    ("h 0", 1),                       # missing header
    ("qubits 2\nh 5", 2),             # qubit out of range
    ("qubits 2\nfoo 0", 2),           # unknown gate
    ("qubits 2\ncx 0 0", 2),          # duplicate qubits
    ("qubits 2\nrot XYZ 0.5", 2),     # label length mismatch
    ("qubits 2\nrx 0 fast", 2),       # bad angle
    ("qubits 2\nrot II 0.5", 2),      # identity generator
    ("qubits 0", 1),                  # empty register
    ("qubits 2 3", 1),                # header arity
    ("qubits two", 1),                # bad qubit count
    ("qubits 2\nh 0 1", 2),           # 1-qubit gate arity
    ("qubits 2\ncz 0", 2),            # 2-qubit gate arity
    ("qubits 2\nrx 0", 2),            # rx arity
    ("qubits 2\nrot XY", 2),          # rot arity
    ("qubits 2\nrot -XY 0.5", 2),     # signed generator
    ("qubits 2\nrot XQ 0.5", 2),      # bad letter in a rot label
    ("# a comment\n\n# only", 3),     # no header in a comments-only text
    ("qubits 2\nh one", 2),           # bad qubit index
    ("qubits 2\nrx 0 inf", 2),        # infinite angle
    # a repeated line fails where it first appears
    ("qubits 2\nh 0\nh 5\nh 0\nh 5", 3),
    ("qubits 2\nh 0\nh 0\nqubits 2", 4),
    ("qubits 2\nh 0\nh 0\ninput all_plus", 4),
    ("qubits 2\ninput all_plus\nh 0\ninput all_plus", 4),
    ("qubits 2\ninput all_plus\ninput all_zero\nh 0", 3),  # second input
    ("qubits 2\nh", 2),               # gate with no qubit
    ("qubits 2\nrx 0 0.5 1", 2),      # rx with an extra token
    ("qubits 2\nrot XY 0.5 1", 2),    # rot with an extra token
    ("qubits 2\nrx 0 nan", 2),        # NaN angle
    ("qubits 2\nrot +XY 0.5", 2),     # explicitly positive generator
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_circuit(text)
    assert err.value.line == line


@pytest.mark.parametrize("line,build", [
    ("cx 0 0", lambda: CliffordGate("cx", (0, 0))),
    ("h 0 1", lambda: CliffordGate("h", (0, 1))),
    ("rot II 0.5", lambda: PauliRotation(PauliString.from_label("II"), 0.5)),
    ("rx 0 inf", lambda: PauliRotation(PauliString(2, x=1), math.inf)),
    ("rot XQ 0.5", lambda: PauliString.from_label("XQ")),
], ids=["cx-same-qubit", "h-two-qubits", "rot-identity", "rx-infinite",
        "rot-bad-letter"])
def test_parse_errors_repeat_the_op_types_messages(line, build):
    # each op rule has one owner: a file and library code that build the
    # same op are refused with the same message
    with pytest.raises(ValueError) as direct:
        build()
    with pytest.raises(ParseError) as parsed:
        parse_circuit(f"qubits 2\n{line}\n")
    assert str(parsed.value) == f"line 2: {direct.value}"


_REPEATED = """qubits 2
h 0
cz 0 1
rx 1 0.5
rot XY -0.25
h 0
cz 0 1
h 1
rx 1 0.5
rot XY -0.25
rx 1 0.25
"""


def test_parse_repeated_lines_share_one_op():
    c = parse_circuit(_REPEATED)
    first = {}
    for line, op in zip(_REPEATED.splitlines()[1:], c.ops):
        assert op is first.setdefault(line, op)
    # distinct lines, even of equal kind or generator, build distinct ops
    assert len({id(op) for op in c.ops}) == len(first) == 6
    x1 = PauliString(2, x=0b10)
    xy = PauliString.from_label("XY")
    assert c == Circuit(2, (
        CliffordGate("h", (0,)), CliffordGate("cz", (0, 1)),
        PauliRotation(x1, 0.5), PauliRotation(xy, -0.25),
        CliffordGate("h", (0,)), CliffordGate("cz", (0, 1)),
        CliffordGate("h", (1,)), PauliRotation(x1, 0.5),
        PauliRotation(xy, -0.25), PauliRotation(x1, 0.25)))


def test_parse_builds_one_op_per_distinct_gate_line(monkeypatch):
    # the deep mirror of acceptance test_04: 566 gate lines, 70 distinct
    spec = ExperimentSpec(family="mirror1d", num_qubits=12, layers=20,
                          rotation_angle=math.pi / 5, rng_seed=11,
                          p_single=0.5, p_cz=1.0, p_rx=0.2)
    text = serialize_circuit(generate_experiment(spec))
    gate_lines = text.splitlines()[1:]
    built = []
    for cls in (circuits.CliffordGate, circuits.PauliRotation):
        def counted(self, check=cls.__post_init__):
            built.append(self)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    c = parse_circuit(text)
    assert len(c.ops) == len(gate_lines) > 5 * len(set(gate_lines))
    assert len(built) <= len(set(gate_lines))


def test_serialize_round_trip_random():
    rng = np.random.default_rng(3)
    for trial in range(60):
        n = int(rng.integers(1, 6))
        kind = "all_plus" if trial % 4 == 0 else "all_zero"
        c = random_circuit(n, 10, 3, rng, input_kind=kind)
        again = parse_circuit(serialize_circuit(c))
        assert again == c


def test_serialize_uses_rx_sugar():
    c = Circuit(2, (PauliRotation(PauliString(2, x=1, z=0), 0.25),))
    text = serialize_circuit(c)
    assert "rx 0 " in text
    assert parse_circuit(text) == c


def machin_half_pi(bits: int) -> int:
    """pi/2 rounded down to ``bits`` bits after the point, by Machin's
    pi/4 = 4 arctan(1/5) - arctan(1/239), each series summed in integers
    with 64 guard bits, which outweigh the truncation of its terms."""
    one = 1 << bits + 64

    def arctan_inverse(x):
        total = term = one // x
        for n in itertools.count(3, 2):
            term //= -x * x
            if not term:
                return total
            total += term // n

    return 2 * (4 * arctan_inverse(5) - arctan_inverse(239)) >> 64


def test_the_fixed_point_half_pi_is_machins():
    bits = circuits._HALF_PI_BITS
    assert bits == 1200 and circuits._HALF_PI_FIXED == machin_half_pi(bits)
    assert circuits._HALF_PI_FIXED / (1 << bits) == math.pi / 2


def test_quarter_turns_are_exact():
    # m mod 4 and the correctly rounded residual, against a 2400-bit pi/2,
    # at magnitudes 2^-5 to 2^1023
    half_pi = Fraction(machin_half_pi(2400), 1 << 2400)
    rng = np.random.default_rng(23)
    for angle in (rng.uniform(1.0, 2.0, 1029) * np.ldexp(
            rng.choice([-1.0, 1.0], 1029), np.arange(-5, 1024))).tolist():
        turns = round(Fraction(angle) / half_pi)
        assert circuits.quarter_turns(angle) == (
            turns % 4, float(Fraction(angle) - turns * half_pi)), angle


def test_clifford_angle_steps():
    assert clifford_angle_steps(0.0) == 0
    assert clifford_angle_steps(math.pi / 2) == 1
    assert clifford_angle_steps(math.pi) == 2
    assert clifford_angle_steps(3 * math.pi / 2) == 3
    assert clifford_angle_steps(2 * math.pi) == 0
    assert clifford_angle_steps(-math.pi / 2) == 3
    assert clifford_angle_steps(math.pi / 2 + 1e-12) == 1
    assert clifford_angle_steps(math.pi / 5) is None
    assert clifford_angle_steps(math.pi / 2 + 1e-3) is None


def test_is_clifford_equivalent():
    quarter = Circuit(1, (PauliRotation(PauliString(1, 1, 0), math.pi / 2),))
    assert is_clifford_equivalent(quarter)
    generic = Circuit(1, (PauliRotation(PauliString(1, 1, 0), 0.3),))
    assert not is_clifford_equivalent(generic)
    pure = Circuit(1, (CliffordGate("h", (0,)),))
    assert is_clifford_equivalent(pure)


def test_normalize_bounds_residual_angles():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        c = random_circuit(n, 8, 4, rng, rotation_weight=2)
        norm = normalize_rotations(c)
        for _, _, rot in norm.rotations():
            assert abs(rot.angle) <= math.pi / 4 + 1e-9
            assert abs(rot.angle) > QUARTER_TURN_TOLERANCE


def test_normalize_preserves_state():
    # the normalized circuit must prepare the same state up to global phase
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        kind = "all_plus" if trial % 3 == 0 else "all_zero"
        c = random_circuit(n, 8, 4, rng, input_kind=kind, rotation_weight=2)
        norm = normalize_rotations(c)
        a = sv.run_statevector(c).reshape(-1)
        b = sv.run_statevector(norm).reshape(-1)
        assert overlap(a, b) == pytest.approx(1.0, abs=1e-12)


def test_normalize_specific_angle_split():
    # 3*pi/5 = pi/2 + pi/10: one quarter turn plus a small residual
    c = Circuit(1, (PauliRotation(PauliString(1, 1, 0), 3 * math.pi / 5),))
    norm = normalize_rotations(c)
    residuals = [rot.angle for _, _, rot in norm.rotations()]
    assert len(residuals) == 1
    assert residuals[0] == pytest.approx(math.pi / 10, abs=1e-12)
    assert any(isinstance(op, CliffordGate) and op.kind == "sx"
               for op in norm.ops)


def test_normalize_drops_pure_quarter_turns():
    c = Circuit(1, (PauliRotation(PauliString(1, 1, 0), math.pi / 2),))
    norm = normalize_rotations(c)
    assert norm.num_rotations == 0
    assert is_clifford_equivalent(norm)
    a = sv.run_statevector(c).reshape(-1)
    b = sv.run_statevector(norm).reshape(-1)
    assert overlap(a, b) == pytest.approx(1.0, abs=1e-12)


def test_normalize_returns_a_normalized_circuit_itself():
    c = parse_circuit("qubits 2\nh 0\nrx 0 0.5\nrot ZZ -0.7\nrx 0 0.5\n")
    assert normalize_rotations(c) is c
    rng = np.random.default_rng(7)
    for _ in range(20):
        once = normalize_rotations(random_circuit(2, 8, 4, rng,
                                                  rotation_weight=2))
        assert normalize_rotations(once) is once
    # 8.5 * float(pi/2) is exactly 9 quarter turns and a residual just
    # above -pi/4; the range keeps that rotation, in an equal circuit built
    # apart too
    tie = Circuit(1, (PauliRotation(PauliString(1, 1, 0),
                                    8.5 * math.pi / 2),))
    once = normalize_rotations(tie)
    assert once.ops[0] == CliffordGate("sx", (0,))
    assert once.ops[1].angle == -0.785398163397448
    assert normalize_rotations(once) is once
    twin = Circuit(1, once.ops)
    assert twin == once and normalize_rotations(twin) is twin


def test_normalize_folds_any_finite_angle_into_the_range():
    # quarter turns are taken off exactly, however far from zero, so every
    # residual is in range, normalizes to itself and keeps the value: rx on
    # |0> measured in Z walks to cos(theta) within 1e-15 after normalizing
    rng = np.random.default_rng(17)
    exponents = np.arange(1017)
    angles = (rng.choice([-1.0, 1.0], size=exponents.size)
              * rng.uniform(1.0, 2.0, size=exponents.size)
              * np.ldexp(1.0, exponents)).tolist()
    angles += [26353591.622839056, 1e16 + 2, 1e300, -1.7e308]
    generator = PauliString.from_label("XZ")
    z = PauliString.from_label("Z")
    for angle in angles:
        norm = normalize_rotations(
            Circuit(2, (PauliRotation(generator, angle),)))
        assert all(in_residual_range(op.angle)
                   for _, _, op in norm.rotations()), angle
        assert normalize_rotations(norm) is norm, angle
        rx = normalize_rotations(
            Circuit(1, (PauliRotation(PauliString(1, 1, 0), angle),)))
        value = merged_bfs_cpt(rx, z, [DEFAULT_MAX_TERMS])[0][0]
        assert abs(value - math.cos(angle)) <= 1e-15, angle
    # a rotation in range keeps its op, just past pi/4 too
    kept = PauliRotation(generator, math.pi / 4 + QUARTER_TURN_TOLERANCE / 2)
    assert normalize_rotations(Circuit(2, (kept,))).ops == (kept,)


@pytest.mark.parametrize("angle",
                         [3 * math.pi / 5, QUARTER_TURN_TOLERANCE / 2])
def test_normalize_keeps_the_rotations_it_does_not_change(angle):
    # a quarter turn to factor, or a residual too small to keep
    kept = parse_circuit("qubits 2\nrx 0 0.5\nrot ZZ -0.7\n").ops
    changed = PauliRotation(PauliString(2, x=0b10), angle)
    c = Circuit(2, (kept[0], changed, kept[1], kept[0]))
    norm = normalize_rotations(c)
    assert norm is not c
    rotations = [op for _, _, op in norm.rotations()]
    assert rotations[0] is kept[0]
    assert rotations[-2] is kept[1] and rotations[-1] is kept[0]
    assert changed not in norm.ops


def test_path_circuits_walk_with_their_target():
    # a target and its path circuits, a path of a path among them, make one
    # _frame_means call; an equal target built apart makes a second
    obs = PauliString.from_label("ZZ")
    first, second = parse_circuit(_REPEATED), parse_circuit(_REPEATED)
    path = path_to_circuit(first, "spscp")
    items = [(first, obs), (path, obs), (path_to_circuit(second, "ccccc"), obs),
             (path_to_circuit(path, "sssss"), obs), (second, obs)]
    groups, got = walked_groups(items)
    assert groups == [[0, 1, 3], [2, 4]]
    assert repr(got[0]) == repr(got[4])


def test_copied_path_circuits_give_the_same_estimates():
    # a path circuit carries its target: copied alone, it walks alone, and
    # a batch copied whole walks as one group, to the same bits either way;
    # so does a path's ops rebuilt by Circuit(...), which has no target
    c = parse_circuit(_REPEATED)
    batch = [(c if codes is None else path_to_circuit(c, codes),
              PauliString.from_label(label))
             for codes, label in ((None, "ZZ"), ("spscp", "ZZ"),
                                  ("sssss", "XX"), ("ccccc", "ZI"))]
    groups, want = walked_groups(batch)
    assert groups == [[0, 1, 2, 3]]
    assert len({e.mean for e in want} - {0.0}) == 4
    for duplicate in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        groups, got = walked_groups(duplicate(batch))
        assert groups == [[0, 1, 2, 3]] and repr(got) == repr(want)
        groups, got = walked_groups([duplicate(item) for item in batch])
        assert groups == [[0], [1], [2], [3]] and repr(got) == repr(want)
    rebuilt = [(Circuit(p.num_qubits, p.ops, p.input_kind), o)
               for p, o in batch]
    groups, got = walked_groups(batch + rebuilt)
    assert groups == [[0, 1, 2, 3], [4], [5], [6], [7]]
    assert repr(got[4:]) == repr(want)


def test_normalize_multi_qubit_generator():
    gen = PauliString.from_label("YX")
    c = Circuit(2, (PauliRotation(gen, 2.1),))
    norm = normalize_rotations(c)
    a = sv.run_statevector(c).reshape(-1)
    b = sv.run_statevector(norm).reshape(-1)
    assert overlap(a, b) == pytest.approx(1.0, abs=1e-12)
    for _, _, rot in norm.rotations():
        assert abs(rot.angle) <= math.pi / 4 + 1e-9


def test_inverse_circuit_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        c = random_circuit(n, 8, 3, rng, rotation_weight=2)
        inv = inverse_circuit(c)
        combined = Circuit(n, c.ops + inv.ops, input_kind=c.input_kind)
        state = sv.run_statevector(combined).reshape(-1)
        start = sv.input_state(n, c.input_kind).reshape(-1)
        assert overlap(state, start) == pytest.approx(1.0, abs=1e-12)


def test_inverse_swaps_adjoint_pairs():
    c = Circuit(1, (CliffordGate("s", (0,)), CliffordGate("sx", (0,))))
    inv = inverse_circuit(c)
    assert [op.kind for op in inv.ops] == ["sxdg", "sdg"]
    rot = Circuit(1, (PauliRotation(PauliString(1, 1, 0), 0.4),))
    assert inverse_circuit(rot).ops[0].angle == -0.4


def test_gate_census():
    c = parse_circuit("qubits 2\nh 0\nh 1\ncx 0 1\nrx 0 0.3\n")
    manifest = circuit_manifest(c)
    census = manifest["census"]
    assert census["h"] == 2
    assert census["cx"] == 1
    assert census["rot"] == 1
    assert sum(census.values()) == len(c.ops)
    assert manifest["num_rotations"] == c.num_rotations == 1
    assert manifest["angles"] == [op.angle for _, _, op in c.rotations()]


def test_rotations_index_one_based():
    c = parse_circuit("qubits 1\nh 0\nrx 0 0.5\nrx 0 0.6\n")
    rots = c.rotations()
    assert [j for j, _, _ in rots] == [1, 2]
    assert [pos for _, pos, _ in rots] == [1, 2]


def test_circuit_validation():
    with pytest.raises(ValueError):
        Circuit(2, (CliffordGate("h", (5,)),))
    with pytest.raises(ValueError):
        Circuit(2, (), input_kind="bell")
    with pytest.raises(ValueError):
        Circuit(2, (PauliRotation(PauliString(3, 1, 0), 0.5),))
    with pytest.raises(ValueError, match="num_qubits"):
        Circuit(0, ())
    for generator, angle in ((PauliString(2), 0.5),
                             (PauliString(1, 1, 0, -1), 0.5),
                             (PauliString(1, 1, 0), math.nan),
                             (PauliString(1, 1, 0), math.inf)):
        with pytest.raises(ValueError, match="rotation"):
            PauliRotation(generator, angle)


def test_shared_ops_are_checked_at_their_first_position():
    bad = CliffordGate("cx", (0, 5))
    good = CliffordGate("h", (1,))
    with pytest.raises(ValueError, match=r"^op 1: qubit out of range"):
        Circuit(2, (good, bad, good, bad))
    rotation = PauliRotation(PauliString(3, 1, 0), 0.5)
    with pytest.raises(ValueError, match=r"^op 2: rotation generator on 3"):
        Circuit(2, (good, good, rotation, rotation))
    with pytest.raises(TypeError, match=r"^op 0: not a gate op"):
        Circuit(2, ([], good, []))
