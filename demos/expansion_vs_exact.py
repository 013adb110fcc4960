"""Path expansion against the dense oracle, then truncation in action.

First sanity check: on a circuit small enough for a statevector, the full
back-propagated expansion must reproduce the exact expectation to machine
precision.  Second: truncating the expansion at increasing order shows how
quickly the classical estimate converges, and how the kept coefficient
power p_kt accounts for what was dropped.
"""

import math

import numpy as np

from quepp import (
    Circuit,
    PauliRotation,
    PauliString,
    TruncationPolicy,
    classical_cpt_estimate,
    enumerate_paths_parallel,
    normalize_rotations,
)
from quepp import statevector as sv
from quepp.pauli import CliffordGate


def random_circuit(num_qubits, depth, num_rotations, rng):
    # two-site rotations so the tree actually branches
    ops = []
    slots = sorted(rng.choice(depth, size=num_rotations, replace=False))
    for layer in range(depth):
        if slots and layer == slots[0]:
            slots.pop(0)
            sites = {int(q): rng.choice(list("XYZ"))
                     for q in rng.choice(num_qubits,
                                         size=min(2, num_qubits),
                                         replace=False)}
            label = "".join(sites.get(i, "I") for i in range(num_qubits))
            ops.append(PauliRotation(PauliString.from_label(label),
                                     float(rng.uniform(0.3, 1.2))))
        elif num_qubits > 1 and rng.random() < 0.5:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            ops.append(CliffordGate("cz", (int(a), int(b))))
        else:
            kind = ("h", "s", "sx")[int(rng.integers(3))]
            ops.append(CliffordGate(kind, (int(rng.integers(num_qubits)),)))
    return Circuit(num_qubits, tuple(ops))


def main():
    rng = np.random.default_rng(7)

    print("full expansion vs dense statevector")
    worst = 0.0
    for trial in range(10):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(3, 8))
        circuit = random_circuit(n, k + 6, k, rng)
        sites = {int(q): rng.choice(list("XYZ"))
                 for q in rng.choice(n, size=min(2, n), replace=False)}
        obs = PauliString.from_label(
            "".join(sites.get(i, "I") for i in range(n)))
        normalized = normalize_rotations(circuit)
        paths = enumerate_paths_parallel(normalized, obs,
                                         TruncationPolicy.order(k))
        estimate = classical_cpt_estimate(paths.executed)
        exact = sv.expectation(circuit, obs)
        err = abs(estimate - exact)
        worst = max(worst, err)
        print(f"  trial {trial}: n={n} K={k} paths={len(paths):3d} "
              f"estimate={estimate:+.6f} exact={exact:+.6f} err={err:.2e}")
    print(f"  worst error over 10 circuits: {worst:.2e}\n")

    print("truncation order sweep on an alternating-axis single-qubit chain")
    angles = (0.8, 0.9, 0.7, 1.0, 0.6, 0.5)
    circuit = Circuit(1, tuple(
        PauliRotation(PauliString.from_label("X" if i % 2 == 0 else "Z"), a)
        for i, a in enumerate(angles)))
    obs = PauliString.from_label("Z")
    normalized = normalize_rotations(circuit)
    exact = sv.expectation(circuit, obs)
    print(f"  exact value: {exact:+.6f}")
    print(f"  {'order':>5} {'paths':>5} {'p_kt':>8} {'estimate':>10} "
          f"{'|error|':>9}")
    for order in range(normalized.num_rotations + 1):
        # zero-expectation paths count toward p_kt, not toward the estimate
        paths = enumerate_paths_parallel(normalized, obs,
                                         TruncationPolicy.order(order))
        estimate = classical_cpt_estimate(paths.executed)
        p_kt = paths.p_kt
        print(f"  {order:5d} {len(paths):5d} {p_kt:8.5f} {estimate:+10.6f} "
              f"{abs(estimate - exact):9.2e}")
    print("  p_kt -> 1 and the error -> 0 as the truncation loosens; the")
    print("  boosted estimator exists to close the gap without going there.")


if __name__ == "__main__":
    main()
