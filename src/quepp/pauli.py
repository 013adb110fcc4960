"""Signed n-qubit Pauli strings in symplectic (x, z, sign) form.

A Pauli string is stored as two n-bit Python integers plus a sign:

    bit j of ``x`` set  ->  X component on qubit j
    bit j of ``z`` set  ->  Z component on qubit j

Per qubit the pair (x, z) decodes as (0,0) I, (1,0) X, (0,1) Z and (1,1) Y,
where Y means the literal Hermitian matrix (not i*X*Z).  Arbitrary-precision
integers make every bitwise operation act on machine words, so commutation
and conjugation cost O(n/64) independent of Pauli weight.

This module holds the value types, the phase-exact product, the images of
the Clifford alphabet's generators and a frame's expectation on the
stabilizer inputs (``_input_expectation``); the walks that push frames
through them live in ``_walk``.  Only signs +1 and -1 are representable.
Conjugation by the supported Clifford alphabet and the anticommuting
generator product both preserve Hermiticity, so a phase of +/-i can never
legitimately appear; if the internal phase arithmetic produces one,
something upstream is broken and an error is raised rather than silently
absorbed.
"""

from dataclasses import dataclass

__all__ = [
    "PauliString",
    "CliffordGate",
    "GATE_KINDS",
]

INPUT_KINDS = ("all_zero", "all_plus")

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """Immutable signed Pauli string on ``num_qubits`` qubits."""

    num_qubits: int
    x: int = 0
    z: int = 0
    sign: int = 1

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {self.num_qubits}")
        mask = (1 << self.num_qubits) - 1
        if self.x & ~mask or self.x < 0:
            raise ValueError("x bits outside qubit range")
        if self.z & ~mask or self.z < 0:
            raise ValueError("z bits outside qubit range")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse text like ``-XIZY``; qubit 0 is the leftmost letter."""
        if not label:
            raise ValueError("empty Pauli label")
        sign = 1
        body = label
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ValueError(f"no Pauli letters in {label!r}")
        x = z = 0
        for q, letter in enumerate(body):
            try:
                xb, zb = _LETTER_BITS[letter]
            except KeyError:
                raise ValueError(f"bad Pauli letter {letter!r} in {label!r}") from None
            x |= xb << q
            z |= zb << q
        return cls(len(body), x, z, sign)

    def label(self) -> str:
        """Render as text; ``from_label`` is the exact inverse."""
        letters = "".join(
            _BITS_LETTER[(self.x >> q) & 1, (self.z >> q) & 1]
            for q in range(self.num_qubits)
        )
        return ("-" if self.sign < 0 else "") + letters

    def __str__(self) -> str:
        return self.label()

    def support(self) -> tuple[int, ...]:
        m = self.x | self.z
        return tuple(q for q in range(self.num_qubits) if (m >> q) & 1)

    def weight(self) -> int:
        return (self.x | self.z).bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def letter(self, q: int) -> str:
        return _BITS_LETTER[(self.x >> q) & 1, (self.z >> q) & 1]


GATE_KINDS = ("h", "s", "sdg", "x", "y", "z", "sx", "sxdg", "cx", "cz")


@dataclass(frozen=True)
class CliffordGate:
    """A named Clifford gate from the fixed alphabet, acting on 1 or 2 qubits."""

    kind: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = len(_LOCAL_IMAGES[self.kind][0])
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} expects {arity} qubit(s), got {self.qubits}")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind} qubits must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")


# ---------------------------------------------------------------------------
# Phase-exact products of literal Paulis.
# ---------------------------------------------------------------------------


def _mul_phase(x1: int, z1: int, x2: int, z2: int) -> tuple[int, int, int]:
    """Product of two unsigned literal Paulis: returns (x, z, phase mod 4).

    sigma(x1, z1) * sigma(x2, z2) = i^k * sigma(x1 ^ x2, z1 ^ z2).  Each
    site where the factors anticommute gives +i in cyclic order (XY, YZ,
    ZX) and -i in reversed order; an anticommuting site is in reversed order
    exactly when x ^ z ^ (x1 & z2) is set there, so every site is counted
    with a few operations on whole integers.
    """
    x = x1 ^ x2
    z = z1 ^ z2
    x1z2 = x1 & z2
    anti = (x2 & z1) ^ x1z2
    reversed_order = (x ^ z ^ x1z2) & anti
    return x, z, (anti.bit_count() + 2 * reversed_order.bit_count()) & 3


def _image_product(x_images, z_images, x: int, z: int) -> tuple[int, int, int]:
    """Phase-exact image of the literal Pauli sigma(x, z) under a Clifford
    map given by its generator images: returns (x', z', phase mod 4).

    ``x_images[q]`` and ``z_images[q]`` are the images of X_q and Z_q, each
    (x, z, k) for i^k * sigma(x, z).  sigma(x, z) = i^|x & z| X^x Z^z, and
    the images of X^x then Z^z are multiplied in that order.
    """
    k = (x & z).bit_count()
    ax = az = 0
    for images, mask in ((x_images, x), (z_images, z)):
        while mask:
            low = mask & -mask
            ix, iz, ik = images[low.bit_length() - 1]
            ax, az, dk = _mul_phase(ax, az, ix, iz)
            k += dk + ik
            mask ^= low
    return ax, az, k & 3


# ---------------------------------------------------------------------------
# Gate images.
#
# Every gate is defined by the Heisenberg images g^dag X_q g and g^dag Z_q g
# of the single-qubit generators on its site(s); the image of any frame
# follows from those with phase-exact multiplication (``_image_product``).
# Local encoding: bit i of a local mask corresponds to gate.qubits[i], and a
# site's frame letter is a two-bit site code (x low, z high).
# ---------------------------------------------------------------------------

# kind -> (images of X per site, images of Z per site), each image
# (x, z, k) for i^k * sigma(x, z) in local bits, the form _image_product takes
_LOCAL_IMAGES = {
    "h":    (((0b0, 0b1, 0),), ((0b1, 0b0, 0),)),          # X->Z, Z->X
    "s":    (((0b1, 0b1, 2),), ((0b0, 0b1, 0),)),          # X->-Y, Z->Z
    "sdg":  (((0b1, 0b1, 0),), ((0b0, 0b1, 0),)),          # X->Y, Z->Z
    "x":    (((0b1, 0b0, 0),), ((0b0, 0b1, 2),)),          # X->X, Z->-Z
    "y":    (((0b1, 0b0, 2),), ((0b0, 0b1, 2),)),          # X->-X, Z->-Z
    "z":    (((0b1, 0b0, 2),), ((0b0, 0b1, 0),)),          # X->-X, Z->Z
    "sx":   (((0b1, 0b0, 0),), ((0b1, 0b1, 0),)),          # X->X, Z->Y
    "sxdg": (((0b1, 0b0, 0),), ((0b1, 0b1, 2),)),          # X->X, Z->-Y
    # X0->X0X1, X1->X1; Z0->Z0, Z1->Z0Z1
    "cx":   (((0b11, 0b00, 0), (0b10, 0b00, 0)),
             ((0b00, 0b01, 0), (0b00, 0b11, 0))),
    # X0->X0Z1, X1->Z0X1; Z0->Z0, Z1->Z1
    "cz":   (((0b01, 0b10, 0), (0b10, 0b01, 0)),
             ((0b00, 0b01, 0), (0b00, 0b10, 0))),
}


def _input_expectation(x: int, z: int, sign: int, input_kind: str) -> int:
    """Exact expectation of sign * sigma(x, z) on |0..0> or |+..+>, always
    -1, 0 or +1."""
    if input_kind == "all_zero":
        return sign if x == 0 else 0
    if input_kind == "all_plus":
        return sign if z == 0 else 0
    raise ValueError(f"unknown input kind {input_kind!r}")

