"""Tools the tests build on: non-canonical spin spaces and a kernel factorisation search.

Neither is library surface; pytest does not collect this module, and the test modules import it
from their own directory.
"""

from typing import Optional, Tuple

from spinweave.groups import FrameGroup, clifford_parity, in_kernel_k
from spinweave.linalg import ExactMatrix
from spinweave.reps import EVEN, Representation, SpinSpace, _spin_space_from


def conjugate_spin_space(ss: SpinSpace, a: ExactMatrix) -> SpinSpace:
    """Spin space with frame a v a^-1; used to exercise non-canonical frames."""
    inv = a.inverse()
    frame = tuple(a * v * inv for v in ss.frame)
    return _spin_space_from(Representation(ss.sig, ss.rep.kind, frame, ss.dim))


def factor_kernel_element(
    group: FrameGroup, a: ExactMatrix
) -> Optional[Tuple[ExactMatrix, ExactMatrix]]:
    """Factor a kappa-kernel element as (K(h) element) * (gamma-image of Pin).

    Searches even frame-group elements g (for which gamma(g) = g) for one with a * g^-1 in K(h).
    """
    ss = group.ss
    for g in group.elements:
        if clifford_parity(ss, g) != EVEN:
            continue
        k = a * g.inverse()
        if in_kernel_k(ss, k):
            return k, g
    return None
