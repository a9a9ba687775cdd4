"""The text of scalars and Clifford elements against the two writers it replaced.

``reference_scalar_str`` and ``reference_clifford_str`` are the ``__str__`` bodies that
``ExactScalar`` and ``CliffordElement`` had before both passed their terms to one
``scalars._signed_sum``.  The golden ``build`` tables print unit entries only, so Hypothesis
draws the rest: every coordinate zero, +-1 or a fraction, and Clifford coefficients that are
negative or compound (``1 + i``), on the scalar blade too.  The texts must be identical.
"""

from hypothesis import example, given, strategies as st

from spinweave.clifford import CliffordElement, Signature
from spinweave.scalars import ExactScalar


def reference_scalar_str(x: ExactScalar) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for coeff, unit in zip(x.to_json(), ("", "i", "sqrt2", "i*sqrt2")):
        if coeff == "0":
            continue
        if unit == "":
            parts.append(coeff)
        elif coeff == "1":
            parts.append(unit)
        elif coeff == "-1":
            parts.append("-" + unit)
        else:
            parts.append(f"{coeff}*{unit}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def reference_clifford_str(x: CliffordElement) -> str:
    if not x.terms:
        return "0"
    parts = []
    for mask, coeff in x.blades():
        name = "".join(f"e{i + 1}" for i in range(x.sig.m) if mask >> i & 1) or "1"
        cs = reference_scalar_str(coeff)
        if name == "1":
            parts.append(cs)
        elif cs == "1":
            parts.append(name)
        elif cs == "-1":
            parts.append("-" + name)
        elif any(op in cs[1:] for op in "+-"):
            parts.append(f"({cs})*{name}")
        else:
            parts.append(f"{cs}*{name}")
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


coordinates = st.one_of(st.just(0), st.sampled_from((1, -1)),
                        st.fractions(min_value=-9, max_value=9, max_denominator=12))
scalars = st.builds(ExactScalar, coordinates, coordinates, coordinates, coordinates)


@st.composite
def elements(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(0, m))
    sig = Signature(k, m - k)
    return CliffordElement(sig, draw(st.dictionaries(st.integers(0, (1 << m) - 1), scalars,
                                                     max_size=5)))


@given(scalars)
@example(ExactScalar())
@example(ExactScalar(-1, 1, -1, 1))
@example(ExactScalar(0, -1, 0, -1))
def test_scalar_text_matches_the_reference(x):
    assert str(x) == reference_scalar_str(x)


SIG = Signature(2, 1)


@given(elements())
@example(CliffordElement(SIG))
@example(CliffordElement(SIG, {0: ExactScalar(1, 1), 1: ExactScalar(-1, 1), 6: ExactScalar(-1)}))
@example(CliffordElement(SIG, {0: ExactScalar(-1, -1), 3: ExactScalar(0, -1, 0, 1)}))
def test_clifford_text_matches_the_reference(x):
    assert str(x) == reference_clifford_str(x)


def test_compound_coefficients_are_bracketed():
    x = CliffordElement(SIG, {0: ExactScalar(1, 1), 1: ExactScalar(-1, 1), 6: ExactScalar(-1)})
    assert str(x) == "1 + i + (-1 + i)*e1 - e2e3"
