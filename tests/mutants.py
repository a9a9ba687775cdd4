"""Mutation gate: every named mutant must make each of its tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

A mutant is one exact source snippet in one file of ``src/spinweave``,
its replacement, and the pytest ids that must fail once it is applied.
For each mutant the script copies ``src/`` and ``tests/`` (with
``README.md`` and ``perfbench/``, whose CLI lines the parser oracle reads)
to a temporary directory, applies the mutant there, and runs only the listed ids, with
a fixed Hypothesis seed and without shrinking: a failing example fails
the test before it is shrunk, so shrinking would only cost time.  The exit status is 1 if any listed id passes
or does not run (a collection error counts as not run), or if a snippet
is missing or appears more than once, so a refactor that moves the code
must update the list here rather than drop it.  pytest does not collect
this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/spinweave
    snippet: str
    replacement: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "combination-drops-coefficients",
        "linalg.py",
        "            out.append(_sum_products(touching))\n",
        "            out.append(_sum_products((ONE, row) for _, row in touching))\n",
        ("tests/test_matrix_oracle.py::test_ring_operations_match_reference",
         "tests/test_matrix_oracle.py::test_combination_matches_reference"),
    ),
    Mutant(
        "accumulate-skips-lcm-rescale",
        "scalars.py",
        "            big = lcm(cell[4], den)\n            a, b = big // cell[4], big // den\n",
        "            big, a, b = cell[4], 1, 1\n",
        ("tests/test_accumulate_oracle.py::test_unequal_denominators_meet_at_their_lcm",),
    ),
    Mutant(
        "accumulate-always-gaussian",
        "scalars.py",
        "        if gaussian and not (r2 or s2):\n",
        "        if True:\n",
        ("tests/test_accumulate_oracle.py::test_sqrt2_products_leave_the_gaussian_shortcut",),
    ),
    Mutant(
        # the one mask check of CliffordElement and ExteriorElement
        "clifford-accepts-any-mask",
        "clifford.py",
        "            if not 0 <= mask < size:\n"
        "                raise ValueError(message)\n",
        "",
        ("tests/test_clifford.py::TestBladeMul::test_element_rejects_a_mask_outside_the_algebra",
         "tests/test_accumulate_oracle.py::test_out_of_range_mask_raises_on_every_product",
         "tests/test_bundles.py::TestExteriorModule::test_mask_outside_the_algebra_rejected"),
    ),
    Mutant(
        "add-row-skips-back-elimination",
        "linalg.py",
        "    for other in pivots.values():\n"
        "        if col in other:\n"
        "            _eliminate(other, col, row)\n",
        "",
        ("tests/test_solver_oracle.py::test_rref_matches_oracle",
         "tests/test_solver_oracle.py::test_rref_ignores_order_duplicates_and_zero_rows",
         "tests/test_solver_oracle.py::test_inconsistent_augmented_system_pivots_on_the_last_column"),
    ),
    Mutant(
        "alpha-skips-last-generator",
        "reps.py",
        "+ [CliffordElement.generator(ss.sig, i) for i in range(ss.sig.m)]",
        "+ [CliffordElement.generator(ss.sig, i) for i in range(ss.sig.m - 1)]",
        ("tests/test_reps.py::TestAlphaIsGammaConjugation::test_gamma_wrong_only_on_e7_fails",),
    ),
    Mutant(
        "sampler-keeps-zero-tangent",
        "bundles.py",
        "        if not any(ys):\n            continue\n",
        "",
        ("tests/test_sampler_oracle.py::test_tangent_pairs_match_the_fraction_oracle[1]",
         "tests/test_sampler_oracle.py::test_a_redraw_keeps_the_draw_order",
         "tests/test_sampler_oracle.py::test_tangent_forms_are_the_records_over_integers[1]"),
    ),
    Mutant(
        # N = D E tau squares to D^2 |Y|^2 I, not to |Y|^2 I
        "sphere-check-drops-d-squared",
        "bundles.py",
        "        if (n * n).scalar_value() != d * d * sum(y * y for y in ys):\n",
        "        if (n * n).scalar_value() != sum(y * y for y in ys):\n",
        ("tests/test_bundles.py::TestExampleChecks::test_records_carry_the_cli_name_and_signature",
         "tests/test_cli.py::TestExamples::test_sphere",
         "tests/test_cli.py::TestExamples::test_projective"),
    ),
    Mutant(
        # N_tau scaled by D2 E1 E2 against g scaled by (D2 lcm(E1, E2))^2
        "quadric-tau-scale-uses-denominator-product",
        "bundles.py",
        "    big = lcm(e1, e2)\n",
        "    big = e1 * e2\n",
        ("tests/test_sampler_oracle.py::test_quadric_maps_are_numerators_over_their_scales",
         "tests/test_bundles.py::TestExampleChecks::test_records_carry_the_cli_name_and_signature",
         "tests/test_bundles.py::TestQuadric::test_sampled_checks",
         "tests/test_cli.py::TestExamples::test_quadric"),
    ),
    Mutant(
        # the lambda = -1 half read with the lambda = +1 basis coefficient
        "weyl-read-drops-half-sign",
        "reps.py",
        "    lower = -c * eigenvalue\n",
        "    lower = -c\n",
        ("tests/test_restrict_oracle.py::test_weyl_images_equal_the_oracle[Cl(2,0)-weyl-]",
         "tests/test_restrict_oracle.py::test_weyl_images_equal_the_oracle[Cl(0,10)-weyl-]",
         "tests/test_golden_stdout.py::test_build_stdout_is_unchanged[argv2-json]",
         "tests/test_golden_stdout.py::test_build_stdout_is_unchanged[argv12-json]",
         "tests/test_golden_stdout.py::test_build_stdout_is_unchanged[argv20-json]"),
    ),
    Mutant(
        "weyl-skips-volume-block-check",
        "reps.py",
        "    if j != ExactMatrix.block2(z, ident.scale(-c), ident.scale(c), z):\n"
        "        raise ValueError(\"Dirac volume involution is not [[0, -cI], [cI, 0]]\")\n",
        "",
        ("tests/test_restrict_oracle.py::test_weyl_read_rejects_a_volume_off_the_block_form[Cl(2,0)-eigenvalue0]",
         "tests/test_restrict_oracle.py::test_weyl_read_rejects_a_volume_off_the_block_form[Cl(3,3)-eigenvalue1]"),
    ),
    Mutant(
        # a singular span candidate returned as the intertwiner
        "morphism-returns-first-candidate",
        "reps.py",
        "        try:\n"
        "            cand.inverse()\n"
        "            return cand\n"
        "        except ValueError:\n"
        "            pass\n",
        "        return cand\n",
        ("tests/test_reps.py::TestIntertwiner::test_self_intertwiner_odd",
         "tests/test_bundles.py::TestSpinSpaceMorphisms::test_identity_odd",
         "tests/test_bundles.py::TestSpinSpaceMorphisms::test_conjugates_the_frame_onto_every_variant[Cl(3,0)]"),
    ),
    Mutant(
        # the blade table accepts any nonzero square, so only this check rejects 2v and iv
        "frame-group-skips-relation-check",
        "groups.py",
        "            raise RuntimeError(f\"frame vector e{j + 1} breaks the Clifford relations\")\n",
        "            pass\n",
        ("tests/test_group_oracle.py::test_altered_spin_space_fails_where_the_oracle_does[Cl(2,0)-iv]",
         "tests/test_group_oracle.py::test_altered_spin_space_fails_where_the_oracle_does[Cl(2,0)-2v]"),
    ),
    Mutant(
        # an isotropic b (b^2 = 0) taken at odd m: r = -1/s divides by zero
        "gamma-accepts-isotropic-b",
        "reps.py",
        "        if s:  # None off the scalars, zero on an isotropic b\n",
        "        if s is not None:  # None off the scalars, zero on an isotropic b\n",
        ("tests/test_reps.py::TestChooseGamma::test_odd_canonical_swap_block",
         "tests/test_reps.py::TestChooseGamma::test_gamma_anticommutes_with_frame",
         "tests/test_reps.py::TestChooseGamma::test_conjugated_frame_gives_conjugated_gamma_up_to_sign"),
    ),
    Mutant(
        "orth-matrix-accepts-complex-entries",
        "groups.py",
        "        if not all(x.is_real() for row in mat.sparse_rows for _, x in row):\n"
        "            raise ValueError(\"orthogonal matrix has a non-real entry\")\n",
        "",
        ("tests/test_groups.py::TestIsLipschitz::test_complex_orthogonal_matrix_rejected",
         "tests/test_groups.py::TestIsLipschitz::test_complex_vector_rejected_by_its_coordinates[Cl(2,0)]",
         "tests/test_groups.py::TestIsLipschitz::test_complex_vector_rejected_by_its_coordinates[Cl(3,0)]"),
    ),
    Mutant(
        "kappa-certificate-skips-gamma",
        "groups.py",
        "    return (None not in _adjoints(ss, \"frame\") and is_lipschitz(ss, ss.gamma)\n",
        "    return (None not in _adjoints(ss, \"frame\")\n",
        ("tests/test_groups.py::TestVerifySpinorGroups::test_certificate_rejects_a_non_lipschitz_gamma[Cl(3,0)]",
         "tests/test_groups.py::TestVerifySpinorGroups::test_certificate_rejects_a_non_lipschitz_gamma[Cl(1,2)]"),
    ),
    Mutant(
        # I + Gamma is invertible (Gamma^2 = -I) but conjugates V out of itself
        "sampler-draws-uncertified-factor",
        "groups.py",
        "            out = out.scale(_random_scalar(rng))\n",
        "            out = (out + out * ss.gamma).scale(_random_scalar(rng))\n",
        ("tests/test_reps.py::TestConjugatedFrames::test_kappa_core_given_the_inverse_matches_kappa[even-m]",
         "tests/test_reps.py::TestConjugatedFrames::test_kappa_core_given_the_inverse_matches_kappa[odd-m]",
         "tests/test_groups.py::TestVerifySpinorGroups::test_odd_m_adds_kernel_and_kappa"),
    ),
    Mutant(
        "unit-row-skips-negation",
        "linalg.py",
        "            return tuple((j, -y) for j, y in row)\n",
        "            return row\n",
        ("tests/test_matrix_oracle.py::test_unit_factor_rows_reuse_or_negate_the_stored_row",
         "tests/test_matrix_oracle.py::test_ring_operations_match_reference",
         "tests/test_matrix_oracle.py::test_combination_matches_reference"),
    ),
    Mutant(
        "quadric-skips-anticommutation",
        "bundles.py",
        "        if not varpi.anticommutes_with(tau):\n",
        "        if False:\n",
        ("tests/test_bundles.py::TestExampleChecks::test_quadric_names_the_first_failure[varpi-identity]",),
    ),
    Mutant(
        # the anticommutant projected with the commutant's signs eps_A = 1
        "projection-skips-eps-flip",
        "reps.py",
        "    signs = [flip and bin(mask).count(\"1\") & 1 for mask in range(len(v_blades))]\n",
        "    signs = [0] * len(v_blades)\n",
        ("tests/test_intertwiner_oracle.py::test_projection_bases_equal_the_solve[Cl(2,0)]",
         "tests/test_intertwiner_oracle.py::test_projection_bases_equal_the_solve[Cl(3,0)]",
         "tests/test_intertwiner_oracle.py::test_character_count_is_the_basis_length[Cl(1,0)]"),
    ),
    Mutant(
        # each orbit vector scaled to 1 at its first nonzero position, not its last
        "orbit-basis-normalised-at-first-position",
        "reps.py",
        "for _, p, q in entries[-1:]]",
        "for _, p, q in entries[:1]]",
        ("tests/test_intertwiner_oracle.py::test_projection_bases_equal_the_solve[Cl(2,0)]",
         "tests/test_intertwiner_oracle.py::test_projection_bases_equal_the_solve[Cl(2,2)]"),
    ),
    Mutant(
        "parser-skips-choice-check",
        "cli.py",
        "            if isinstance(conv, tuple) and value not in conv:\n",
        "            if False:\n",
        ("tests/test_cli_usage.py::test_usage_error_exits_2_naming_the_offender[argv8---format]",
         "tests/test_cli_usage.py::test_usage_error_exits_2_naming_the_offender[argv10---kind]",
         "tests/test_parser_oracle.py::test_malformed_lines_exit_2_in_both[verify --format yaml]"),
    ),
    Mutant(
        # v_(A - low) v_low: grade-k blades flip sign for k = 2, 3 mod 4, on both sides of every
        # conjugation, so the group pins and the projection cannot see it
        "blade-product-reversed",
        "reps.py",
        "        out = memo[mask] = gens[low.bit_length() - 1] * _blade(gens, memo, mask ^ low)\n",
        "        out = memo[mask] = _blade(gens, memo, mask ^ low) * gens[low.bit_length() - 1]\n",
        ("tests/test_intertwiner_oracle.py::test_phase_blades_read_back_as_the_matrix_blades[Cl(2,0)]",
         "tests/test_intertwiner_oracle.py::test_phase_blades_read_back_as_the_matrix_blades[Cl(1,2)]",
         "tests/test_reps.py::TestGammaMap::test_homomorphism_on_blades"),
    ),
    Mutant(
        # a zero scale makes a singular matrix, outside the Lipschitz group
        "pair-model-accepts-zero-scale",
        "groups.py",
        "    if lam.is_zero() or mu.is_zero():\n"
        "        raise ValueError(\"scale parameters must be nonzero\")\n",
        "",
        ("tests/test_groups.py::TestOddElements::test_zero_scale_rejected",
         "tests/test_groups.py::TestPairModel::test_zero_scale_rejected[even-lambda=0]",
         "tests/test_groups.py::TestPairModel::test_zero_scale_rejected[odd-mu=0]"),
    ),
    Mutant(
        # the one stdout flush: without it the reports and --help stay buffered when the process
        # ends by os._exit, unwritten and unreported
        "cli-exit-skips-flush",
        "cli.py",
        "        sys.stdout.flush()\n",
        "        pass\n",
        ("tests/test_golden_stdout.py::test_help_stdout_is_unchanged",
         "tests/test_cli.py::TestUnwritableOut::test_unwritable_stdout_exits_2[argv1-False]"),
    ),
    Mutant(
        # the read coordinates returned without the exact comparison: Gamma and any matrix
        # outside the span get coordinates
        "expand-trusts-the-read",
        "groups.py",
        "    return coords if ExactMatrix.combination(x.n, zip(coords, mats)) == x else None\n",
        "    return coords\n",
        ("tests/test_groups.py::TestIsLipschitz::test_frame_expansion",
         "tests/test_expand_oracle.py::test_frame_read_matches_the_oracle[2,1]"),
    ),
    Mutant(
        # Ad(v_i) = -r_i read as the twisted adjoint Ad~(v_i) = r_i: no reflection, no agreement
        "twisted-family-is-the-plain-adjoint",
        "groups.py",
        "twisted_adjoint_matrix(ss, v) if family == \"twisted\"",
        "adjoint_matrix(ss, v) if family == \"twisted\"",
        ("tests/test_group_oracle.py::test_certificates_match_the_oracle[Cl(2,0)]",
         "tests/test_group_oracle.py::test_certificates_match_the_oracle[Cl(3,0)]",
         "tests/test_groups.py::TestExtensionDiagram::test_all_checks_pass[s0]",
         "tests/test_groups.py::TestVerifySpinorGroups::test_even_m_reports_in_order",
         "tests/test_golden_stdout.py::test_verify_stdout_is_unchanged[argv0-json]"),
    ),
    Mutant(
        # v_i^2 compared with h_i I, not v_i v_i + v_i v_i with 2 h_i I
        "clifford-check-drops-the-two",
        "reps.py",
        "            if lhs.scalar_value() != (2 * h[i] if i == j else 0):\n",
        "            if lhs.scalar_value() != (h[i] if i == j else 0):\n",
        ("tests/test_reps.py::TestVerifyClifford::test_all_kinds_all_signatures",
         "tests/test_reps.py::TestVerifyClifford::test_perturbed_image_reported",
         "tests/test_golden_stdout.py::test_verify_stdout_is_unchanged[argv0-json]"),
    ),
    Mutant(
        # every signature's space, with its frame group, kept for the life of the process
        "spin-space-cache-keeps-every-signature",
        "reps.py",
        "@lru_cache(maxsize=1)\n",
        "@lru_cache(maxsize=None)\n",
        ("tests/test_groups.py::TestOneSignatureAtATime::test_next_signature_frees_the_last_group",),
    ),
    Mutant(
        # pin+ tested with w2 + w1^2 and pin- with w2
        "charclass-pin-signs-swapped",
        "charclass.py",
        "def check_pin_plus(m: ManifoldData) -> bool:\n"
        "    return m.tangent.w2.is_zero()\n"
        "\n\n"
        "def check_pin_minus(m: ManifoldData) -> bool:\n"
        "    return (m.ring.square(m.tangent.w1) + m.tangent.w2).is_zero()\n",
        "def check_pin_plus(m: ManifoldData) -> bool:\n"
        "    return (m.ring.square(m.tangent.w1) + m.tangent.w2).is_zero()\n"
        "\n\n"
        "def check_pin_minus(m: ManifoldData) -> bool:\n"
        "    return m.tangent.w2.is_zero()\n",
        ("tests/test_charclass.py::TestProjectiveSpaces::test_rp2_pin_minus_only",
         "tests/test_charclass.py::TestProducts::test_rp2_x_s1_pulls_back",
         "tests/test_golden_stdout.py::test_obstructions_stdout_is_unchanged[argv0-json]",
         "tests/test_golden_stdout.py::test_obstructions_stdout_is_unchanged[argv1-table]"),
    ),
    Mutant(
        "charclass-orientable-ignores-w1",
        "charclass.py",
        "def is_orientable(m: ManifoldData) -> bool:\n"
        "    return m.tangent.w1.is_zero()\n",
        "def is_orientable(m: ManifoldData) -> bool:\n"
        "    return True\n",
        ("tests/test_charclass.py::TestProjectiveSpaces::test_orientability_iff_odd",
         "tests/test_golden_stdout.py::test_obstructions_stdout_is_unchanged[argv0-json]",
         "tests/test_golden_stdout.py::test_obstructions_stdout_is_unchanged[argv1-table]"),
    ),
    Mutant(
        # only the trivial rank-2 bundle is tried as the odd-dimensional lpin witness
        "charclass-lpin-skips-declared-bundles",
        "charclass.py",
        "    candidates = [b for b in m.bundles if b.rank == 2]\n",
        "    candidates = []\n",
        ("tests/test_charclass.py::TestCodim2Demo::test_lpin_with_normal_witness",
         "tests/test_charclass.py::TestGrassmannian::test_products_admit_lpin_with_gamma",
         "tests/test_golden_stdout.py::test_obstructions_stdout_is_unchanged[argv0-json]"),
    ),
    Mutant(
        # a class counted liftable only when it is zero, not when it lies in the declared span
        "charclass-liftable-means-zero",
        "charclass.py",
        "        return f2_in_span(x.coords, self.liftable2)\n",
        "        return x.is_zero()\n",
        ("tests/test_charclass.py::TestComplexProjective::test_spin_c_always",
         "tests/test_golden_stdout.py::test_obstructions_stdout_is_unchanged[argv0-json]",
         "tests/test_golden_stdout.py::test_obstructions_stdout_is_unchanged[argv1-table]"),
    ),
)


# registered in the temporary copy, next to its tests/ directory
NO_SHRINK = (
    "from hypothesis import Phase, settings\n"
    "settings.register_profile('mutants', phases=[Phase.explicit, Phase.reuse, Phase.generate])\n"
)


def _node_id(case: ET.Element) -> str:
    """The pytest id of a junit testcase, whose classname is the dotted
    module path and class; a collection error has no classname and keeps
    its name, which matches no listed id."""
    parts = case.get("classname", "").split(".")
    name = case.get("name", "")
    cut = next((i + 1 for i, part in enumerate(parts) if part.startswith("test_")), None)
    if cut is None:
        return name
    return "/".join(parts[:cut]) + ".py::" + "::".join(parts[cut:] + [name])


def _failed_ids(report: Path) -> Tuple[Set[str], Set[str]]:
    """(ids that ran, ids that failed or errored) from a junit XML report."""
    ran, failed = set(), set()
    for case in ET.parse(report).iter("testcase"):
        node = _node_id(case)
        ran.add(node)
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(node)
    return ran, failed


def run(mutant: Mutant) -> str:
    """'killed', or why the mutant counts against the gate."""
    with tempfile.TemporaryDirectory(prefix="spinweave-mutant-") as tmp:
        work = Path(tmp)
        for sub in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / sub, work / sub,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "README.md", work / "README.md")
        target = work / "src" / "spinweave" / mutant.path
        source = target.read_text()
        count = source.count(mutant.snippet)
        if count != 1:
            return f"stale: snippet found {count} times in src/spinweave/{mutant.path}"
        target.write_text(source.replace(mutant.snippet, mutant.replacement))
        (work / "conftest.py").write_text(NO_SHRINK)
        report = work / "report.xml"
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "--rootdir", str(work), "--hypothesis-seed=0",
               "--hypothesis-profile=mutants", f"--junitxml={report}",
               *mutant.tests]
        subprocess.run(cmd, cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if not report.exists():
            return "survived: pytest wrote no report"
        ran, failed = _failed_ids(report)
    missing = [t for t in mutant.tests if t not in ran]
    if missing:
        return "did not run: " + ", ".join(missing)
    passed = [t for t in mutant.tests if t not in failed]
    if passed:
        return "survived: " + ", ".join(passed) + " passed"
    return "killed"


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        verdict = run(mutant)
        print(f"{mutant.name}: {verdict}", flush=True)
        bad += verdict != "killed"
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
