"""Command-line entry point.

Subcommands: build (emit a representation as JSON), verify (structural
sweeps over a signature range), obstructions (catalog table of the six
structure checks), examples (sampled bundle-example verification).
Exit codes: 0 all checks pass, 1 a check failed, 2 usage errors.
Identical flags and seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from typing import List, Optional

from . import charclass
from .bundles import (
    ExteriorElement,
    associated_tau_welldefined,
    exterior_tau,
    hermitean_h_value,
    hermitean_tau,
    projective_tau,
    quadric_example_check,
    sample_quadric_points,
    sample_tangent_pairs,
    sphere_representation,
    sphere_tau,
)
from .clifford import CliffordElement, Signature
from .groups import (
    ad_surjectivity_witnesses,
    frame_group,
    kappa,
    plain_ad_kernel,
    sample_lipschitz,
    verify_extension_diagram,
)
from .linalg import ExactMatrix
from .reports import (
    Report,
    envelope,
    render_table,
    report,
    serialize_representation,
    to_json_text,
)
from .reps import (
    KINDS,
    SpinSpace,
    anticommutant,
    build_rep,
    commutant,
    spin_space,
    verify_clifford,
)
from .scalars import ExactScalar, MINUS_ONE, ONE, sc

DEFAULT_SEED = 1

# Resource limits, enforced before any work starts.  Cost grows about
# 7-10x per unit of m (frame groups of order 2^(m+1), 2^m exterior forms),
# and linearly in the sample count.
MAX_M = 10
MAX_SAMPLES = 10_000


def _parse_signature(text: str) -> Signature:
    try:
        k, l = (int(part) for part in text.split(","))
        return Signature(k, l)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad signature {text!r}: expected k,l") from exc


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SPINWEAVE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(2)
    return DEFAULT_SEED


_CONFIG_KEYS = ("seed", "samples", "max_m", "format")


def _apply_config(args) -> Optional[str]:
    """Fill unset options from a JSON config file; flags always win."""
    if not getattr(args, "config", None):
        return None
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return str(exc)
    if not isinstance(config, dict):
        return "config file must hold a JSON object"
    for key in _CONFIG_KEYS:
        if key not in config:
            continue
        value = config[key]
        if key == "format":
            if value not in ("json", "table"):
                return f"key 'format' must be \"json\" or \"table\", got {value!r}"
        elif type(value) is not int:
            return f"key {key!r} must be an integer, got {value!r}"
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return None


def _check_limits(args) -> Optional[str]:
    """Name the flag whose value is outside the documented limits, if any."""
    sig = getattr(args, "sig", None)
    if sig is not None and sig.m > MAX_M:
        return f"--sig {sig.k},{sig.l} has m = {sig.m}; the limit is m <= {MAX_M}"
    if getattr(args, "max_m", 0) < 0:
        return f"--max-m must not be negative, got {args.max_m}"
    for flag, key, limit in (("--max-m", "max_m", MAX_M), ("--m", "m", MAX_M),
                             ("--samples", "samples", MAX_SAMPLES)):
        value = getattr(args, key, None)
        if value is not None and value > limit:
            return f"{flag} must be at most {limit}, got {value}"
    m = getattr(args, "m", None)
    if m is not None:
        if m < 1:
            return f"--m must be at least 1, got {m}"
        if args.name == "hermitean" and m % 2:
            return f"--m must be even for hermitean (the module lives on R^(2d)), got {m}"
        if args.name == "quadric" and m != 2:
            return f"--m must be 2 for quadric (the example has no dimension parameter), got {m}"
    return None


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def cmd_build(args) -> int:
    try:
        rep = build_rep(args.sig, args.kind)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = serialize_representation(rep)
    if args.format == "json":
        _emit(args, to_json_text(doc) + "\n")
    else:
        rows = [
            {"generator": f"e{i + 1}", "image": str(g).replace("\n", " ; ")}
            for i, g in enumerate(rep.images)
        ]
        _emit(args, f"{rep.kind} representation of {rep.sig}, dim {rep.dim}\n" + render_table(rows))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _signatures_for(args) -> List[Signature]:
    if args.sig is not None:
        return [args.sig]
    out = []
    for m in range(1, args.max_m + 1):
        for k in range(m + 1):
            out.append(Signature(k, m - k))
    return out


def _alpha_is_gamma_conjugation(ss: SpinSpace) -> bool:
    """include(alpha(x)) == gamma^-1 include(x) gamma for every Clifford element x.

    Both sides are unital algebra morphisms of the Clifford algebra: alpha
    and include are, and conjugation by gamma is an automorphism.  The unit
    and e_1..e_m generate the algebra, and two morphisms that agree on
    generators agree everywhere, so checking those m + 1 elements is complete.
    """
    ginv = ss.gamma.inverse()
    return all(
        ss.include(x.alpha()) == ginv * ss.include(x) * ss.gamma
        for x in [CliffordElement.scalar(ss.sig, 1)]
        + [CliffordElement.generator(ss.sig, i) for i in range(ss.sig.m)]
    )


def _verify_signature(sig: Signature, seed: int) -> List[Report]:
    reports: List[Report] = []
    ss = spin_space(sig)
    odd = sig.m % 2 == 1

    kinds = ("pauli", "pauli_twisted", "cartan") if odd else ("dirac", "weyl+", "weyl-")
    for kind in kinds:
        rep = build_rep(sig, kind)
        res = verify_clifford(rep)
        reports.append(
            report(
                f"clifford-relations-{kind}",
                sig,
                res.ok,
                counterexample=None if res.ok else str(res.failures[:3]),
            )
        )

    expected = 2 if odd else 1
    reports.append(report("commutant-dimension", sig, len(commutant(ss.frame)) == expected))
    reports.append(
        report("anticommutant-dimension", sig, len(anticommutant(ss.frame)) == expected)
    )

    reports.append(
        report(
            "volume-square",
            sig,
            (ss.eta * ss.eta).scalar_value() == ss.iota * ss.iota,
        )
    )
    reports.append(report("gamma-square", sig, (ss.gamma * ss.gamma).scalar_value() == MINUS_ONE))

    reports.append(report("alpha-is-gamma-conjugation", sig, _alpha_is_gamma_conjugation(ss)))

    group = frame_group(sig)
    reports.append(report("frame-group-order", sig, group.order == 2 ** (sig.m + 1)))
    for res in verify_extension_diagram(ss, group):
        reports.append(report(res.name, sig, res.ok, res.witness, res.counterexample))
    for res in ad_surjectivity_witnesses(ss):
        reports.append(report(res.name, sig, res.ok, res.witness, res.counterexample))
    if odd:
        kernel = plain_ad_kernel(ss, group)
        reports.append(report("plain-ad-kernel-size-4", sig, len(kernel) == 4))
        rng = random.Random(seed)
        ok = True
        for _ in range(20):
            a = sample_lipschitz(ss, rng, group)
            b = sample_lipschitz(ss, rng, group)
            if kappa(ss, a * b) != kappa(ss, a) * kappa(ss, b):
                ok = False
                break
        reports.append(report("kappa-homomorphism-sampled", sig, ok))
    return reports


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    reports: List[Report] = []
    for sig in _signatures_for(args):
        reports.extend(_verify_signature(sig, seed))
    doc = envelope(reports)
    if args.format == "json":
        _emit(args, to_json_text(doc) + "\n")
    else:
        rows = [r.to_json() for r in reports]
        _emit(args, render_table(rows))
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# obstructions
# ---------------------------------------------------------------------------


def cmd_obstructions(args) -> int:
    if args.catalog:
        try:
            with open(args.catalog) as fh:
                catalog = charclass.load_catalog(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        catalog = charclass.builtin_catalog()
    if args.manifold:
        catalog = [m for m in catalog if m.name == args.manifold]
        if not catalog:
            print(f"error: manifold {args.manifold!r} not in catalog", file=sys.stderr)
            return 2
    rows = [charclass.structure_summary(m) for m in catalog]
    for row in rows:
        witness = row.pop("lpin_witness")
        row["lpin"] = f"T:{witness}" if row["lpin"] and witness else row["lpin"]
    if args.format == "json":
        _emit(args, to_json_text({"schema": 1, "obstructions": rows}) + "\n")
    else:
        _emit(args, render_table(rows))
    return 0


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------


def _run_example(name: str, m: int, samples: int, seed: int) -> List[Report]:
    reports: List[Report] = []
    if name in ("sphere", "projective"):
        rep = sphere_representation(m)
        ident = ExactMatrix.identity(rep.dim)
        failures = 0
        for pair in sample_tangent_pairs(m, samples, seed):
            if name == "sphere":
                t = sphere_tau(m, pair, rep)
                if t * t != ident.scale(sc(pair.norm_squared())):
                    failures += 1
            else:
                plus = projective_tau(m, 1, pair, rep)
                anti = projective_tau(m, 1, pair.antipode(), rep)
                if plus != anti or projective_tau(m, -1, pair, rep) != -plus:
                    failures += 1
                if plus * plus != ident.scale(sc(pair.norm_squared())):
                    failures += 1
        reports.append(
            report(f"{name}-clifford-property", f"m={m}", failures == 0,
                   counterexample=None if not failures else f"{failures} failures")
        )
    elif name == "quadric":
        res = quadric_example_check(sample_quadric_points(samples, seed))
        reports.append(
            report("quadric-pointwise-checks", None, res.ok,
                   counterexample=None if res.ok else res.failures[0])
        )
    elif name == "exterior":
        sig = Signature(m, 0)
        ok = True
        for i in range(sig.m):
            v = [1 if j == i else 0 for j in range(sig.m)]
            for mask in range(1 << sig.m):
                omega = ExteriorElement.basis_form(sig.m, mask)
                if exterior_tau(v, exterior_tau(v, omega, sig), sig) != omega.scale(sc(sig.h(i))):
                    ok = False
        reports.append(report("exterior-clifford-property", f"m={m}", ok))
    elif name == "hermitean":
        d = m // 2
        rng = random.Random(seed)
        ok = True
        for _ in range(samples):
            n = [ExactScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(d)]
            if all(c.is_zero() for c in n):
                continue
            hv = hermitean_h_value(n)
            for mask in range(1 << d):
                omega = ExteriorElement.basis_form(d, mask)
                if hermitean_tau(n, hermitean_tau(n, omega)) != omega.scale(hv):
                    ok = False
        reports.append(report("hermitean-clifford-property", f"d={d}", ok))
    elif name == "associated":
        sig = Signature(m, 0)
        res = associated_tau_welldefined(spin_space(sig))
        reports.append(
            report("associated-welldefined", str(sig), res.ok,
                   counterexample=None if res.ok else res.failures[0])
        )
    else:
        raise ValueError(f"unknown example {name!r}")
    return reports


def cmd_examples(args) -> int:
    seed = _resolve_seed(args)
    try:
        reports = _run_example(args.name, args.m, args.samples, seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = envelope(reports)
    if args.format == "json":
        _emit(args, to_json_text(doc) + "\n")
    else:
        _emit(args, render_table([r.to_json() for r in reports]))
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinweave",
        description="Exact Clifford algebra, spinor group, and obstruction checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("json", "table"), default=None)
        p.add_argument("--seed", type=int, default=None,
                       help="seed (fallback: config file, SPINWEAVE_SEED, then 1)")
        p.add_argument("--config", default=None,
                       help="JSON config file supplying defaults for seed/samples/max_m/format")

    b = sub.add_parser("build", help="emit a spinor representation")
    b.add_argument("--sig", type=_parse_signature, required=True, metavar="K,L")
    b.add_argument("--kind", choices=KINDS, required=True)
    common(b)
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="run structural verification sweeps")
    v.add_argument("--sig", type=_parse_signature, default=None, metavar="K,L")
    v.add_argument("--max-m", type=int, default=None, dest="max_m")
    common(v)
    v.set_defaults(func=cmd_verify)

    o = sub.add_parser("obstructions", help="decide structures over a catalog")
    o.add_argument("--catalog", help="path to a catalog JSON file (default: builtin)")
    o.add_argument("--manifold", help="restrict to a single catalog entry")
    common(o)
    o.set_defaults(func=cmd_obstructions)

    e = sub.add_parser("examples", help="verify a bundle example at sampled points")
    e.add_argument("name", choices=("sphere", "projective", "quadric", "exterior", "hermitean", "associated"))
    e.add_argument("--m", type=int, default=2)
    e.add_argument("--samples", type=int, default=None)
    common(e)
    e.set_defaults(func=cmd_examples)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    error = _apply_config(args)
    if error is not None:
        print(f"error: bad config file: {error}", file=sys.stderr)
        return 2
    if getattr(args, "format", None) is None:
        args.format = "json"
    if getattr(args, "max_m", "absent") is None:
        args.max_m = 4
    if getattr(args, "samples", "absent") is None:
        args.samples = 25
    if getattr(args, "samples", 1) < 1 or (args.seed is not None and args.seed < 1):
        print("error: seed and sample counts must be positive", file=sys.stderr)
        return 2
    error = _check_limits(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
