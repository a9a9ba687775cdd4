"""Exact Clifford algebra, spinor group and obstruction checks.

Subcommands: build (emit a representation as JSON), verify (structural
sweeps over a signature range), obstructions (catalog table of the six
structure checks), examples (sampled bundle-example verification).
--out writes the output to a file instead of stdout; --format defaults
to json; --seed falls back to the --config file, SPINWEAVE_SEED, then 1;
--config names a JSON object of defaults for seed, samples, max_m and
format, which flags override.  Exit codes: 0 all checks pass, 1 a check
failed, 2 usage errors (a bad flag prints "error: argument FLAG: reason")
or output that cannot be written.
Identical flags and seed produce byte-identical reports.
"""

from __future__ import annotations

import os
import sys
import types
from typing import TYPE_CHECKING, List, NoReturn, Optional

from .reports import (
    KINDS, Report, envelope, render_table, serialize_representation, to_json_text,
)

if TYPE_CHECKING:
    from .clifford import Signature

# Each subcommand imports the algebra layers it runs when it starts, so a
# process loads only those: obstructions -> charclass; verify -> clifford,
# reps, groups; examples -> bundles; build -> reps.

DEFAULT_SEED = 1

# Resource limits, enforced before any work starts.  Cost grows about
# 7-10x per unit of m (frame groups of order 2^(m+1), 2^m exterior forms),
# and linearly in the sample count.
MAX_M = 10
MAX_SAMPLES = 10_000


def _parse_signature(text: str) -> Signature:
    from .clifford import Signature

    try:
        k, l = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad signature {text!r}: expected k,l") from exc
    return Signature(k, l)


def _resolve_seed(args) -> Optional[str]:
    """Fill an unset seed from SPINWEAVE_SEED, else DEFAULT_SEED; name a bad env value."""
    if args.seed is not None:
        return None
    env = os.environ.get("SPINWEAVE_SEED", str(DEFAULT_SEED))
    try:
        args.seed = int(env)
    except ValueError:
        args.seed = 0
    return f"SPINWEAVE_SEED must be a positive integer, got {env!r}" if args.seed < 1 else None


# key -> (flag, lower, upper or None), for flags and config keys alike.  Below the
# bound a value "must be positive" (lower 1), "must not be negative" (lower 0), or
# what _BELOW says for its flags.
_BOUNDS = {"seed": ("--seed", 1, None), "samples": ("--samples", 1, MAX_SAMPLES),
           "max_m": ("--max-m", 0, MAX_M), "m": ("--m", 1, MAX_M)}
_BELOW = {"--seed": "be a positive integer", "--m": "be at least 1"}
_CONFIG_KEYS = ("seed", "samples", "max_m", "format")


def _outside(key: str, value: int, name: str) -> Optional[str]:
    """Why the value of key, called name in the message, is out of bounds, or None."""
    _, lower, upper = _BOUNDS[key]
    if value < lower:
        below = _BELOW.get(name, "be positive" if lower else "not be negative")
        return f"{name} must {below}, got {value}"
    if upper is not None and value > upper:
        return f"{name} must be at most {upper}, got {value}"
    return None


def _apply_config(args) -> Optional[str]:
    """Fill unset options from a JSON config file; flags always win."""
    if not getattr(args, "config", None):
        return None
    import json

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
        elif error := _outside(key, value, f"key {key!r}"):
            return error
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    return None


def _check_limits(args) -> Optional[str]:
    """Name the flag whose value is outside the documented limits, if any."""
    for key, (flag, _, _) in _BOUNDS.items():
        value = getattr(args, key, None)
        if value is not None and (error := _outside(key, value, flag)):
            return error
    sig = getattr(args, "sig", None)
    if sig is not None and sig.m > MAX_M:
        return f"--sig {sig.k},{sig.l} has m = {sig.m}; the limit is m <= {MAX_M}"
    if args.command == "examples" and args.name == "hermitean" and args.m % 2:
        return f"--m must be even for hermitean (the module lives on R^(2d)), got {args.m}"
    if args.command == "examples" and args.name == "quadric" and args.m != 2:
        return f"--m must be 2 for quadric (the example has no dimension parameter), got {args.m}"
    return None


def _write_stderr(text: str) -> None:
    """Write and flush text to stderr; drop it if fd 2 was closed (sys.stderr is None) or fails."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            pass


def _error(message: str) -> int:
    """Write "error: message" to stderr; return 2, the exit code of every such error."""
    _write_stderr(f"error: {message}\n")
    return 2


def _write_stdout(text: str, code: int) -> int:
    """Write and flush text to stdout; return code, or 2 if it cannot (None: fd 1 was closed)."""
    if sys.stdout is None:
        return _error("stdout: closed")
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        return _error(f"stdout: {exc.strerror or exc}")
    return code


def _emit(args, text: str, code: int) -> int:
    """Write the output to --out or stdout; return code, or 2 if it cannot be written."""
    if not args.out:
        return _write_stdout(text, code)
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _error(f"--out {args.out}: {exc.strerror or exc}")
    return code


def _emit_reports(args, reports: List[Report]) -> int:
    if args.format == "json":
        text = to_json_text(envelope(reports)) + "\n"
    else:
        text = render_table([r.to_json() for r in reports])
    return _emit(args, text, 0 if all(r.ok for r in reports) else 1)


def __getattr__(name):
    # ``build`` calls ``cli.build_rep``, bound to reps.build_rep on first use
    # so that importing the CLI loads no algebra layer; tests replace it.
    if name == "build_rep":
        from .reps import build_rep

        return build_rep
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cmd_build(args) -> int:
    try:
        rep = sys.modules[__name__].build_rep(args.sig, args.kind)
    except ValueError as exc:
        return _error(str(exc))
    doc = serialize_representation(rep)
    if args.format == "json":
        return _emit(args, to_json_text(doc) + "\n", 0)
    rows = [
        {"generator": f"e{i + 1}", "image": str(g).replace("\n", " ; ")}
        for i, g in enumerate(rep.images)
    ]
    header = f"{rep.kind} representation of {rep.sig}, dim {rep.dim}\n"
    return _emit(args, header + render_table(rows), 0)


def _signatures_for(args) -> List[Signature]:
    from .clifford import Signature

    if args.sig is not None:
        return [args.sig]
    out = []
    for m in range(1, args.max_m + 1):
        for k in range(m + 1):
            out.append(Signature(k, m - k))
    return out


def _verify_signature(sig: Signature, seed: int) -> List[Report]:
    from .groups import frame_group, verify_spinor_groups
    from .reps import build_rep, spin_space, verify_clifford, verify_spin_space

    ss = spin_space(sig)
    kinds = ("pauli", "pauli_twisted", "cartan") if sig.m % 2 else ("dirac", "weyl+", "weyl-")
    return (
        [verify_clifford(build_rep(sig, kind)) for kind in kinds]
        + verify_spin_space(ss)
        + verify_spinor_groups(frame_group(sig), seed)
    )


def cmd_verify(args) -> int:
    reports: List[Report] = []
    for sig in _signatures_for(args):
        reports.extend(_verify_signature(sig, args.seed))
    return _emit_reports(args, reports)


def cmd_obstructions(args) -> int:
    from . import charclass

    if args.catalog:
        try:
            with open(args.catalog) as fh:
                catalog = charclass.load_catalog(fh.read())
        except (OSError, ValueError) as exc:
            return _error(f"--catalog {args.catalog}: {getattr(exc, 'strerror', None) or exc}")
    else:
        catalog = charclass.builtin_catalog()
    if args.manifold:
        catalog = [m for m in catalog if m.name == args.manifold]
        if not catalog:
            return _error(f"manifold {args.manifold!r} not in catalog")
    rows = [charclass.structure_summary(m) for m in catalog]
    for row in rows:
        witness = row.pop("lpin_witness")
        row["lpin"] = f"T:{witness}" if row["lpin"] and witness else row["lpin"]
    if args.format == "json":
        return _emit(args, to_json_text({"schema": 1, "obstructions": rows}) + "\n", 0)
    return _emit(args, render_table(rows), 0)


def _run_example(name: str, m: int, samples: int, seed: int) -> List[Report]:
    from . import bundles
    from .clifford import Signature
    from .reps import spin_space

    examples = {
        "sphere": lambda: bundles.sphere_example_check(m, samples, seed),
        "projective": lambda: bundles.projective_example_check(m, samples, seed),
        "quadric": lambda: bundles.quadric_example_check(samples, seed),
        "exterior": lambda: bundles.exterior_example_check(Signature(m, 0)),
        "hermitean": lambda: bundles.hermitean_example_check(m // 2, samples, seed),
        "associated": lambda: bundles.associated_tau_welldefined(spin_space(Signature(m, 0))),
    }
    return [examples[name]()]


def cmd_examples(args) -> int:
    try:
        reports = _run_example(args.name, args.m, args.samples, args.seed)
    except ValueError as exc:
        return _error(str(exc))
    return _emit_reports(args, reports)


# The grammar: subcommand -> (handler, {flag: (converter or tuple of choices,
# default)}).  A flag sets the attribute named after it (--max-m -> max_m);
# "name" is the one positional, and a default of ... means required.
_COMMON = {"--out": (str, None), "--format": (("json", "table"), None),
           "--seed": (int, None), "--config": (str, None)}
_COMMANDS = {
    "build": (cmd_build, {"--sig": (_parse_signature, ...), "--kind": (KINDS, ...)}),
    "verify": (cmd_verify, {"--sig": (_parse_signature, None), "--max-m": (int, None)}),
    "obstructions": (cmd_obstructions, {"--catalog": (str, None), "--manifold": (str, None)}),
    "examples": (cmd_examples, {
        "name": (("sphere", "projective", "quadric", "exterior", "hermitean", "associated"), ...),
        "--m": (int, 2), "--samples": (int, None)}),
}


def _usage(command: Optional[str]) -> str:
    """The usage line of a subcommand, built from its table; None: of all four."""
    if command is None:
        return "\n       ".join(map(_usage, _COMMANDS))
    words = ["spinweave", command]
    for flag, (conv, default) in {**_COMMANDS[command][1], **_COMMON}.items():
        meta = ("{" + ",".join(conv) + "}" if isinstance(conv, tuple)
                else "K,L" if conv is _parse_signature else flag[2:].upper())
        word = f"{flag} {meta}" if flag[0] == "-" else meta
        words.append(word if default is ... else f"[{word}]")
    return " ".join(words)


def _parse_args(argv: Optional[List[str]] = None) -> types.SimpleNamespace:
    """Read argv as argparse would, but never abbreviate a flag.

    A flag takes ``--flag VALUE``, or ``--flag=VALUE``, with a value that
    starts with "-" only as a negative integer; a repeated flag keeps its last.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None

    def fail(flag: str, reason: str) -> None:
        _write_stderr(f"usage: {_usage(command)}\nerror: argument {flag}: {reason}\n")
        raise SystemExit(2)

    for token in argv[:1] if command is None else argv[1:]:
        if token in ("-h", "--help"):
            raise SystemExit(_write_stdout(f"usage: {_usage(command)}\n\n{__doc__ or ''}", 0))
    if command is None:
        fail("command", f"invalid choice: {argv[0]!r}" if argv else "required")
    func, flags = _COMMANDS[command]
    flags = {**flags, **_COMMON}
    values = {flag: default for flag, (_, default) in flags.items()}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=") if token[:1] == "-" else ("name", "", token)
        if flag not in flags or (flag == "name" and values[flag] is not ...):
            fail(flag if token[:1] == "-" else token, "unrecognized argument")
        if not eq and flag != "name":
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and not value[1:].isdigit()):
                fail(flag, "expected one argument")
        conv = flags[flag][0]
        try:
            if isinstance(conv, tuple) and value not in conv:
                raise ValueError(f"invalid choice: {value!r}")
            values[flag] = value if isinstance(conv, tuple) else conv(value)
        except ValueError as exc:
            fail(flag, str(exc))
    for flag, value in values.items():
        if value is ...:
            fail(flag, "required")
    return types.SimpleNamespace(command=command, func=func, **{
        flag.lstrip("-").replace("-", "_"): value for flag, value in values.items()})


def make_parser() -> types.SimpleNamespace:
    """The CLI's parser, whose parse_args is _parse_args; building it costs nothing."""
    return types.SimpleNamespace(parse_args=_parse_args)


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    error = _apply_config(args)
    if error is not None:
        return _error(f"bad config file: {error}")
    for key, value in (("format", "json"), ("max_m", 4), ("samples", 25)):
        if getattr(args, key, value) is None:  # unset by flag and config
            setattr(args, key, value)
    error = _check_limits(args) or _resolve_seed(args)
    if error is not None:
        return _error(error)
    return args.func(args)


def run() -> NoReturn:
    """Run main() as a process: flush stderr, then os._exit(code).

    ``python -m spinweave.cli`` and the ``spinweave`` script enter here; main() never calls
    os._exit.  Skipping finalization (module teardown, the last GC pass, freeing every cached
    matrix) saves its time and loses nothing: --out is closed by its ``with`` before main()
    returns, ``_write_stdout`` flushes every stdout write, spinweave registers no atexit
    handler and starts no thread, so only the stderr buffer can hold data, flushed here.
    """
    try:
        code = main()
    except SystemExit as exc:  # the parser's --help and usage errors
        code = exc.code
    _write_stderr("")
    os._exit(code)


if __name__ == "__main__":
    run()
