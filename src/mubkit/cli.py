"""Command-line front-end.

Subcommands cover the whole pipeline: generate and combine MOLS, convert
between MOLS and nets, build / verify / tensor sets of mutually unbiased
bases, and compare counting strategies for a dimension.

Exit codes: 0 all requested checks passed, 1 a verification failed,
2 usage or parse error, or a stdout closed early.  Output is
deterministic; --json swaps the human summary on stdout for the module
JSON schema of the result.  mub build and mub tensor write and print a
set only after it passed every check.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

# Each handler imports the modules it uses, so a process loads only what
# its command runs: plan never loads the verifier, mub verify never loads
# the planner or the MOLS and net code.

_VIOLATION_LIMIT = 50


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _load_imports(args) -> planner.ImportsTable | None:
    """The table read from --imports or MUBKIT_IMPORTS; None when neither
    is set, so a build without imports never loads the planner."""
    path = getattr(args, "imports", None) or os.environ.get("MUBKIT_IMPORTS")
    if not path:
        return None
    from . import planner

    return planner.ImportsTable.from_dir(path)


# -- rendering ---------------------------------------------------------------

def _entry_token(exp: int | None, m: int) -> str:
    if exp is None:
        return "0"
    if exp == 0:
        return "1"
    if 2 * exp == m:
        return "-1"
    if exp == 1:
        return "w"
    return f"w^{exp}"


def render_mubs(x: mub.MubSet) -> str:
    """Human listing of an exact set, one line per vector."""
    m = x.root_order
    head = f"d = {x.dim}, k = {x.k} bases, root order {m}"
    if m > 2:
        head += f" (w = exp(2*pi*i/{m}))"
    lines = [head]
    tokens: list[list[str]] = []
    for basis in x.bases:
        for vec in basis.vectors:
            amp = vec.amp_map()
            f = m // vec.root_order
            tokens.append([
                _entry_token(amp[p] * f % m if p in amp else None, m)
                for p in range(x.dim)
            ])
    width = max(len(t) for row in tokens for t in row)
    row_iter = iter(tokens)
    for b, basis in enumerate(x.bases, start=1):
        lines.append(f"basis {b}:")
        for vec in basis.vectors:
            body = " ".join(t.rjust(width) for t in next(row_iter))
            scale = f"1/sqrt({vec.norm_sq}) * " if vec.norm_sq != 1 else ""
            lines.append(f"  {scale}[{body}]")
    return "\n".join(lines)


def _print_mols(m: latin.MolsSet, note: str) -> None:
    print(f"order {m.order}, {m.width} squares ({note})")
    for idx, sq in enumerate(m.squares, start=1):
        print(f"square {idx}:")
        for row in sq.grid:
            print("  " + " ".join(str(v) for v in row))


def _emit(args, encode, show) -> None:
    """Write the document text encode() returns to -o FILE and print it
    under --json, encoding it at most once; without --json show() prints
    the human text instead.  A file that cannot be written is a ValueError
    (exit 2), raised before anything is printed."""
    text = encode() if args.output or args.json else ""
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc}") from None
    if args.json:
        print(text, end="")
    else:
        show()


def _emit_mols(m: latin.MolsSet, args, note: str) -> None:
    from . import latin, serial

    _emit(args, lambda: serial.dumps(latin.mols_to_dict(m)), lambda: _print_mols(m, note))


# -- verification plumbing ---------------------------------------------------

def _modes(args, x: mub.MubSet, file) -> list[str]:
    """Resolve the requested verification modes against the data; only mub
    verify has --float or reads sets that are not exact."""
    if args.both:
        if not x.is_exact:
            raise ValueError("--both needs exponent amplitudes; this set is float-only")
        return ["exact", "float"]
    if getattr(args, "float", False):
        return ["float"]
    if not x.is_exact:
        print("note: float amplitudes only; using the float oracle", file=file)
        return ["float"]
    return ["exact"]


def _violation_lines(violations, where) -> list[str]:
    """A line per violation v, naming where(v), for at most _VIOLATION_LIMIT
    of them, then the number left out."""
    lines = [f"  {v.kind}: {where(v)}: {v.detail}" for v in violations[:_VIOLATION_LIMIT]]
    if len(violations) > _VIOLATION_LIMIT:
        lines.append(f"  ... and {len(violations) - _VIOLATION_LIMIT} more")
    return lines


def _report_lines(report: mub.MubReport) -> list[str]:
    if report.ok:
        return [f"verification ({report.mode}): ok"]
    return [f"verification ({report.mode}): FAILED, {len(report.violations)} violations",
            *_violation_lines(report.violations, lambda v: f"basis {v.basis} vector {v.index}"
                              f" vs basis {v.basis2} vector {v.index2}")]


def _verify(x: mub.MubSet, args, file) -> tuple[str, int]:
    """Run the requested oracles on x: the report text and the exit status,
    0 when every check passed and the oracles agree, else 1."""
    from . import mub

    reports = [mub.verify_mubs(x, mode=mode, jobs=args.jobs) for mode in _modes(args, x, file)]
    lines = [line for report in reports for line in _report_lines(report)]
    ok = all(r.ok for r in reports)
    if len(reports) == 2:
        same = (reports[0].ok == reports[1].ok
                and reports[0].failing_pairs() == reports[1].failing_pairs())
        lines.append(f"oracle agreement: {'ok' if same else 'DISAGREE'}")
        ok = ok and same
    return "\n".join(lines), 0 if ok else 1


# -- mols --------------------------------------------------------------------

def cmd_mols_gen(args) -> int:
    from . import latin

    s = args.order
    if s < 2:
        return _fail(f"order must be >= 2, got {s}")
    if args.cyclic:
        m = latin.MolsSet(s, (latin.cyclic_square(s),))
        _emit_mols(m, args, "cyclic")
        return 0
    from .arith import prime_power

    # above MAX_ORDER the complete set refuses the order before factoring it
    if s <= latin.MAX_ORDER and prime_power(s) is None:
        return _fail(f"order {s} is not a prime power; use --cyclic or product")
    m = latin.complete_mols_prime_power(s)
    _emit_mols(m, args, "complete set")
    return 0


def cmd_mols_verify(args) -> int:
    from . import latin

    try:
        m = latin.import_mols(args.file)
    except (latin.NotLatinError, latin.NotOrthogonalError) as exc:
        print(f"verification failed: {exc}")
        return 1
    print(f"ok: {m.width} mutually orthogonal Latin squares of order {m.order}")
    return 0


def cmd_mols_product(args) -> int:
    from . import latin

    a = latin.import_mols(args.file_a)
    b = latin.import_mols(args.file_b)
    m = latin.macneish_product(a, b)
    _emit_mols(m, args, "product")
    return 0


# -- net ---------------------------------------------------------------------

def cmd_net_from_mols(args) -> int:
    from . import latin, net, serial

    n = net.net_from_mols(latin.import_mols(args.file))
    _emit(args, lambda: serial.dumps(net.net_to_dict(n)),
          lambda: print(f"net: s = {n.s}, k = {n.k}, d = {n.d}"))
    return 0


def cmd_net_to_mols(args) -> int:
    from . import net

    n = net.load_net(args.file)
    try:
        m = net.mols_from_net(n)
    except ValueError as exc:
        if str(exc).startswith("Inconsistent"):
            print(f"verification failed: {exc}")
            return 1
        raise
    _emit_mols(m, args, "from net")
    return 0


def cmd_net_verify(args) -> int:
    from . import net

    n = net.load_net(args.file)
    report = net.verify_net(n)
    if report.ok:
        print(f"ok: ({report.k},{report.s})-net, 0 violations")
        return 0
    print(f"verification failed: {len(report.violations)} violations")
    lines = _violation_lines(report.violations, lambda v: f"block {v.block} vector {v.index}" + (
        "" if v.block2 is None else f" vs block {v.block2} vector {v.index2}"))
    print("\n".join(lines))
    return 1


# -- mub ---------------------------------------------------------------------

def _check_and_emit(x: mub.MubSet, args, render: bool) -> int:
    """Verify x, then emit it only if every check passed: write -o FILE,
    print the JSON document under --json, else the rendering (render) or a
    summary line.  The reports follow on stdout, or on stderr under --json
    so stdout stays parseable; a failing set prints its reports alone."""
    from . import mub

    dest = sys.stderr if args.json else sys.stdout
    text, status = _verify(x, args, dest)
    if status == 0:
        _emit(args, lambda: mub.mubs_to_json(x), lambda: print(
            render_mubs(x) if render else f"d = {x.dim}, k = {x.k} bases (tensor)"))
    print(text, file=dest)
    return status


def cmd_mub_build(args) -> int:
    from . import hadamard, latin, mub, net

    s = args.square
    if s < 2:
        return _fail(f"--square must be >= 2, got {s}")
    table = _load_imports(args)
    imported = None if table is None else table.mols.get(s)
    # the set best_mols would give has w + 2 bases: refuse it before building any MOLS
    mub.bound_build(latin.best_mols_width(s, imported) + 2, s)
    n = net.net_from_mols(latin.best_mols(s, imported=imported))
    return _check_and_emit(mub.build_mubs(n, hadamard.dft(s)), args, render=True)


def cmd_mub_verify(args) -> int:
    from . import mub, serial

    x = mub.mubs_from_dict(serial.read_json(args.file))
    print(f"d = {x.dim}, k = {x.k} bases")
    text, status = _verify(x, args, sys.stdout)
    print(text)
    return status


def cmd_mub_tensor(args) -> int:
    from . import mub

    try:
        a = mub.import_mubs(args.file_a)
        b = mub.import_mubs(args.file_b)
    except mub.VerificationFailedError as exc:
        print(f"verification failed on input: {exc}")
        return 1
    return _check_and_emit(mub.tensor_mubs(a, b), args, render=False)


# -- plan --------------------------------------------------------------------

def cmd_plan(args) -> int:
    from . import arith, planner

    table = _load_imports(args)
    result = planner.plan(args.dim, table)
    if args.json:
        from . import serial

        print(serial.dumps(result.to_dict()), end="")
        return 0
    factors = " x ".join(
        f"{p}^{e}" if e > 1 else str(p) for p, e in arith.factorize(result.d)
    )
    print(f"d = {result.d} = {factors}" if "x" in factors or "^" in factors
          else f"d = {result.d}")
    print(f"best: {result.best_count} ({planner.count_tag(result.best)})")
    print(f"constructible: {result.best_constructible_count}")
    print(f"reduce-to-prime-powers: {result.prime_power_reduction_count}")
    print(f"best route: {result.best.describe()}")
    print(f"constructible route: {result.best_constructible.describe()}")
    return 0


# -- parser ------------------------------------------------------------------

def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", metavar="FILE", help="write the result as JSON to FILE")
    p.add_argument("--json", action="store_true", help="print JSON instead of a human summary")


def _add_verify_flags(p: argparse.ArgumentParser):
    """--both and --jobs; returns the group --both excludes the rest of."""
    group = p.add_mutually_exclusive_group()
    group.add_argument("--both", action="store_true",
                       help="run the float oracle after the exact one and fail on any"
                       " disagreement")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="spread the float oracle's basis pairs over N worker processes")
    return group


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged and returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="mubkit",
        description="Construct and verify mutually unbiased bases in square dimensions.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    mols_p = top.add_parser("mols", help="generate, verify and combine Latin squares")
    mols_sub = mols_p.add_subparsers(dest="subcommand", required=True)
    p = mols_sub.add_parser("gen", help="generate a MOLS set")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cyclic", action="store_true", help="one cyclic square instead of a complete set")
    _add_output_flags(p)
    p.set_defaults(func=cmd_mols_gen)
    p = mols_sub.add_parser("verify", help="re-verify a MOLS file")
    p.add_argument("file")
    p.set_defaults(func=cmd_mols_verify)
    p = mols_sub.add_parser("product", help="MacNeish product of two MOLS files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_output_flags(p)
    p.set_defaults(func=cmd_mols_product)

    net_p = top.add_parser("net", help="convert between MOLS and nets, verify nets")
    net_sub = net_p.add_subparsers(dest="subcommand", required=True)
    p = net_sub.add_parser("from-mols", help="build the net of a MOLS file")
    p.add_argument("file")
    _add_output_flags(p)
    p.set_defaults(func=cmd_net_from_mols)
    p = net_sub.add_parser("to-mols", help="read the MOLS back out of a net file")
    p.add_argument("file")
    _add_output_flags(p)
    p.set_defaults(func=cmd_net_to_mols)
    p = net_sub.add_parser("verify", help="verify a net file")
    p.add_argument("file")
    p.set_defaults(func=cmd_net_verify)

    mub_p = top.add_parser("mub", help="build, verify and tensor mutually unbiased bases")
    mub_sub = mub_p.add_subparsers(dest="subcommand", required=True)
    p = mub_sub.add_parser("build", help="k bases of C^(s^2) from MOLS and the size-s DFT")
    p.add_argument("--square", type=int, required=True, metavar="S",
                   help="side s of the dimension d = s^2")
    p.add_argument("--imports", metavar="DIR", help="directory of imported tables")
    _add_output_flags(p)
    _add_verify_flags(p)
    p.set_defaults(func=cmd_mub_build)
    p = mub_sub.add_parser("verify", help="verify a mub file")
    p.add_argument("file")
    _add_verify_flags(p).add_argument(
        "--float", action="store_true",
        help="use the floating-point oracle instead of exact arithmetic")
    p.set_defaults(func=cmd_mub_verify)
    p = mub_sub.add_parser("tensor", help="tensor two verified mub files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_output_flags(p)
    _add_verify_flags(p)
    p.set_defaults(func=cmd_mub_tensor)

    p = top.add_parser("plan", help="compare guaranteed counts for a dimension")
    p.add_argument("dim", type=int)
    p.add_argument("--imports", metavar="DIR", help="directory of imported tables")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_plan)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        return _fail("--jobs must be >= 1")
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:
        # the flush at exit writes what is left to devnull, so it cannot
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _fail(f"cannot write stdout: {exc}")
    except ValueError as exc:  # serial.ParseError among them
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
