"""Command-line front end: analyze spaces, generate instances, run suites.

Exit codes: 0 on success, 1 on usage, input or I/O errors, 2 on hard verdict
failures (non-unique average level, a violated inequality chain, or any
failing verification suite, a dual-route mismatch included) so CI can tell
"math broke" apart from "bad invocation".
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from .chebyshev import DEFAULT_ENUM_CAP, chebyshev_table
from .core import RdvError, SchemaError, SubsetPair
from .energy import (
    dual_equilibrium,
    maximal_energy,
    order_side,
    wiener_energy,
)
from .minimax import average_interval, inequality_chain, rendezvous_number
from .optimize import QP_ENUM_LIMIT, subset_definiteness
from .report import AnalysisReport
from .spaces import (
    FAMILY_FIELDS,
    SpaceDescriptor,
    generate,
    load_space_file,
    report_to_csv,
    save_report,
    save_space,
    write_text,
)
from .structure import converse_check, invariant_measure
from .suites import (
    DEFAULT_MAX_POINTS,
    DEFAULT_SEEDS,
    SUITE_NAMES,
    dump_failures,
    run_suites,
)
from .tolerances import ANALYZE_TOLERANCES, VERIFY_TOLERANCES

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2
_HARD_CODES = {"UniquenessViolated"}

# short names of generator kinds; SpaceDescriptor checks any other name
_KIND_ALIASES = {"grid": "interval_grid", "random": "random_graph"}

_SPEC_RE = re.compile(r"([a-z_]+)\((.*)\)\Z")


def _parse_generator_spec(text: str) -> Optional[SpaceDescriptor]:
    """Parse ``kind(arg, ...)`` inline specs, whose arguments fill the family's
    ``FAMILY_FIELDS`` in order (extras are ignored); None when ``text`` is a path."""
    m = _SPEC_RE.match(text.strip())
    if m is None:
        return None
    kind = _KIND_ALIASES.get(m.group(1), m.group(1))
    args = [a.strip() for a in m.group(2).split(",") if a.strip()]
    values = {}
    try:
        if not args:
            raise ValueError("no arguments")
        for field, arg in zip(FAMILY_FIELDS.get(kind, ()), args):
            # a field parses as the type of its default: int, float or str
            values[field] = type(getattr(SpaceDescriptor, field))(arg)
    except ValueError as exc:
        raise SchemaError(f"bad generator arguments in {text!r}: {exc}") from exc
    return SpaceDescriptor(kind=kind, **values)


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise SchemaError(f"index list {text!r} must be comma-separated integers") from exc


def build_analysis(space, pair: SubsetPair, n_max: int = 4,
                   enum_cap: int = DEFAULT_ENUM_CAP,
                   dual_constant: Optional[float] = None) -> tuple[AnalysisReport, int]:
    """Full analysis of one space/pair; returns (report, exit code).

    Every solve is cached on its space, so the readers below share each LP,
    QP, scan and spectrum.  Everything reported about the dual kernel C - k
    (``w_dual``, ``equilibrium_dual``, its certificate, the Frostman
    verdicts and the maximal energy's dual route) is read from the maximal
    energy of k (``energy.dual_equilibrium``): no C - k is built.  The
    ``max_energy_dual_route`` scalar is C - ``w_dual``; it is reported on a
    metric with a certified concave maximum, or up to ``QP_ENUM_LIMIT``
    points.  The lower minimax value is read from the duals of the upper
    value's LP on the swapped pair, which the inequality chain reads too:
    one LP for H = L.  The independent checks run in ``rdv verify``: the
    lower value's own LP in ``--suite duality``, the dual route's
    (``energy.dual_route_check``, which solves C - k) in ``--suite wolf``.
    Where an invariant measure settles a pair with H = L (see
    ``average_interval``), that pair needs no LP at all.
    """
    pair.check_range(space.m)
    table = chebyshev_table(space, pair, n_max, enum_cap)
    avg = average_interval(space, pair)
    eq = dual_equilibrium(space, dual_constant)
    me = maximal_energy(space)
    w_pair = wiener_energy(space, pair.H)
    inv = invariant_measure(space, pair)
    # the verdict and eigenvalue of negative_type_test, with no witness vector
    nt = subset_definiteness(space, tuple(range(space.m)))
    chain = inequality_chain(space, pair, n_max=min(3, n_max), cap=enum_cap)
    conv = converse_check(space, pair)

    r = rendezvous_number(space)
    wolf = order_side(space, r, me.value)

    scalars = {
        "r": r,
        "q": avg.q_upper,
        "q_lower": avg.q_lower,
        "w": w_pair.value,
        "w_dual": eq.value,
        "max_energy": me.value,
        "invariance_gap": inv.gap,
        "chain_residual_lower": chain.residual_lower_side,
        "chain_residual_upper": chain.residual_upper_side,
        "chain_equality_residual": chain.equality_residual,
        "negative_type_eigenvalue": nt["lam_max"],
        "dual_constant": eq.constant,
    }
    for n, lo, hi in zip(table.n_values, table.lower, table.upper):
        scalars[f"chebyshev_low_{n}"] = lo
        scalars[f"chebyshev_high_{n}"] = hi
    if (space.is_metric and me.certificate == "global_concave_max") or space.m <= QP_ENUM_LIMIT:
        scalars["max_energy_dual_route"] = eq.constant - eq.value

    measures = {
        "q_opt": list(avg.mu_opt.weights),
        "q_lower_opt": list(avg.nu_opt.weights),
        "equilibrium_dual": list(eq.measure.weights),
        "max_energy_opt": list(me.measure.weights),
    }
    if inv.found:
        measures["invariant"] = list(inv.measure.weights)

    verdicts = {
        "negative_type": nt["nsd"],
        "frostman_a": eq.verdict_a,
        "frostman_b": eq.verdict_b,
        "frostman_c": eq.verdict_c,
        "wolf_upper": wolf.ok,
        "wolf_invariant_when_equal": wolf.invariant_when_equal,
        "chain_ok": chain.ok,
        "invariant_found": inv.found,
        "converse_kernel_ok": conv.kernel_form.passed,
        "converse_wolf_ok": conv.wolf_form is None or conv.wolf_form.passed,
    }
    parameters = {
        "H": [int(i) for i in pair.H],
        "L": [int(i) for i in pair.L],
        "n_max": int(n_max),
        "points": int(space.m),
        "is_metric": bool(space.is_metric),
        "chebyshev_skipped": [int(n) for n in table.skipped],
        "wolf_equality_applicable": wolf.equality_applicable,
        "converse_kernel_applicable": bool(conv.kernel_form.applicable),
        "converse_wolf_applicable": bool(conv.wolf_form is not None
                                         and conv.wolf_form.applicable),
        "certificate_w": w_pair.certificate,
        "certificate_max_energy": me.certificate,
        "certificate_equilibrium_dual": eq.certificate,
    }
    report = AnalysisReport(space_name=space.name, parameters=parameters,
                            scalars=scalars, measures=measures,
                            verdicts=verdicts, tolerances=dict(ANALYZE_TOLERANCES))
    code = EXIT_OK if chain.ok else EXIT_VERDICT
    return report, code


def cmd_analyze(args) -> int:
    desc = _parse_generator_spec(args.input)
    if desc is not None:
        space, file_pair = generate(desc), None
    else:
        space, file_pair = load_space_file(args.input)
    # --H and --L replace the file's subsets; an omitted subset is all points
    pair = file_pair
    if pair is None or args.H is not None or args.L is not None:
        H = _parse_indices(args.H) if args.H is not None else tuple(range(space.m))
        L = _parse_indices(args.L) if args.L is not None else tuple(range(space.m))
        pair = SubsetPair(H, L)

    report, code = build_analysis(space, pair, n_max=args.n_max,
                                  enum_cap=args.enum_cap,
                                  dual_constant=args.dual_constant)
    if args.format == "csv":
        write_text(report_to_csv(report), args.out or None)
    else:
        save_report(report, args.out or None)
    return code


def cmd_generate(args) -> int:
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    # only the family's own flags: another family's flags are not read
    values = {field: getattr(args, field) for field in FAMILY_FIELDS.get(kind, ())}
    desc = SpaceDescriptor(kind=kind, **values)
    save_space(generate(desc, args.cap), args.out or None)
    return EXIT_OK


def cmd_verify(args) -> int:
    reports = run_suites(args.suite, args.seeds, args.max_points)
    all_ok = True
    for rep in reports:
        for outcome in rep.outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            print(f"{outcome.name}: {status}  {outcome.detail}")
        good, total = rep.counts
        all_ok = all_ok and rep.passed
        print(f"{rep.suite}: {good}/{total} pass")
        print(f"suite: {rep.suite} {rep.seconds:.3f}s", file=sys.stderr)
    if args.out:
        verdicts = {o.name: o.passed for rep in reports for o in rep.outcomes}
        good = sum(1 for v in verdicts.values() if v)
        summary = AnalysisReport(
            space_name="verify",
            parameters={"suite": args.suite, "seeds": int(args.seeds),
                        "max_points": int(args.max_points)},
            scalars={"passed": float(good), "total": float(len(verdicts))},
            measures={},
            verdicts=verdicts,
            tolerances=dict(VERIFY_TOLERANCES),
        )
        save_report(summary, args.out)
    if not all_ok:
        directory = os.path.dirname(os.path.abspath(args.out)) if args.out else os.getcwd()
        for path in dump_failures(reports, directory):
            print(f"dumped failing space to {path}")
    return EXIT_OK if all_ok else EXIT_VERDICT


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting ``EXIT_INPUT``; argparse's own 2
    would read as a verdict failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rdv",
        description="Potential-theoretic analysis of finite kernel spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a space file or inline generator spec")
    p_an.add_argument("input", help="space file path, or spec like 'grid(11)' or "
                                    "'circle(8,chord,1.0)'")
    p_an.add_argument("--H", default=None, help="comma-separated support indices")
    p_an.add_argument("--L", default=None, help="comma-separated evaluation indices")
    p_an.add_argument("--n-max", type=int, default=4, dest="n_max",
                      help="largest multiset order for the Chebyshev table (at least 1)")
    p_an.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                      help="multiset enumeration budget per order")
    p_an.add_argument("--dual-constant", type=float, default=None,
                      help="constant C for the dual kernel C - k (default: max entry)")
    p_an.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_an.add_argument("--format", choices=("report-file", "csv"), default="report-file")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="generate a space file")
    p_gen.add_argument("kind", help="interval_grid|grid, circle, hypercube, random_graph|random")
    p_gen.add_argument("--m", "--n", type=int, default=0, dest="m",
                       help="number of points")
    p_gen.add_argument("--metric", choices=("chord", "arc"), default="chord")
    p_gen.add_argument("--radius", type=float, default=1.0)
    p_gen.add_argument("--dim", type=int, default=1, help="hypercube dimension")
    p_gen.add_argument("--edge-prob", type=float, default=0.5, dest="edge_prob")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--cap", type=int, default=None,
                       help="point-count cap override (also via RDV_CAP)")
    p_gen.add_argument("--out", default=None, help="write the space file here")
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="run seeded verification suites; "
                                          "each suite's wall time goes to stderr")
    p_ver.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p_ver.add_argument("--seeds", type=int, default=DEFAULT_SEEDS)
    p_ver.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS,
                       dest="max_points")
    p_ver.add_argument("--out", default=None, help="write a summary report here")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error[IoError] {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RdvError as exc:
        print(f"error[{exc.code}] {exc}", file=sys.stderr)
        return EXIT_VERDICT if exc.code in _HARD_CODES else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
