"""Command-line front end: analyze spaces, generate instances, run suites.

Exit codes: 0 on success, 1 on input or I/O errors, 2 on hard verdict
failures (non-unique average level, dual-route mismatch, a violated
inequality chain, or any failing verification suite) so CI can tell
"math broke" apart from "bad invocation".
"""
from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Optional

from .chebyshev import DEFAULT_ENUM_CAP, chebyshev_table
from .core import RdvError, SchemaError, SubsetPair, dual_kernel
from .energy import (
    EQUALITY_TOL,
    FROSTMAN_TOL,
    ORDER_TOL,
    frostman_check,
    maximal_energy,
    wiener_energy,
)
from .minimax import GAP_UNIQUE_TOL, average_interval, inequality_chain, rendezvous_number
from .report import AnalysisReport
from .spaces import (
    SpaceDescriptor,
    generate,
    load_space_file,
    report_to_csv,
    save_report,
    save_space,
    write_text,
)
from .spectral import DEFINITENESS_TOL
from .structure import (
    AGREEMENT_TOL,
    INVARIANCE_TOL,
    converse_check,
    invariant_measure,
    negative_type_test,
)
from .suites import (
    DEFAULT_MAX_POINTS,
    DEFAULT_SEEDS,
    SUITE_NAMES,
    dump_failures,
    run_suites,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2
_HARD_CODES = {"UniquenessViolated", "DualMismatch"}

_KIND_ALIASES = {
    "interval_grid": "interval_grid",
    "grid": "interval_grid",
    "circle": "circle",
    "hypercube": "hypercube",
    "random_graph": "random_graph",
    "random": "random_graph",
}

_SPEC_RE = re.compile(r"([a-z_]+)\((.*)\)\Z")


def _parse_generator_spec(text: str) -> Optional[SpaceDescriptor]:
    """Parse ``kind(arg, ...)`` inline specs; None when ``text`` is a path."""
    m = _SPEC_RE.match(text.strip())
    if m is None:
        return None
    kind = _KIND_ALIASES.get(m.group(1))
    if kind is None:
        raise SchemaError(f"unknown generator kind {m.group(1)!r}")
    args = [a.strip() for a in m.group(2).split(",") if a.strip()]
    try:
        if kind == "interval_grid":
            return SpaceDescriptor(kind=kind, m=int(args[0]))
        if kind == "circle":
            metric = args[1] if len(args) > 1 else "chord"
            radius = float(args[2]) if len(args) > 2 else 1.0
            return SpaceDescriptor(kind=kind, m=int(args[0]), metric=metric, radius=radius)
        if kind == "hypercube":
            return SpaceDescriptor(kind=kind, dim=int(args[0]))
        edge_prob = float(args[1]) if len(args) > 1 else 0.5
        seed = int(args[2]) if len(args) > 2 else 0
        return SpaceDescriptor(kind=kind, m=int(args[0]), edge_prob=edge_prob, seed=seed)
    except (IndexError, ValueError) as exc:
        raise SchemaError(f"bad generator arguments in {text!r}: {exc}") from exc


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise SchemaError(f"index list {text!r} must be comma-separated integers") from exc


def build_analysis(space, pair: SubsetPair, n_max: int = 4,
                   frostman_tol: float = FROSTMAN_TOL,
                   enum_cap: int = DEFAULT_ENUM_CAP,
                   dual_constant: Optional[float] = None) -> tuple[AnalysisReport, int]:
    """Full analysis of one space/pair; returns (report, exit code).

    Every solve is cached on its space, so the readers below share each LP,
    QP, scan and spectrum.  Two second solves stay on purpose, as
    independent checks: the lower minimax value is its own LP beside the
    upper one, and the maximal energy's dual route (C minus the dual
    kernel's minimal energy) is its own QP beside the direct one.  Where an
    invariant measure settles a pair with H = L (see ``average_interval``),
    that pair needs no LP at all.
    """
    pair.check_range(space.m)
    table = chebyshev_table(space, pair, n_max, enum_cap)
    avg = average_interval(space, pair)
    dual, C = dual_kernel(space, dual_constant)
    eq = wiener_energy(dual)
    me = maximal_energy(space, dual_constant)
    w_pair = wiener_energy(space, pair.H)
    inv = invariant_measure(space, pair)
    nt = negative_type_test(space)
    chain = inequality_chain(space, pair, n_max=min(3, n_max), cap=enum_cap)
    conv = converse_check(space, pair)
    fr = frostman_check(dual, range(space.m), eq.measure, frostman_tol)

    r = rendezvous_number(space)
    wolf_upper = bool(r <= me.value + ORDER_TOL)
    wolf_equality = bool(abs(r - me.value) <= EQUALITY_TOL)
    wolf_invariant = (not wolf_equality
                      or bool(invariant_measure(space, SubsetPair.full(space.m)).found))

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
        "negative_type_eigenvalue": nt.extreme_eigenvalue,
        "dual_constant": C,
    }
    for n, lo, hi in zip(table.n_values, table.lower, table.upper):
        scalars[f"chebyshev_low_{n}"] = lo
        scalars[f"chebyshev_high_{n}"] = hi
    if me.dual_value is not None:
        scalars["max_energy_dual_route"] = me.dual_value

    measures = {
        "q_opt": list(avg.mu_opt.weights),
        "q_lower_opt": list(avg.nu_opt.weights),
        "equilibrium_dual": list(eq.measure.weights),
        "max_energy_opt": list(me.measure.weights),
    }
    if inv.found:
        measures["invariant"] = list(inv.measure.weights)

    verdicts = {
        "negative_type": nt.holds,
        "frostman_a": fr.verdict_a,
        "frostman_b": fr.verdict_b,
        "frostman_c": fr.verdict_c,
        "wolf_upper": wolf_upper,
        "wolf_invariant_when_equal": wolf_invariant,
        "chain_ok": chain.ok,
        "invariant_found": inv.found,
        "converse_kernel_ok": (not conv.kernel_form.applicable) or bool(conv.kernel_form.ok),
        "converse_wolf_ok": (conv.wolf_form is None
                             or not conv.wolf_form.applicable
                             or bool(conv.wolf_form.ok)),
    }
    parameters = {
        "H": [int(i) for i in pair.H],
        "L": [int(i) for i in pair.L],
        "n_max": int(n_max),
        "points": int(space.m),
        "is_metric": bool(space.is_metric),
        "chebyshev_skipped": [int(n) for n in table.skipped],
        "wolf_equality_applicable": wolf_equality,
        "converse_kernel_applicable": bool(conv.kernel_form.applicable),
        "converse_wolf_applicable": bool(conv.wolf_form is not None
                                         and conv.wolf_form.applicable),
        "certificate_w": w_pair.certificate,
        "certificate_max_energy": me.certificate,
        "certificate_equilibrium_dual": eq.certificate,
    }
    tolerances = {
        "duality_gap": GAP_UNIQUE_TOL,
        "uniqueness": GAP_UNIQUE_TOL,
        "chain": GAP_UNIQUE_TOL,
        "invariance": INVARIANCE_TOL,
        "agreement": AGREEMENT_TOL,
        "frostman": frostman_tol,
        "negative_type": DEFINITENESS_TOL,
    }
    report = AnalysisReport(space_name=space.name, parameters=parameters,
                            scalars=scalars, measures=measures,
                            verdicts=verdicts, tolerances=tolerances)
    code = EXIT_OK if chain.ok else EXIT_VERDICT
    return report, code


def cmd_analyze(args) -> int:
    desc = _parse_generator_spec(args.input)
    if desc is not None:
        space, file_pair = generate(desc), None
    else:
        space, file_pair = load_space_file(args.input)
    if args.H is not None or args.L is not None:
        H = _parse_indices(args.H) if args.H is not None else tuple(range(space.m))
        L = _parse_indices(args.L) if args.L is not None else tuple(range(space.m))
        pair = SubsetPair(H, L)
    elif file_pair is not None:
        pair = file_pair
    else:
        pair = SubsetPair.full(space.m)

    report, code = build_analysis(space, pair, n_max=args.n_max,
                                  frostman_tol=args.frostman_tol,
                                  enum_cap=args.enum_cap,
                                  dual_constant=args.dual_constant)
    if args.format == "csv":
        write_text(report_to_csv(report), args.out or None)
    else:
        save_report(report, args.out or None)
    return code


def cmd_generate(args) -> int:
    kind = _KIND_ALIASES.get(args.kind)
    if kind is None:
        raise SchemaError(f"unknown generator kind {args.kind!r}")
    m = args.m if args.m is not None else 0
    if kind == "hypercube":
        desc = SpaceDescriptor(kind=kind, dim=args.dim)
    elif kind == "circle":
        desc = SpaceDescriptor(kind=kind, m=m, metric=args.metric, radius=args.radius)
    elif kind == "random_graph":
        desc = SpaceDescriptor(kind=kind, m=m, edge_prob=args.edge_prob, seed=args.seed)
    else:
        desc = SpaceDescriptor(kind=kind, m=m)
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
            tolerances={"duality_gap": GAP_UNIQUE_TOL, "chain": GAP_UNIQUE_TOL,
                        "frostman": FROSTMAN_TOL, "invariance": INVARIANCE_TOL,
                        "order": ORDER_TOL},
        )
        save_report(summary, args.out)
    if not all_ok:
        directory = os.path.dirname(os.path.abspath(args.out)) if args.out else os.getcwd()
        for path in dump_failures(reports, directory):
            print(f"dumped failing space to {path}")
    return EXIT_OK if all_ok else EXIT_VERDICT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_an.add_argument("--frostman-tol", type=float, default=FROSTMAN_TOL)
    p_an.add_argument("--enum-cap", type=int, default=DEFAULT_ENUM_CAP,
                      help="multiset enumeration budget per order")
    p_an.add_argument("--dual-constant", type=float, default=None,
                      help="constant C for the dual kernel C - k (default: max entry)")
    p_an.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_an.add_argument("--format", choices=("report-file", "csv"), default="report-file")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="generate a space file")
    p_gen.add_argument("kind", help="interval_grid|grid, circle, hypercube, random_graph|random")
    p_gen.add_argument("--m", "--n", type=int, default=None, dest="m",
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

    p_ver = sub.add_parser("verify", help="run seeded verification suites")
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
