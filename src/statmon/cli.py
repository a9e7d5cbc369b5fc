"""Command-line frontend: JSON/CSV output for scripts and plotting tools."""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import importlib.util
import json
import os
import sys
from pathlib import Path

from . import region
from .errors import ConvergenceError, InfeasibleError, StatmonError, ValidationError


def _lazy(name: str):
    """statmon.<name>, put in sys.modules now but run on its first attribute
    access, so a command pays only for the layers it reaches.  LazyLoader is
    not thread-safe before Python 3.12: touch these from the main thread."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every layer but region is bound lazily, so `check`, `--help` and usage
# errors never import numpy, and `state`, `v` and `surface` run only state3.
# Each sits in sys.modules from the start, where perfbench's tracer looks it
# up, even the ones no command here reads.
eigh, extremal, group_core, monogamy, npartite, observables, selftest, state3, states = map(
    _lazy,
    ("eigh", "extremal", "group_core", "monogamy", "npartite", "observables", "selftest", "state3", "states"),
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OUTSIDE = 2  # mathematically valid input, outside region / infeasible


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits with 2 by default; 2 is reserved for region verdicts
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _round_floats(obj):
    """Round every float to 12 significant digits for diff-friendly output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit(obj, stream=None) -> None:
    print(json.dumps(_round_floats(obj), indent=2), file=stream or sys.stdout)


def _parse_sign_flag(text: str) -> int:
    try:
        return state3.parse_sign(text if text in ("+", "-") else int(text))
    except ValueError:  # int() failed, or a number other than +-1
        raise argparse.ArgumentTypeError(f"sign must be + or -, got {text!r}") from None


def _unique_keys(pairs: list) -> dict:
    """json.loads hook: refuse a repeated key instead of keeping its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = collections.Counter(k for k, _ in pairs)
        raise ValidationError(f"repeated JSON keys {sorted(k for k in counts if counts[k] > 1)}")
    return obj


def _read_json(source: str):
    try:
        return json.loads(Path(source).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{source}: invalid JSON ({exc})") from None


def _output(path: str | None):
    """The --out file, or stdout when none is given."""
    return open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext(sys.stdout)


def _resolve_state(source: str) -> tuple[int, list]:
    """Box count and canonical-order amplitudes of a catalog name (chi
    excluded: it needs parameters) or a state JSON file path."""
    if source == "chi":
        raise ValidationError("chi needs parameters; use `statmon state --name chi ...`")
    if source in region.NAMED_STATES:
        return 3, state3.named_amplitudes(source)
    if not Path(source).exists():
        raise ValidationError(
            f"{source!r} is neither a named state {region.NAMED_STATES} nor a file"
        )
    return state3.read_state(_read_json(source))


def _parse_v(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--v needs three comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--v entries must be numbers, got {text!r}") from None


def _parse_pairs(text: str, flag: str, sep: str, convert, what: str, unique: bool = False) -> list:
    """Ordered (Pair, value) entries of a comma-separated LABEL<sep>VALUE list."""
    entries, seen = [], set()
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        label, found, value_text = chunk.partition(sep)
        if not found:
            raise ValidationError(f"{flag} entries look like AB{sep}1, got {chunk!r}")
        pair = group_core.Pair.parse(label)
        if unique and pair in seen:
            raise ValidationError(f"{flag} names pair {pair} twice")
        seen.add(pair)
        try:
            entries.append((pair, convert(value_text)))
        except ValueError:
            raise ValidationError(f"{flag} values must be {what}, got {value_text!r}") from None
    return entries


def _infer_boxes(pairs, explicit: int | None) -> int:
    """--n as given, or the fewest boxes that hold every named pair."""
    return explicit if explicit is not None else max((p.y + 1 for p in pairs), default=2)


def _cmd_state(args) -> int:
    chi = {k: getattr(args, k) for k in state3.CHI_PARAMS if getattr(args, k) is not None}
    if args.name is None and chi:
        raise ValidationError("--theta, --phi, --s1 and --s2 apply to --name chi only")
    if args.name is None:
        n, amps = _resolve_state(args.file)
    elif args.name == "chi" and len(chi) < len(state3.CHI_PARAMS):
        missing = ", ".join(f"--{k}" for k in state3.CHI_PARAMS if k not in chi)
        raise ValidationError(f"chi needs --theta, --phi, --s1 and --s2; missing {missing}")
    else:
        n, amps = 3, state3.named_amplitudes(args.name, **chi)
    with _output(args.out) as fh:
        _emit(state3.state_jsonable(n, amps), fh)
    return EXIT_OK


def _cmd_v(args) -> int:
    n, amps = _resolve_state(args.state)
    _emit({"n": n, "pairs": list(state3.pair_labels(n)), "v": list(state3.v_of_amplitudes(n, amps))})
    return EXIT_OK


def _cmd_check(args) -> int:
    check = region.RegionCheck.evaluate(_parse_v(args.v), theta_grid=args.theta_grid)
    _emit(check.to_jsonable())
    return EXIT_OK if check.inside else EXIT_OUTSIDE


def _cmd_surface(args) -> int:
    thetas, phis = state3.mesh_axes(args.theta_steps, args.phi_steps)
    v_rows = (v for _, v, _ in state3.boundary_rows(thetas, phis))
    with _output(args.out) as fh:
        state3.write_boundary_csv(thetas, phis, v_rows, fh)
    return EXIT_OK


def _cmd_audit(args) -> int:
    mixed = args.samples // 10 if args.mixed else 0
    report = monogamy.region_audit(args.samples, args.seed, mixed_samples=mixed)
    _emit(report.to_jsonable())
    return EXIT_OK if report.violations == 0 else EXIT_OUTSIDE


def _cmd_extremal(args) -> int:
    fixed = _parse_pairs(args.fix or "", "--fix", "=", int, "+1 or -1")
    weights = _parse_pairs(args.objective, "--objective", ":", float, "numbers", unique=True)
    n = _infer_boxes([p for p, _ in fixed + weights], args.n)
    objective = extremal.Objective.from_pairs(n, dict(weights))
    result = extremal.constrained_extremal([extremal.Constraint(p, v) for p, v in fixed], objective)
    _emit(result.to_jsonable())
    return EXIT_OK


def _cmd_scenario(args) -> int:
    graph = npartite.ScenarioGraph.from_jsonable(_read_json(args.file))
    report = npartite.scenario_report(graph)
    _emit(report.to_jsonable())
    # feasible is None when free edges leave the answer to the bounds
    return EXIT_OUTSIDE if report.feasible is False else EXIT_OK


def _cmd_selftest(args) -> int:
    results = selftest.run_selftest()
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="statmon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state", help="resolve a named or stored state to state JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--name", choices=region.NAMED_STATES)
    group.add_argument("--file", help="state JSON file")
    p.add_argument("--theta", type=float, help="chi only: angle in [0, 2pi)")
    p.add_argument("--phi", type=float, help="chi only: mixing angle in [0, pi/2]")
    p.add_argument("--s1", type=_parse_sign_flag, help="chi only: + or -")
    p.add_argument("--s2", type=_parse_sign_flag, help="chi only: + or -")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_state)

    p = sub.add_parser("v", help="pair exchange expectations of a state")
    p.add_argument("--state", required=True, help="named state or state JSON file")
    p.set_defaults(func=_cmd_v)

    p = sub.add_parser("check", help="membership test for a v-vector")
    p.add_argument("--v", required=True, help="three comma-separated numbers, e.g. 0.6,0.6,-0.6")
    p.add_argument("--theta-grid", type=int, default=region.THETA_GRID_DEFAULT)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("surface", help="boundary mesh CSV (v_AB,v_BC,v_AC,theta,phi,s1,s2)")
    p.add_argument("--theta-steps", type=int, required=True)
    p.add_argument("--phi-steps", type=int, required=True)
    p.add_argument("--out", help="CSV path; stdout when omitted")
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("audit", help="random-state membership audit")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mixed", action="store_true", help="also draw samples/10 two-state mixtures")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("extremal", help="maximize a pair-weighted objective")
    p.add_argument("--fix", help="perfect-statistics constraints, e.g. AB=1,CD=1")
    p.add_argument("--objective", required=True, help="pair weights, e.g. 'BC:-1,AC:0.5'")
    p.add_argument("--n", type=int, help="box count (inferred from pair names by default)")
    p.set_defaults(func=_cmd_extremal)

    p = sub.add_parser("scenario", help="bounds for a pair-constraint scenario graph")
    p.add_argument("--file", required=True, help='JSON like {"n":4,"fixed":{"AB":1},"free":["AC"]}')
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("selftest", help="run the full invariant suite")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (e.g. `| head`).  Point stdout at
        # devnull so the interpreter's exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:  # an input or output file that cannot be opened, read or written
        print(f"statmon: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"statmon: infeasible: {exc}", file=sys.stderr)
        return EXIT_OUTSIDE
    except ConvergenceError:
        raise  # internal bug: keep the traceback
    except StatmonError as exc:
        print(f"statmon: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _entry() -> int:
    """The process entry of `python -m statmon.cli` and the `statmon` script:
    main(), then gc.freeze() (also after --help or a usage error), so the
    interpreter's shutdown collection skips every object the run left behind.
    In-process callers (tests, perfbench's tracer) call main() and keep their
    collector as it was."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(_entry())
