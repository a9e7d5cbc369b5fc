"""Command-line frontend: JSON/CSV output for scripts and plotting tools."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import extremal, group_core, monogamy, npartite, observables, states
from .errors import ConvergenceError, InfeasibleError, StatmonError, ValidationError
from .selftest import run_selftest

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
    return observables.parse_sign(text if text in ("+", "-") else int(text))


def _read_json(source: str):
    try:
        return json.loads(Path(source).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{source}: invalid JSON ({exc})") from None


def _resolve_state(source: str) -> states.PureState:
    """A catalog name (chi excluded: it needs parameters) or a JSON file path."""
    if source == "chi":
        raise ValidationError("chi needs parameters; use `statmon state --name chi ...`")
    if source in states.NAMED_STATES:
        return states.named_state(source)
    if not Path(source).exists():
        raise ValidationError(
            f"{source!r} is neither a named state {states.NAMED_STATES} nor a file"
        )
    return states.state_from_jsonable(_read_json(source))


def _parse_v(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValidationError(f"--v needs three comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"--v entries must be numbers, got {text!r}") from None


def _parse_fixed(text: str) -> list[extremal.Constraint]:
    constraints = []
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        if "=" not in chunk:
            raise ValidationError(f"--fix entries look like AB=1, got {chunk!r}")
        pair_text, _, value_text = chunk.partition("=")
        try:
            value = int(value_text)
        except ValueError:
            raise ValidationError(f"fixed value must be +1 or -1, got {value_text!r}") from None
        constraints.append(extremal.Constraint(group_core.Pair.parse(pair_text), value))
    return constraints


def _parse_objective(text: str) -> dict[str, float]:
    coeffs = {}
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        pair_text, sep, value_text = chunk.partition(":")
        if not sep:
            raise ValidationError(f"--objective entries look like AB:1.5, got {chunk!r}")
        try:
            coeffs[pair_text] = float(value_text)
        except ValueError:
            raise ValidationError(f"objective weight must be a number, got {value_text!r}") from None
    if not coeffs:
        raise ValidationError("--objective must name at least one pair")
    return coeffs


def _infer_boxes(pair_labels, explicit: int | None) -> int:
    needed = 2
    for label in pair_labels:
        pair = group_core.Pair.parse(label)
        needed = max(needed, pair.y + 1)
    if explicit is None:
        return needed
    if explicit < needed:
        raise ValidationError(f"--n {explicit} too small for pairs named (need >= {needed})")
    return group_core.validate_box_count(explicit)


def _v_payload(state: states.PureState) -> dict:
    return {
        "n": state.n,
        "pairs": [p.label() for p in group_core.canonical_pairs(state.n)],
        "v": [float(x) for x in observables.v_vector(state)],
    }


def _cmd_state(args) -> int:
    if args.name:
        if args.name == "chi":
            params = {"theta": args.theta, "phi": args.phi, "s1": args.s1, "s2": args.s2}
            missing = [k for k, v in params.items() if v is None]
            if missing:
                raise ValidationError(f"chi requires --theta --phi --s1 --s2 (missing {missing})")
            state = states.named_state("chi", **params)
        else:
            state = states.named_state(args.name)
    else:
        state = _resolve_state(args.file)
    payload = states.state_to_jsonable(state)
    if args.out:
        Path(args.out).write_text(
            json.dumps(_round_floats(payload), indent=2) + "\n", encoding="utf-8"
        )
    else:
        _emit(payload)
    return EXIT_OK


def _cmd_v(args) -> int:
    _emit(_v_payload(_resolve_state(args.state)))
    return EXIT_OK


def _cmd_check(args) -> int:
    check = monogamy.RegionCheck.evaluate(_parse_v(args.v), theta_grid=args.theta_grid)
    _emit(check.to_jsonable())
    return EXIT_OK if check.inside else EXIT_OUTSIDE


def _cmd_surface(args) -> int:
    points = monogamy.surface_mesh(args.theta_steps, args.phi_steps)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            monogamy.write_mesh_csv(points, fh)
    else:
        monogamy.write_mesh_csv(points, sys.stdout)
    return EXIT_OK


def _cmd_audit(args) -> int:
    mixed = args.samples // 10 if args.mixed else 0
    report = monogamy.region_audit(args.samples, args.seed, mixed_samples=mixed)
    _emit(report.to_jsonable())
    return EXIT_OK if report.violations == 0 else EXIT_OUTSIDE


def _cmd_extremal(args) -> int:
    constraints = _parse_fixed(args.fix) if args.fix else []
    coeffs = _parse_objective(args.objective)
    n = _infer_boxes(
        list(coeffs) + [c.pair.label() for c in constraints], args.n
    )
    objective = extremal.Objective.from_pairs(n, coeffs)
    if constraints:
        result = extremal.constrained_extremal(constraints, objective)
    else:
        result = extremal.max_expectation(objective)
    _emit(result.to_jsonable())
    return EXIT_OK


def _cmd_scenario(args) -> int:
    graph = npartite.ScenarioGraph.from_jsonable(_read_json(args.file))
    _emit(npartite.scenario_report(graph).to_jsonable())
    return EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_selftest()
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
    group.add_argument("--name", choices=states.NAMED_STATES)
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
    p.add_argument("--theta-grid", type=int, default=monogamy.THETA_GRID_DEFAULT)
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


if __name__ == "__main__":
    sys.exit(main())
