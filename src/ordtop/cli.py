"""Command-line interface.

Exit codes: 0 = pass/success, 1 = a checked property is false (a witness
is printed), 2 = usage or input error, 141 = stdout was closed before the
output was written (a broken pipe; 128 + SIGPIPE).  ``--json`` switches
every command to a machine-readable envelope, streamed to stdout; failure
envelopes embed a witness instance document that ``ordtop validate``
accepts back.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ordtop import errors as err
from ordtop import instances, theorems
from ordtop.preorders import Preorder, labels_of
from ordtop.representations import (
    Sense,
    _lsc_rp_keys,
    construct_indicator_multiutility,
    construct_lsc_multiutility,
    construct_rp_utility,
    preorder_semicontinuity,
    rank_utility,
)

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Encoded pieces written to stdout at a time by _write_json.
_JSON_BATCH = 4096


def _instance(args) -> instances.Instance:
    """The command's instance in the topology that ``--topology`` or the
    document names; one of them must name one."""
    inst = instances.read_instance(args.file, args.topology)
    if inst.topology is None:
        raise err.OrdtopError("no topology: pass --topology MODE|FILE or add one to the instance")
    return inst


def _family_payload(prefix: str, p: Preorder, members) -> dict:
    """A family with one member per element x, named ``{prefix}_{x}``."""
    names = (f"{prefix}_{x}" for x in p.elements)
    return {name: instances.function_payload(p.elements, v) for name, v in zip(names, members)}


def _emit(args, ok: bool, result: dict, witness: dict | None = None) -> int:
    code = 0 if ok else 1
    if args.json:
        envelope = {
            "command": args.command,
            "ok": ok,
            "exit_code": code,
            "result": result,
            "witness": witness,
        }
        _write_json(envelope)
    else:
        for line in _humanise(result):
            print(line)
        if witness is not None:
            print("witness instance (feed to `ordtop validate`):")
            print(json.dumps(witness["instance"], indent=2))
            if witness.get("detail"):
                print(f"detail: {json.dumps(witness['detail'])}")
    return code


def _write_json(obj) -> None:
    """Print ``obj`` as ``json.dumps(obj, indent=2)`` does, without holding it whole.

    The encoder's pieces are written a batch at a time: holding every piece
    of a large listing costs megabytes, and writing them one by one costs a
    system call each when stdout is unbuffered (``python -u``).
    """
    batch = []
    for piece in json.JSONEncoder(indent=2).iterencode(obj):
        batch.append(piece)
        if len(batch) == _JSON_BATCH:
            sys.stdout.write("".join(batch))
            batch.clear()
    batch.append("\n")
    sys.stdout.write("".join(batch))


def _humanise(result: dict, indent: str = "") -> list[str]:
    lines = []
    for key, value in result.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            lines.extend(_humanise(value, indent + "  "))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.extend(_humanise(item, indent + "  "))
                lines.append(f"{indent}  -")
        else:
            lines.append(f"{indent}{key}: {value}")
    return lines


def _contour_witness(inst: instances.Instance, element: str, contour: int, reason: str) -> dict:
    """The witness of ``element``'s unclosed contour: the instance and the contour."""
    detail = {"element": element, "contour": list(labels_of(inst.p, contour)), "reason": reason}
    return {"instance": instances.witness_payload(inst), "detail": detail}


def cmd_validate(args) -> int:
    doc = instances.read_document(args.file)
    p = instances.document_preorder(doc)
    result = {
        "elements": p.n,
        "relation_pairs": len(doc.relation),
        "autoclose": doc.autoclose,
        "topology": doc.topology.mode if doc.topology else None,
        "functions": sorted(name for name, _ in doc.functions or ()),
        "round_trip": instances.parse_instance(instances.serialize_instance(doc)) == doc,
    }
    return _emit(args, True, result)


def cmd_topology(args) -> int:
    inst = _instance(args)
    opens = inst.topology.opens
    result = {
        "mode": args.topology or inst.mode or "explicit",
        "ground_size": inst.p.n,
        "open_count": len(opens),
        "opens": [list(labels_of(inst.p, o)) for o in opens],
    }
    return _emit(args, True, result)


def cmd_check_lsc(args) -> int:
    inst = _instance(args)
    sense = Sense.LOWER if args.sense == "lower" else Sense.UPPER
    verdict = preorder_semicontinuity(inst.p, inst.topology, sense)
    if verdict.ok:
        return _emit(args, True, {"semicontinuous": True, "sense": args.sense})
    assert verdict.witness is not None and verdict.contour is not None
    witness = _contour_witness(inst, verdict.witness, verdict.contour, "contour is not closed")
    return _emit(args, False, {"semicontinuous": False, "sense": args.sense}, witness)


def cmd_represent(args) -> int:
    inst = instances.read_instance(args.file, args.topology)
    p = inst.p
    result: dict = {
        "indicator_multiutility": _family_payload(
            "u", p, (f.values for f in construct_indicator_multiutility(p).members)
        ),
        "rp_utility": instances.function_payload(p.elements, construct_rp_utility(p).values),
    }
    if p.is_total():
        result["rank_utility"] = instances.function_payload(p.elements, rank_utility(p).values)
    if inst.topology is not None:
        try:
            lsc = construct_lsc_multiutility(p, inst.topology)
        except err.NotLscPreorderError as exc:
            witness = _contour_witness(
                inst, exc.element, exc.contour, "preorder is not lower semicontinuous"
            )
            return _emit(args, False, result, witness)
        result["lsc_multiutility"] = _family_payload("v", p, (f.values for f in lsc.members))
    return _emit(args, True, result)


def cmd_decide_rp(args) -> int:
    inst = _instance(args)
    # The integer rows that construct_finite_lsc_rp_multiutility lifts to
    # Fractions; str() of an integer and of its Fraction agree.
    sc, rows = _lsc_rp_keys(inst.p, inst.topology)
    if sc.ok:
        family = _family_payload("g", inst.p, rows)
        return _emit(args, True, {"representable": True, "family": family})
    assert sc.witness is not None and sc.contour is not None
    witness = _contour_witness(inst, sc.witness, sc.contour, "weak lower contour is not closed")
    return _emit(args, False, {"representable": False}, witness)


def _suite_result(suite: theorems.SuiteReport) -> dict:
    return {
        "ok": suite.ok,
        "reports": [
            {
                "theorem": r.theorem_id,
                "instances_checked": r.instances_checked,
                "non_vacuous": r.non_vacuous,
                "violations": len(r.violations),
                "elapsed_seconds": round(r.elapsed, 4),
            }
            for r in suite.reports
        ],
    }


def _suite_witness(suite: theorems.SuiteReport) -> dict | None:
    for report in suite.reports:
        for v in report.violations:
            return {
                "instance": json.loads(v.instance),
                "detail": {"theorem": v.theorem_id, "params": v.params, "note": v.detail},
            }
    return None


def cmd_theorems(args) -> int:
    suite = theorems.run_theorem_suite(max_size=args.max_size, seed=args.seed)
    return _emit(args, suite.ok, _suite_result(suite), _suite_witness(suite))


def cmd_mine(args) -> int:
    suite = theorems.mine(seed=args.seed, trials=args.trials, max_size=args.max_size)
    result = _suite_result(suite)
    result["seed"] = args.seed
    result["trials"] = args.trials
    return _emit(args, suite.ok, result, _suite_witness(suite))


def cmd_export(args) -> int:
    dot = instances.export_dot(instances.document_preorder(instances.read_document(args.file)))
    if args.output:
        try:
            Path(args.output).write_text(dot, encoding="utf-8")
        except OSError as exc:
            raise err.OrdtopError(f"cannot write {args.output}: {exc}") from None
        return _emit(args, True, {"written": args.output})
    if args.json:
        return _emit(args, True, {"dot": dot})
    print(dot, end="")
    return 0


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low`` (else exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "integer"  # argparse names the type in "invalid integer value"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordtop",
        description="Finite preorders, their topologies, and multi-utility representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        return sp

    sp = add("validate", cmd_validate, "parse and validate an instance file")
    sp.add_argument("file")

    sp = add("topology", cmd_topology, "materialise a topology and list its opens")
    sp.add_argument("file")
    sp.add_argument("--topology", metavar="MODE|FILE")

    sp = add("check-lsc", cmd_check_lsc, "check semicontinuity of the preorder")
    sp.add_argument("file")
    sp.add_argument("--topology", metavar="MODE|FILE")
    sp.add_argument("--sense", choices=("lower", "upper"), default="lower")

    sp = add("represent", cmd_represent, "construct representations for the instance")
    sp.add_argument("file")
    sp.add_argument("--topology", metavar="MODE|FILE")

    sp = add("decide-rp", cmd_decide_rp,
             "decide lsc Richter-Peleg multi-utility representability")
    sp.add_argument("file")
    sp.add_argument("--topology", metavar="MODE|FILE")

    sp = add("theorems", cmd_theorems, "run the exhaustive theorem suite")
    sp.add_argument("--all", action="store_true",
                    help="ignored, kept for compatibility: every checker always runs")
    sp.add_argument("--max-size", type=_int_at_least(1), default=4)
    sp.add_argument("--seed", type=int, default=0)

    sp = add("mine", cmd_mine, "mine seeded random instances for violations")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=_int_at_least(1), default=100)
    sp.add_argument("--max-size", type=_int_at_least(2), default=6)

    sp = add("export", cmd_export, "export the quotient Hasse diagram as DOT")
    sp.add_argument("file")
    sp.add_argument("-o", "--output")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # The reader went away.  Point stdout at /dev/null so that the flush
        # at exit is quiet, and exit with a code that no verdict uses.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except err.OrdtopError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"command": args.command, "ok": False,
                              "exit_code": 2, "error": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
