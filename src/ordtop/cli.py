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
from ordtop.instances import InstanceDocument
from ordtop.preorders import Preorder, labels_of
from ordtop.representations import (
    FunctionFamily,
    Sense,
    ValueFunction,
    _lsc_rp_keys,
    construct_indicator_multiutility,
    construct_lsc_multiutility,
    construct_rp_utility,
    preorder_semicontinuity,
    rank_utility,
)
from ordtop.topologies import Topology

_TOPOLOGY_CHOICES = ("upper", "alexandrov", "scott", "order", "discrete", "indiscrete")

EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal ended

# Encoded pieces written to stdout at a time by _write_json.
_JSON_BATCH = 4096


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise err.OrdtopError(f"cannot read {path}: {exc}") from None


def _load_document(path: str) -> InstanceDocument:
    # No name holds the file's bytes, so the parse frees them once decoded.
    return instances.parse_instance(_read_bytes(path))


def _resolve_topology(spec: str | None, doc: InstanceDocument, p: Preorder) -> Topology:
    """A mode name, a path to an instance carrying a topology, or the doc's own.

    An explicit topology from a file must name the instance's elements,
    in any order: :func:`instances.document_topology` re-indexes it by label.
    """
    if spec in _TOPOLOGY_CHOICES:
        return instances.resolve_topology_mode(spec, p)
    other = doc if spec is None else _load_document(spec)
    if other.topology is None and spec is None:
        raise err.OrdtopError("no topology: pass --topology MODE|FILE or add one to the instance")
    if other.topology is None:
        raise err.OrdtopError(f"topology file {spec} carries no topology")
    if other.topology.explicit is not None and set(other.elements) != set(p.elements):
        for label in p.elements:
            if label not in other.elements:
                raise err.OrdtopError(f"topology file {spec} lacks element {label!r}")
        label = next(x for x in other.elements if x not in p.elements)
        raise err.OrdtopError(
            f"topology file {spec} has element {label!r}, which the instance lacks"
        )
    return instances.document_topology(other, p)


def _function_payload(f: ValueFunction) -> dict[str, str]:
    return {x: str(v) for x, v in zip(f.elements, f.values)}


def _named_family_payload(family: FunctionFamily, names: list[str]) -> dict:
    return {name: _function_payload(f) for name, f in zip(names, family.members)}


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


def _contour_witness(p: Preorder, t: Topology, element: str, contour: int, reason: str) -> dict:
    """The witness of a contour of ``element`` that is not closed in ``t``:
    the instance (p, t) and the contour's labels."""
    doc = instances.make_document(p, topology=t)
    detail = {"element": element, "contour": list(labels_of(p, contour)), "reason": reason}
    return {"instance": instances.document_payload(doc), "detail": detail}


def cmd_validate(args) -> int:
    doc = _load_document(args.file)
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
    doc = _load_document(args.file)
    p = instances.document_preorder(doc)
    t = _resolve_topology(args.topology, doc, p)
    opens = t.opens
    result = {
        "mode": args.topology or (doc.topology.mode if doc.topology else "explicit"),
        "ground_size": t.ground_size,
        "open_count": len(opens),
        "opens": [list(labels_of(p, o)) for o in opens],
    }
    return _emit(args, True, result)


def cmd_check_lsc(args) -> int:
    doc = _load_document(args.file)
    p = instances.document_preorder(doc)
    t = _resolve_topology(args.topology, doc, p)
    sense = Sense.LOWER if args.sense == "lower" else Sense.UPPER
    verdict = preorder_semicontinuity(p, t, sense)
    if verdict.ok:
        return _emit(args, True, {"semicontinuous": True, "sense": args.sense})
    assert verdict.witness is not None and verdict.contour is not None
    witness = _contour_witness(p, t, verdict.witness, verdict.contour, "contour is not closed")
    return _emit(args, False, {"semicontinuous": False, "sense": args.sense}, witness)


def cmd_represent(args) -> int:
    doc = _load_document(args.file)
    p = instances.document_preorder(doc)
    indicator = construct_indicator_multiutility(p)
    result: dict = {
        "indicator_multiutility": _named_family_payload(
            indicator, [f"u_{x}" for x in p.elements]
        ),
        "rp_utility": _function_payload(construct_rp_utility(p)),
    }
    if p.is_total():
        result["rank_utility"] = _function_payload(rank_utility(p))
    if args.topology is not None or (doc.topology is not None):
        t = _resolve_topology(args.topology, doc, p)
        try:
            lsc = construct_lsc_multiutility(p, t)
        except err.NotLscPreorderError as exc:
            witness = _contour_witness(
                p, t, exc.element, exc.contour, "preorder is not lower semicontinuous"
            )
            return _emit(args, False, result, witness)
        result["lsc_multiutility"] = _named_family_payload(
            lsc, [f"v_{x}" for x in p.elements]
        )
    return _emit(args, True, result)


def cmd_decide_rp(args) -> int:
    doc = _load_document(args.file)
    p = instances.document_preorder(doc)
    t = _resolve_topology(args.topology, doc, p)
    # The integer rows that construct_finite_lsc_rp_multiutility lifts to
    # Fractions; str() of an integer and of its Fraction agree.
    sc, rows = _lsc_rp_keys(p, t)
    if sc.ok:
        family = {
            f"g_{x}": {y: str(v) for y, v in zip(p.elements, row)}
            for x, row in zip(p.elements, rows)
        }
        return _emit(args, True, {"representable": True, "family": family})
    assert sc.witness is not None and sc.contour is not None
    witness = _contour_witness(p, t, sc.witness, sc.contour, "weak lower contour is not closed")
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
    doc = _load_document(args.file)
    p = instances.document_preorder(doc)
    dot = instances.export_dot(p)
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
