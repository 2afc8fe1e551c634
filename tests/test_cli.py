"""CLI behaviour: exit codes, JSON envelopes, and witness replay."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordtop
from ordtop import checkers, cli, instances, kernels, theorems, topologies
from ordtop.cli import main
from ordtop.preorders import labels_of
from ordtop.representations import construct_finite_lsc_rp_multiutility
from ordtop.theorems import all_preorders, default_labels
from tests.conftest import FIXTURES
from tests.test_preorders import preorders


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--json")
    return code, json.loads(out)


def fx(name: str) -> str:
    return str(FIXTURES / name)


def test_validate_fixture_exits_zero(capsys):
    code, payload = run_json(capsys, "validate", fx("vee.json"))
    assert code == 0
    assert payload["ok"] and payload["result"]["round_trip"]
    assert payload["result"]["functions"] == ["g_a", "g_b", "g_c"]


def test_validate_rejects_missing_file(capsys):
    assert main(["validate", fx("nope.json")]) == 2


def test_topology_command_lists_opens(capsys):
    code, payload = run_json(capsys, "topology", fx("chain3.json"), "--topology", "upper")
    assert code == 0
    assert payload["result"]["opens"] == [[], ["c"], ["b", "c"], ["a", "b", "c"]]


def test_decide_rp_prints_family(capsys):
    code, payload = run_json(capsys, "decide-rp", fx("vee.json"), "--topology", "upper")
    assert code == 0
    family = payload["result"]["family"]
    assert family["g_a"] == {"a": "1", "b": "4", "c": "5"}
    assert family["g_b"] == {"a": "4", "b": "1", "c": "5"}
    assert family["g_c"] == {"a": "1", "b": "1", "c": "2"}


def test_decide_rp_obstruction_path(capsys, tmp_path):
    code, payload = run_json(
        capsys, "decide-rp", fx("chain3.json"), "--topology", "indiscrete"
    )
    assert code == 1
    assert payload["witness"]["detail"]["element"] == "a"
    # the witness instance is itself a valid document
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(payload["witness"]["instance"]))
    assert main(["validate", str(witness_file)]) == 0


@pytest.mark.parametrize("mode", ["upper", "alexandrov", "indiscrete"])
def test_decide_rp_matches_the_library_construction(capsys, tmp_path, mode):
    # The command prints its family from the integer rows; the library lifts
    # the same rows to Fractions.  Both must agree on every small preorder.
    doc_path = tmp_path / "p.json"
    families = obstructions = 0
    for n in (1, 2, 3):
        for p in all_preorders(default_labels(n)):
            doc_path.write_text(instances.serialize_instance(instances.make_document(p)))
            code, payload = run_json(capsys, "decide-rp", str(doc_path), "--topology", mode)
            expected = construct_finite_lsc_rp_multiutility(
                p, instances.resolve_topology_mode(mode, p)
            )
            if expected.family is not None:
                families += 1
                assert code == 0 and payload["witness"] is None
                assert payload["result"]["family"] == {
                    f"g_{x}": {y: str(v) for y, v in f.as_dict().items()}
                    for x, f in zip(p.elements, expected.family.members)
                }
            else:
                obstructions += 1
                assert code == 1 and payload["result"] == {"representable": False}
                detail = payload["witness"]["detail"]
                assert detail["element"] == expected.obstruction
                assert detail["contour"] == list(labels_of(p, expected.obstruction_contour))
    assert families > 0
    assert obstructions > 0 or mode != "indiscrete"


@pytest.mark.parametrize("command", ["check-lsc", "decide-rp", "represent"])
def test_check_lsc_witness_replay(capsys, tmp_path, command):
    # Every command that exits 1 prints a witness that reproduces the failure.
    code, payload = run_json(
        capsys, command, fx("chain3.json"), "--topology", "indiscrete"
    )
    assert code == 1
    witness = payload["witness"]
    assert witness["detail"]["contour"] == ["a"]

    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(witness["instance"]))
    assert main(["validate", str(witness_file)]) == 0
    capsys.readouterr()
    # the embedded topology, named by its mode, reproduces the failure bit-for-bit
    assert witness["instance"]["topology"] == {"mode": "indiscrete"}
    code, payload2 = run_json(capsys, command, str(witness_file))
    assert code == 1
    assert payload2["witness"]["detail"] == witness["detail"]


@pytest.mark.parametrize("points", [20, 21])
def test_witness_names_a_mode_given_topology_by_its_mode(capsys, tmp_path, points):
    # x0 < x1 beside isolated points: the upper topology has 3 * 2^(points-2)
    # opens, past the listing cap at 21 points.  The verdict needs none of
    # them, and neither does a witness that names the topology by its mode.
    elements = [f"x{i}" for i in range(points)]
    path = tmp_path / "hook.json"
    path.write_text(json.dumps({"elements": elements, "relation": [["x0", "x1"]]}))
    started = time.perf_counter()
    code, payload = run_json(capsys, "check-lsc", str(path), "--topology", "upper",
                             "--sense", "upper")
    assert time.perf_counter() - started < 1.0
    assert code == 1
    witness = payload["witness"]
    assert witness["instance"]["topology"] == {"mode": "upper"}
    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(witness["instance"]))
    assert main(["validate", str(witness_file)]) == 0
    capsys.readouterr()
    code, replay = run_json(capsys, "check-lsc", str(witness_file), "--sense", "upper")
    assert code == 1 and replay["witness"] == witness
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("source", ["document", "file-mode", "file-opens"])
def test_witness_names_a_topology_by_the_mode_that_named_it(capsys, tmp_path, source):
    # A mode name in a document names the witness's topology, as one on the
    # command line does; explicit opens stay explicit.
    chain = {"elements": ["a", "b", "c"], "relation": [["a", "b"], ["b", "c"]],
             "topology": {"mode": "indiscrete"}}
    (tmp_path / "chain.json").write_text(json.dumps(chain))
    (tmp_path / "named.json").write_text(
        json.dumps({"elements": ["c", "b", "a"], "topology": {"mode": "indiscrete"}})
    )
    explicit = _explicit_chain(tmp_path, ["c", "b", "a"], [[], ["a", "b", "c"]])
    argv = {
        "document": [str(tmp_path / "chain.json")],
        "file-mode": [fx("chain3.json"), "--topology", str(tmp_path / "named.json")],
        "file-opens": [fx("chain3.json"), "--topology", explicit],
    }[source]
    code, payload = run_json(capsys, "check-lsc", *argv)
    assert code == 1
    assert payload["witness"]["instance"]["topology"] == (
        {"mode": "explicit", "opens": [[], ["a", "b", "c"]]} if source == "file-opens"
        else {"mode": "indiscrete"}
    )


def test_check_lsc_passes_for_upper(capsys):
    code, payload = run_json(capsys, "check-lsc", fx("chain3.json"), "--topology", "upper")
    assert code == 0 and payload["result"]["semicontinuous"]


def test_represent_includes_constructions(capsys):
    code, payload = run_json(capsys, "represent", fx("vee.json"), "--topology", "upper")
    assert code == 0
    result = payload["result"]
    assert result["rp_utility"] == {"a": "1", "b": "1", "c": "2"}
    assert result["indicator_multiutility"]["u_a"] == {"a": "1", "b": "0", "c": "1"}
    assert result["lsc_multiutility"]["v_c"] == {"a": "0", "b": "0", "c": "0"}
    assert "rank_utility" not in result  # vee is not total


def test_represent_not_lsc_is_failure(capsys):
    code, payload = run_json(
        capsys, "represent", fx("chain3.json"), "--topology", "indiscrete"
    )
    assert code == 1
    assert payload["witness"]["detail"]["element"] == "a"


def test_topology_from_file_flag(capsys):
    # chain3.json carries an upper topology; apply it to itself via --topology FILE
    code, payload = run_json(
        capsys, "check-lsc", fx("chain3.json"), "--topology", fx("chain3.json")
    )
    assert code == 0


def test_theorems_command_small(capsys):
    code, payload = run_json(capsys, "theorems", "--all", "--max-size", "2")
    assert code == 0
    reports = {r["theorem"]: r for r in payload["result"]["reports"]}
    assert reports["topology-coincidence"]["violations"] == 0
    assert reports["chain-restriction"]["non_vacuous"] > 0

    # --all is accepted and ignored: every checker always runs.
    code_without, without = run_json(capsys, "theorems", "--max-size", "2")

    def untimed(envelope):
        for r in envelope["result"]["reports"]:
            del r["elapsed_seconds"]
        return envelope

    assert code_without == code
    assert untimed(without) == untimed(payload)


def test_mine_command(capsys):
    code, payload = run_json(capsys, "mine", "--seed", "3", "--trials", "25", "--max-size", "5")
    assert code == 0
    assert payload["result"]["trials"] == 25


def test_export_dot(capsys):
    code, out = run_cli(capsys, "export", fx("vee.json"))
    assert code == 0
    assert out.startswith("digraph preorder {")
    assert '"a" -> "c";' in out


def test_export_json_envelope_carries_the_dot(capsys, vee):
    code, payload = run_json(capsys, "export", fx("vee.json"))
    assert code == 0 and payload["ok"]
    assert payload["result"] == {"dot": instances.export_dot(vee)}


def test_export_to_file(capsys, tmp_path):
    target = tmp_path / "vee.gv"
    code, _ = run_cli(capsys, "export", fx("vee.json"), "-o", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph preorder {")


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("target", ["missing/vee.gv", "."])
def test_export_to_an_unwritable_path_is_an_input_error(capsys, tmp_path, as_json, target):
    # A missing directory and a directory target: exit 2, never 1 ("a
    # property is false") with a traceback.
    path = str(tmp_path / target)
    argv = ["export", fx("vee.json"), "-o", path] + ["--json"] * as_json
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {path}: ")
    if as_json:
        payload = json.loads(captured.out)
        assert (payload["command"], payload["ok"], payload["exit_code"]) == ("export", False, 2)
        assert payload["error"].startswith(f"cannot write {path}: ")
    else:
        assert captured.out == ""


def test_text_output_mode(capsys):
    code, out = run_cli(capsys, "check-lsc", fx("chain3.json"), "--topology", "indiscrete")
    assert code == 1
    assert "witness instance" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("theorems", "--max-size", "0"),
        ("theorems", "--max-size", "-3"),
        ("mine", "--trials", "-5"),
        ("mine", "--trials", "0"),
        ("mine", "--max-size", "0"),
        ("mine", "--max-size", "1"),
    ],
)
def test_out_of_range_sizes_are_usage_errors(monkeypatch, capsys, argv):
    def fail(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("run_theorem_suite", "mine", "all_preorders"):
        monkeypatch.setattr(theorems, name, fail)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_theorems_size_above_cap_is_refused(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(theorems, "all_preorders", fail)
    for size in ("7", "9"):
        code, payload = run_json(capsys, "theorems", "--max-size", size)
        assert code == 2 and payload["exit_code"] == 2 and not payload["ok"]
        assert "capped at 6" in payload["error"]


def test_invalid_utf8_file_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    code, out = run_cli(capsys, "validate", str(bad), "--json")
    assert code == 2
    envelope = json.loads(out)
    assert envelope["exit_code"] == 2 and "not UTF-8" in envelope["error"]


def _explicit_chain(tmp_path, elements, opens):
    doc = {"elements": elements, "relation": [], "autoclose": True,
           "topology": {"mode": "explicit", "opens": opens}}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_topology_file_with_reordered_labels_is_read_by_label(capsys, tmp_path):
    # the upper topology of the chain a < b < c, listed with the labels reversed
    t = _explicit_chain(tmp_path, ["c", "b", "a"], [[], ["c"], ["b", "c"], ["a", "b", "c"]])
    code, payload = run_json(capsys, "topology", fx("chain3.json"), "--topology", t)
    assert code == 0
    assert payload["result"]["opens"] == [[], ["c"], ["b", "c"], ["a", "b", "c"]]
    code, payload = run_json(capsys, "check-lsc", fx("chain3.json"), "--topology", t)
    assert code == 0 and payload["result"]["semicontinuous"]


@pytest.mark.parametrize(
    "elements, message",
    [
        (["a", "b"], "lacks element 'c'"),
        (["a", "b", "c", "d"], "has element 'd', which the instance lacks"),
        (["a", "b", "x"], "lacks element 'c'"),
    ],
)
def test_topology_file_with_other_labels_names_one(capsys, tmp_path, elements, message):
    t = _explicit_chain(tmp_path, elements, [[], elements])
    code, out = run_cli(capsys, "check-lsc", fx("chain3.json"), "--topology", t, "--json")
    assert code == 2
    assert message in json.loads(out)["error"]


@given(preorders(), st.integers(0, 1 << 30), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_topology_file_in_any_label_order_reads_the_same_topology(p, seed, steps, data):
    # A reversal is its own inverse; a random permutation is not, so this
    # catches a re-index that applies the inverse permutation.
    t = ordtop.random_topology_between(ordtop.indiscrete(p.n), seed, steps)
    order = data.draw(st.permutations(p.elements))
    opens = [list(labels_of(p, m)) for m in t.opens]
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, path = Path(tmp) / "p.json", Path(tmp) / "t.json"
        doc_path.write_text(instances.serialize_instance(instances.make_document(p)))
        path.write_text(json.dumps(
            {"elements": order, "topology": {"mode": "explicit", "opens": opens}}
        ))
        assert instances.read_instance(str(doc_path), str(path)).topology == t


@pytest.mark.parametrize("argv, message", [
    (("check-lsc", fx("antichain2.json")),
     "no topology: pass --topology MODE|FILE or add one to the instance"),
    (("decide-rp", fx("vee.json"), "--topology", fx("antichain2.json")),
     f"topology file {fx('antichain2.json')} carries no topology"),
])
def test_a_command_without_a_topology_is_an_input_error(capsys, argv, message):
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert json.loads(out)["error"] == message


@pytest.mark.parametrize("mode", list(instances.TOPOLOGY_MODES))
def test_topology_accepts_every_mode_name(capsys, tmp_path, vee, mode):
    # --topology MODE and a document's {"mode": MODE} name the same topology.
    code, by_flag = run_json(capsys, "topology", fx("vee.json"), "--topology", mode)
    path = tmp_path / "vee.json"
    doc = instances.make_document(vee)._replace(topology=instances.TopologySpec(mode))
    path.write_text(instances.serialize_instance(doc))
    code_doc, by_doc = run_json(capsys, "topology", str(path))
    assert code == code_doc == 0
    assert by_flag == by_doc
    t = instances.TOPOLOGY_MODES[mode](vee)
    assert by_flag["result"]["opens"] == [list(labels_of(vee, m)) for m in t.opens]


def test_explicit_topology_is_validated_once_per_command(monkeypatch, capsys):
    calls = []
    real = topologies.from_opens
    monkeypatch.setattr(topologies, "from_opens", lambda *a: calls.append(a) or real(*a))
    code, payload = run_json(capsys, "decide-rp", fx("equiv2.json"))
    assert code == 0 and payload["result"]["representable"]
    assert len(calls) == 1


def test_open_listing_past_the_cap_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(kernels, "UP_SETS_CAP", 7)
    code, out = run_cli(capsys, "topology", fx("chain3.json"), "--topology", "discrete", "--json")
    assert code == 2
    assert "capped at 7" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("theorems", "--max-size", "3"),
        ("mine", "--seed", "3", "--trials", "25", "--max-size", "5"),
    ],
)
def test_theorem_witness_replay(monkeypatch, capsys, tmp_path, argv):
    # With the chain-restriction conclusion patched to fail, both commands
    # exit 1; the witness replays through theorems.replay_violation to the
    # same detail, and `ordtop validate` accepts its instance.
    monkeypatch.setattr(checkers, "_chain_refines_alexandrov", lambda p, t, chain: chain)
    code, payload = run_json(capsys, *argv)
    assert code == 1 and not payload["ok"]
    witness = payload["witness"]
    detail = witness["detail"]
    assert detail["theorem"] == "chain-restriction"

    violation = theorems.TheoremViolation(
        detail["theorem"], json.dumps(witness["instance"]), detail["params"], detail["note"]
    )
    report = theorems.replay_violation(violation)
    assert report.theorem_id == "chain-restriction"
    assert [(v.detail, v.params) for v in report.violations] == [
        (detail["note"], detail["params"])
    ]

    witness_file = tmp_path / "witness.json"
    witness_file.write_text(json.dumps(witness["instance"]))
    assert main(["validate", str(witness_file)]) == 0


def _antichain(tmp_path, n: int) -> str:
    path = tmp_path / f"antichain{n}.json"
    path.write_text(json.dumps({"elements": [f"e{i:02d}" for i in range(n)], "relation": []}))
    return str(path)


@pytest.mark.parametrize("batch", [1, 3, cli._JSON_BATCH])
def test_streamed_envelope_is_the_dumps_text(monkeypatch, capsys, tmp_path, batch):
    monkeypatch.setattr(cli, "_JSON_BATCH", batch)
    code, out = run_cli(capsys, "topology", _antichain(tmp_path, 10), "--topology", "discrete",
                        "--json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["open_count"] == 1024
    assert out == json.dumps(envelope, indent=2) + "\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("points, head", [(14, 20), (3, 0)])
def test_closed_stdout_exits_with_the_broken_pipe_code(tmp_path, unbuffered, points, head):
    # 14 points: 2^14 opens, far more output than a pipe buffers, so the
    # command meets the closed pipe mid-listing.  3 points: the reader is gone
    # before the command starts, and a buffered stdout meets it at the flush.
    env = dict(os.environ, PYTHONPATH=str(Path(ordtop.__file__).resolve().parent.parent))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "ordtop.cli", "topology", _antichain(tmp_path, points),
            "--topology", "discrete", "--json"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(head) == b'{\n  "command": "topo'[:head]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
