"""CLI behaviour: exit codes, JSON envelopes, and witness replay."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordtop
from ordtop import checkers, cli, instances, kernels, lsc_steps, theorems, topologies
from ordtop.cli import main
from ordtop.errors import TooLargeError
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


@pytest.mark.parametrize("source", ["document", "file-mode", "file-opens", "document-opens"])
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
    chain["topology"] = {"mode": "explicit", "opens": [[], ["a", "b", "c"]]}
    (tmp_path / "chain_opens.json").write_text(json.dumps(chain))
    argv = {
        "document": [str(tmp_path / "chain.json")],
        "file-mode": [fx("chain3.json"), "--topology", str(tmp_path / "named.json")],
        "file-opens": [fx("chain3.json"), "--topology", explicit],
        "document-opens": [str(tmp_path / "chain_opens.json")],
    }[source]
    code, payload = run_json(capsys, "check-lsc", *argv)
    assert code == 1
    assert payload["witness"]["instance"]["topology"] == (
        chain["topology"] if source.endswith("opens") else {"mode": "indiscrete"}
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
    code, payload = run_json(capsys, "theorems", "--max-size", "2")
    assert code == 0
    reports = {r["theorem"]: r for r in payload["result"]["reports"]}
    assert reports["topology-coincidence"]["violations"] == 0
    assert reports["chain-restriction"]["non_vacuous"] > 0

    # Every checker always runs, so there is no flag to select them.
    with pytest.raises(SystemExit) as exc:
        main(["theorems", "--all", "--max-size", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --all" in capsys.readouterr().err


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
    # The text-mode witness is the one indented writer's text of the --json witness.
    _, payload = run_json(capsys, "check-lsc", fx("chain3.json"), "--topology", "indiscrete")
    shown = json.dumps(payload["witness"]["instance"], indent=2)
    assert f"(feed to `ordtop validate`):\n{shown}\ndetail: " in out


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

    for name in ("run_theorem_suite", "mine", "all_preorders", "_preorder_levels"):
        monkeypatch.setattr(theorems, name, fail)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--json"])
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_theorems_size_above_cap_is_refused(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(theorems, "_preorder_levels", fail)
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


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("word", ["uper", "explicit"])
def test_an_unreadable_topology_word_names_the_modes(monkeypatch, capsys, as_json, word):
    # Neither a mode nor a readable file: a mistyped mode, or the document-only "explicit".
    vee = fx("vee.json")
    monkeypatch.chdir(FIXTURES)
    code = main(["topology", vee, "--topology", word, *(["--json"] if as_json else [])])
    out, err = capsys.readouterr()
    message = (
        f"cannot read {word}: [Errno 2] No such file or directory: {word!r}; the topology is "
        "a readable instance file or one of the modes "
        "upper, alexandrov, scott, order, discrete, indiscrete"
    )
    assert code == 2 and err == f"error: {message}\n"
    if as_json:
        assert json.loads(out) == {"command": "topology", "ok": False, "exit_code": 2,
                                   "error": message}
    else:
        assert out == ""


@pytest.mark.parametrize("argv, error", [
    (["tpology"], "argument command: invalid choice: 'tpology' (choose from 'validate', "
                  "'topology', 'check-lsc', 'represent', 'decide-rp', 'theorems', 'mine', "
                  "'export')"),
    ([], "the following arguments are required: command"),
])
def test_top_level_usage_errors_list_every_command(capsys, argv, error):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    out, err = capsys.readouterr()
    assert exited.value.code == 2 and out == ""
    assert err.startswith("usage: ordtop [-h]")
    assert " ".join(err.split()[3:5]) == (
        "{validate,topology,check-lsc,represent,decide-rp,theorems,mine,export} ..."
    )
    assert err.endswith(f"\nordtop: error: {error}\n")


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
    monkeypatch.setattr(lsc_steps, "_chain_refines_alexandrov", lambda p, t, chain: chain)
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


@pytest.mark.parametrize("batch", [1, 3, instances._JSON_BATCH])
def test_streamed_envelope_is_the_dumps_text(monkeypatch, capsys, tmp_path, batch):
    monkeypatch.setattr(instances, "_JSON_BATCH", batch)
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


@pytest.mark.parametrize(
    "argv, mode",
    [
        (("topology", fx("vee.json"), "--topology", "scott"), "scott"),
        (("topology", fx("chain3.json")), "upper"),
        (("topology", fx("equiv2.json")), "explicit"),
        (("topology", fx("vee.json"), "--topology", fx("chain3.json")), "upper"),
        (("topology", fx("antichain2.json"), "--topology", fx("equiv2.json")), "explicit"),
    ],
    ids=["mode-name", "document-mode", "document-opens", "file-mode", "file-opens"],
)
def test_topology_reports_the_mode_its_source_names(capsys, argv, mode):
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["result"]["mode"] == mode


def test_open_listing_is_refused_from_the_width_before_listing(monkeypatch, capsys, tmp_path):
    # 25 disjoint 4-chains: 100 points of width 25, so at least 2^25 opens.
    labels = [f"c{c}_{k}" for c in range(25) for k in range(4)]
    relation = [[f"c{c}_{k}", f"c{c}_{k + 1}"] for c in range(25) for k in range(3)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"elements": labels, "relation": relation, "autoclose": True}))

    def never(*args):
        raise AssertionError("up_sets called")

    monkeypatch.setattr(kernels, "up_sets", never)
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "topology", str(path), "--topology", "alexandrov", "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"capped at {kernels.UP_SETS_CAP}" in json.loads(out)["error"]
    assert peak < 4_000_000


def test_open_listing_of_disjoint_parts_is_refused_from_their_counts(capsys, tmp_path):
    # 20 disjoint 2-chains: width 20, so 2^20 opens pass the width check,
    # but the parts have 3 up-sets each, 3^20 in all; none is listed whole.
    labels = [f"c{c}_{k}" for c in range(20) for k in range(2)]
    relation = [[f"c{c}_0", f"c{c}_1"] for c in range(20)]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"elements": labels, "relation": relation, "autoclose": True}))
    tracemalloc.start()
    started = time.perf_counter()
    try:
        code, out = run_cli(capsys, "topology", str(path), "--topology", "alexandrov", "--json")
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    error = json.loads(out)["error"]
    assert "counted until it passed the cap, the open family has " in error
    assert f"capped at {kernels.UP_SETS_CAP}" in error
    # the product stops within the 13th part (3^12 < 2^20 < 3^13), far short of 3^20
    counted = int(error.split(" has ")[1].split()[0])
    assert kernels.UP_SETS_CAP < counted <= 3**13
    assert elapsed < 0.1 and peak < 1_000_000


def test_open_listing_of_one_connected_part_is_refused_from_its_count(capsys, tmp_path):
    # A point below 20 others: width 20, so 2^20 opens pass the width check,
    # and one connected part with 2^20 + 1 up-sets, counted, never listed.
    tops = [f"t{i:02d}" for i in range(20)]
    path = tmp_path / "below.json"
    path.write_text(json.dumps({"elements": ["b", *tops], "relation": [["b", t] for t in tops]}))
    tracemalloc.start()
    try:
        code, out = run_cli(capsys, "topology", str(path), "--topology", "alexandrov", "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    error = json.loads(out)["error"]
    assert "counted until it passed the cap, the open family has 1048577 elements" in error
    assert f"capped at {kernels.UP_SETS_CAP}" in error
    assert peak < 1_000_000


def chains_joined(k: int, length: int, top: bool) -> tuple[list[str], list[list[str]]]:
    """k chains of ``length`` points, all above one root ``r`` or all below one top ``t``."""
    chains = [[f"c{c}_{i}" for i in range(length)] for c in range(k)]
    relation = [[a, b] for chain in chains for a, b in zip(chain, chain[1:])]
    points = [x for chain in chains for x in chain]
    if top:
        return points + ["t"], relation + [[chain[-1], "t"] for chain in chains]
    return ["r"] + points, relation + [["r", chain[0]] for chain in chains]


@pytest.mark.parametrize(
    "k, length, top",
    [(7, 9, False), (4, 40, True), (3, 300, False)],
    ids=["root-below-7-chains-of-9", "4-chains-of-40-below-a-top", "root-below-3-chains-of-300"],
)
def test_tree_like_open_listing_is_refused_from_its_count_at_once(capsys, tmp_path, k, length, top):
    # Width k, so 2^k opens pass the width check; the preorder is one
    # connected part, but it falls apart into its chains after one branch.
    # (length + 1)^k + 1 up-sets, over the cap; the count multiplies the
    # chains' counts at every branch instead of counting up-set by up-set.
    labels, relation = chains_joined(k, length, top)
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"elements": labels, "relation": relation}))
    code, out = run_cli(capsys, "topology", str(path), "--topology", "alexandrov", "--json")
    assert code == 2
    error = json.loads(out)["error"]
    assert "counted until it passed the cap" in error and f"capped at {kernels.UP_SETS_CAP}" in error
    t = ordtop.alexandrov_topology(ordtop.build_preorder(labels, relation))
    started = time.perf_counter()
    with pytest.raises(TooLargeError):
        t.opens
    elapsed = time.perf_counter() - started
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError):
            t.opens
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 1_000_000


def test_open_listing_holds_masks_not_label_lists(monkeypatch, tmp_path):
    # 14 points: 16,384 opens.  As label lists they peak near 3.3 MB; as
    # masks, each open's labels built only when the encoder reaches it,
    # near 1 MB.  The output goes to a file, so it is not traced.
    n = 14
    out_path = tmp_path / "out.json"
    with out_path.open("w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            code = main(["topology", _antichain(tmp_path, n), "--topology", "discrete", "--json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    labels = [f"e{i:02d}" for i in range(n)]
    opens = [[x for i, x in enumerate(labels) if m >> i & 1] for m in range(1 << n)]
    envelope = {"command": "topology", "ok": True, "exit_code": 0,
                "result": {"mode": "discrete", "ground_size": n, "open_count": 1 << n,
                           "opens": opens},
                "witness": None}
    assert out_path.read_text(encoding="utf-8") == json.dumps(envelope, indent=2) + "\n"
    assert peak < 2_000_000, f"listing peak {peak} B"


def test_text_open_listing_holds_masks_not_label_lists(monkeypatch, tmp_path):
    # The text line ``opens: [...]`` is the repr of every label list.  Built
    # whole, for 14 points (16,384 opens) it peaks near 3.6 MB; written in
    # batches, as with --json, near 1 MB.  The output goes to a file, so it
    # is not traced.
    n = 14
    out_path = tmp_path / "out.txt"
    with out_path.open("w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            code = main(["topology", _antichain(tmp_path, n), "--topology", "discrete"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    labels = [f"e{i:02d}" for i in range(n)]
    opens = [[x for i, x in enumerate(labels) if m >> i & 1] for m in range(1 << n)]
    expected = f"mode: discrete\nground_size: {n}\nopen_count: {1 << n}\nopens: {opens}\n"
    assert out_path.read_text(encoding="utf-8") == expected
    assert peak < 2_000_000, f"listing peak {peak} B"


def test_text_witness_lists_explicit_opens_by_label(capsys, tmp_path):
    # a < b < c in the topology {}, {a}, {a, b, c}: the contour {a} of a is
    # not closed, and the text witness lists the document's explicit opens.
    opens = [[], ["a"], ["a", "b", "c"]]
    doc = {"elements": ["a", "b", "c"], "relation": [["a", "b"], ["b", "c"]],
           "autoclose": True, "topology": {"mode": "explicit", "opens": opens}}
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "check-lsc", str(path))
    assert code == 1
    head = "witness instance (feed to `ordtop validate`):\n"
    text = out[out.index(head) + len(head):out.index("\ndetail: ")] + "\n"
    instance = json.loads(text)
    assert text == json.dumps(instance, indent=2) + "\n"
    assert instance["topology"] == {"mode": "explicit", "opens": opens}
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(instance))
    assert main(["check-lsc", str(witness)]) == 1


# Largest traced memory while CPython compiles one ordtop module from
# source during ``import ordtop.cli``: 1,444,808 B on CPython 3.11.7, for
# theorems.py.  The theorem-family modules (lsc_steps.py, topology_steps.py)
# compile last, on top of the most live objects, and peak at 0.97 MB at
# most; checkers.py peaks at 0.96 MB.  A new theorem adds a step to its
# family module, and growing a module by 500 tokens added 0.12 MB, which
# the per-module token budget in test_records.py did not catch.
COMPILE_PEAK_BUDGET = 1_625_000
# What checkers.py and each theorem-family module keep below the budget:
# room for one more step of about 400 tokens at about 0.38 kB per token.
THEOREM_STEP_ROOM = 150_000


def test_import_compile_peak_stays_within_its_budget(tmp_path):
    """A process run from source (no bytecode cache) compiles every module
    it loads, and the module compiled on top of the most live objects sets
    the import's memory peak; this bounds that peak itself.  Every ordtop
    module compiles before argparse is imported: argparse, with gettext,
    would add about 0.3 MB of live objects under each compile."""
    shutil.copytree(
        Path(ordtop.__file__).parent, tmp_path / "ordtop",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    probe = (
        "import importlib.machinery, json, sys, tracemalloc\n"
        "loader = importlib.machinery.SourceFileLoader\n"
        "compile_source, peaks = loader.source_to_code, {}\n"
        "def traced(self, data, path, *args, **kwargs):\n"
        "    late = 'argparse' in sys.modules\n"
        "    tracemalloc.reset_peak()\n"
        "    code = compile_source(self, data, path, *args, **kwargs)\n"
        "    peaks[path] = tracemalloc.get_traced_memory()[1], late\n"
        "    return code\n"
        "loader.source_to_code = traced\n"
        "tracemalloc.start()\n"
        "import ordtop.cli\n"
        "print(json.dumps(peaks))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    compiles = {
        Path(path).relative_to(tmp_path).as_posix(): (peak, late)
        for path, (peak, late) in json.loads(proc.stdout).items()
        if Path(path).is_relative_to(tmp_path)
    }
    assert "ordtop/cli.py" in compiles and "ordtop/kernels/__init__.py" in compiles
    report = ", ".join(f"{name} {peak:,} B" for name, (peak, _) in compiles.items())
    assert [name for name, (_, late) in compiles.items() if late] == [], report
    assert max(peak for peak, _ in compiles.values()) < COMPILE_PEAK_BUDGET, report
    theorem_modules = {"ordtop/checkers.py"} | {
        theorem.step.__module__.replace(".", "/") + ".py" for theorem in checkers._THEOREMS.values()
    }
    assert len(theorem_modules) > 2 and theorem_modules <= compiles.keys(), report
    for name in theorem_modules:
        assert compiles[name][0] <= COMPILE_PEAK_BUDGET - THEOREM_STEP_ROOM, report
