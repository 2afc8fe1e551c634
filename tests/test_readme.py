"""The README's examples run as written and give the results their comments state."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import ordtop
from ordtop import instances, preorders
from ordtop.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` code block after the ``heading`` line."""
    section = README[README.index(f"\n{heading}\n"):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match is not None, f"no {language} block under {heading}"
    return match.group(1)


def cli_lines() -> list[tuple[list[str], int]]:
    """Each ``ordtop`` line of the CLI block, as arguments and the exit code
    its comment states (1 where it says ``exit 1``, else 0)."""
    out = []
    for line in fenced_block("## CLI", "sh").splitlines():
        if line.startswith("ordtop "):
            command, _, comment = line.partition("#")
            out.append((shlex.split(command)[1:], 1 if "exit 1" in comment else 0))
    return out


def test_readme_cli_block_is_found():
    assert len(cli_lines()) >= 8


@pytest.mark.parametrize("argv, code", cli_lines(), ids=[" ".join(a) for a, _ in cli_lines()])
def test_readme_cli_line_exits_as_commented(argv, code, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)  # the example paths are relative to the repository
    assert main(argv) == code
    assert capsys.readouterr().out


def test_readme_instance_example_parses_and_round_trips():
    doc = instances.parse_instance(fenced_block("### Instance files", "json"))
    assert instances.parse_instance(instances.serialize_instance(doc)) == doc
    assert doc.topology == instances.TopologySpec("upper")


def backticked(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def test_readme_mode_names_are_the_table_keys():
    # README names the modes twice: for --topology and for a document's mode.
    flag = re.search(r"`--topology` accepts a mode name \(([^)]*)\)", README)
    document = re.search(r"`mode` is one of `([^`]*)`", README)
    assert flag is not None and document is not None
    assert backticked(flag.group(1)) == list(instances.TOPOLOGY_MODES)
    names = [name.strip() for name in document.group(1).split("|")]
    assert names == [*instances.TOPOLOGY_MODES, "explicit"]


def expected_value(comment: str, namespace: dict) -> object:
    """The value a result comment states: its longest leading run of words
    that is a Python expression, such as ``True`` of ``True (finite ground)``."""
    words = comment.split(" ")
    for end in range(len(words), 0, -1):
        try:
            tree = ast.parse(" ".join(words[:end]), mode="eval")
        except SyntaxError:
            continue
        return eval(compile(tree, "<README comment>", "eval"), namespace)
    raise AssertionError(f"no value in comment {comment!r}")


def test_readme_quick_start_gives_the_commented_values():
    lines = fenced_block("## Library quick start", "python").splitlines()
    namespace = {**vars(preorders), **vars(ordtop)}
    checked = 0
    for k, line in enumerate(lines):
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if not comment and k + 1 < len(lines) and lines[k + 1].startswith("# "):
            comment = lines[k + 1][1:]  # the result is on the line below
        statement = ast.parse(code.strip())
        node = statement.body[0]
        if isinstance(node, ast.Expr) and comment.strip():
            value = eval(compile(ast.Expression(node.value), "<README>", "eval"), namespace)
            assert value == expected_value(comment.strip(), namespace), line
            checked += 1
        else:
            exec(compile(statement, "<README>", "exec"), namespace)
    assert checked == 5
