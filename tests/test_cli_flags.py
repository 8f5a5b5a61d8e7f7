"""Shared CLI flags parse and document identically across every verb.

``--json`` / ``--seed`` / ``--cache-dir`` come from one parent parser
(:func:`repro.cli._common_parent`), so their help text, defaults, and
parsing behavior cannot drift between ``run``, ``sweep``, ``chaos``,
``report``, ``trace``, ``serve`` and the bench verbs.  Also covers the
``serve`` verb's own argument validation and its one-shot stream mode.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

import pytest

from repro.cli import SHARED_OPTION_HELP, VERBS, build_parser, main

#: minimal extra argv each verb needs to parse successfully
REQUIRED_ARGS = {
    "run": ["table2"],
    "benchdiff": ["a.json", "b.json"],
    "top": ["--socket", "/tmp/repro.sock"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return dict(action.choices)


def test_every_verb_is_a_subparser():
    assert sorted(_subparsers()) == sorted(VERBS)


@pytest.mark.parametrize("verb", VERBS)
def test_shared_flags_parse_identically(verb):
    parser = build_parser()
    argv = [verb, *REQUIRED_ARGS.get(verb, []),
            "--seed", "7", "--cache-dir", "/tmp/x", "--json", "out.json"]
    args = parser.parse_args(argv)
    assert args.seed == 7
    assert args.cache_dir == "/tmp/x"
    assert args.json == "out.json"


@pytest.mark.parametrize("verb", VERBS)
def test_shared_flag_defaults_identical(verb):
    parser = build_parser()
    args = parser.parse_args([verb, *REQUIRED_ARGS.get(verb, [])])
    assert args.seed == 0
    assert args.cache_dir is None
    assert args.json is None


@pytest.mark.parametrize("verb", VERBS)
def test_bare_json_flag_means_stdout(verb):
    parser = build_parser()
    args = parser.parse_args([verb, *REQUIRED_ARGS.get(verb, []), "--json"])
    assert args.json == "-"


@pytest.mark.parametrize("verb", VERBS)
def test_shared_help_text_identical(verb):
    """Every verb documents the shared options with the same one-liner."""
    help_text = _subparsers()[verb].format_help()
    for flag, text in SHARED_OPTION_HELP.items():
        assert flag in help_text
        # argparse wraps help across lines; compare word sequences
        assert " ".join(text.split()) in " ".join(help_text.split())


class TestServeVerbValidation:
    @pytest.mark.parametrize("argv", [
        ["serve", "--workers", "0"],
        ["serve", "--queue-capacity", "0"],
        ["serve", "--max-batch", "0"],
        ["serve", "--requests", "a.jsonl", "--socket", "/tmp/s.sock"],
        ["serve", "--snapshot-interval", "0"],
        ["top"],
        ["top", "--socket", "/tmp/s.sock", "--interval", "0"],
        ["top", "--socket", "/tmp/s.sock", "--count", "0"],
        ["top", "--socket", "/tmp/s.sock", "--flight-tail", "-1"],
    ])
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_serve_stream_mode_end_to_end(tmp_path, capsys):
    from repro.sweep.scenario import FunctionScenario, register, unregister

    # a scenario slow enough that the duplicate submit always lands
    # while the first execution is still in flight (table2 can finish
    # in single-digit ms, turning the dedup into a racy cache hit)
    def _slow(ctx):
        time.sleep(0.2)
        return {"ok": True}

    register(FunctionScenario("cli-slow", _slow), replace=True)
    requests = tmp_path / "jobs.jsonl"
    requests.write_text(
        '{"op": "submit", "id": "a", "scenario": "cli-slow"}\n'
        '{"op": "submit", "id": "b", "scenario": "cli-slow"}\n'
        '{"op": "submit", "id": "c", "scenario": "no-such"}\n'
    )
    summary_path = tmp_path / "summary.json"
    try:
        code = main([
            "serve", "--requests", str(requests),
            "--cache-dir", str(tmp_path / "cache"),
            "--json", str(summary_path),
        ])
    finally:
        unregister("cli-slow")
    assert code == 0
    docs = [json.loads(line) for line in
            capsys.readouterr().out.splitlines()]
    results = {d["id"]: d for d in docs if d["op"] == "result"}
    assert results["a"]["status"] == "done"
    # the duplicate submit coalesced onto the same job
    assert results["a"]["job"] == results["b"]["job"]
    assert results["c"]["status"] == "shed"
    summary = json.loads(summary_path.read_text())
    assert summary["by_status"] == {"done": 2, "shed": 1}
    assert summary["stats"]["counters"]["dedup_hits"] == 1


def test_serve_stdin_bounds_line_length(capsys, monkeypatch):
    """Over stdin, an over-long line is refused and reading goes on."""
    from repro.serve.jsonl import MAX_LINE_BYTES
    from repro.sweep.scenario import FunctionScenario, register, unregister

    register(FunctionScenario("cli-quick", lambda ctx: {"ok": True}),
             replace=True)
    data = (
        b"#" + b"x" * (2 * MAX_LINE_BYTES) + b"\n"
        b'{"op": "submit", "id": "a", "scenario": "cli-quick"}\n'
    )
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    try:
        code = main(["serve", "--no-cache"])
    finally:
        unregister("cli-quick")
    assert code == 0
    docs = [json.loads(line) for line in
            capsys.readouterr().out.splitlines()]
    assert [d["op"] for d in docs if d["op"] == "error"] == ["error"]
    results = [d for d in docs if d["op"] == "result"]
    assert [(d["id"], d["status"]) for d in results] == [("a", "done")]


def test_serve_stream_mode_failure_exit_code(tmp_path, capsys, monkeypatch):
    """A failed job makes the serve verb exit non-zero (shed does not)."""
    from repro.sweep.scenario import FunctionScenario, register, unregister

    def _boom(ctx):
        raise RuntimeError("no")

    register(FunctionScenario("cli-boom", _boom), replace=True)
    try:
        requests = tmp_path / "jobs.jsonl"
        requests.write_text('{"op": "submit", "scenario": "cli-boom"}\n')
        code = main(["serve", "--requests", str(requests)])
    finally:
        unregister("cli-boom")
    assert code == 1
