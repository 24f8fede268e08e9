"""Unified ``repro`` CLI dispatch: routing and usage.

The CLI contract: one ``repro`` entry point with
sim/serve/lint/campaign/trace subcommands; anything else is an unknown
command, reported on stderr with the usage text.
"""

from repro.__main__ import _COMMANDS, main


class TestDispatch:
    def test_no_args_prints_usage_and_fails(self, capsys):
        assert main([]) == 2
        assert "usage: repro <command>" in capsys.readouterr().out

    def test_help_prints_usage_and_succeeds(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for command in _COMMANDS:
            assert command in out

    def test_unknown_command_exits_2_via_stderr(self, capsys):
        assert main(["frobnicate"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown command 'frobnicate'" in captured.err

    def test_lint_subcommand_forwards(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        captured = capsys.readouterr()
        assert "RL007" in captured.out
        assert "deprecated" not in captured.err

    def test_scenario_commands_live_under_sim(self, capsys):
        # The scenario subcommands are reached through `repro sim`; the
        # bare names are not top-level commands.
        assert main(["sim", "airtime", "--sf", "7", "--payload", "20"]) == 0
        assert "ms" in capsys.readouterr().out
        assert main(["airtime", "--sf", "7", "--payload", "20"]) == 2
        assert "unknown command 'airtime'" in capsys.readouterr().err
