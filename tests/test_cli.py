"""Tests for the command-line interface: formats, exit codes, determinism."""

import argparse
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotbell import CorrelationTensor, OptimizerConfig, cli, criterion, lhv, t_max
from rotbell.cli import main
from rotbell.states import MAX_STATE_PARTIES

#: Any document json.loads can return (NaN and Infinity included).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)

#: Documents close to the tensor format, so that they reach the later checks.
TENSOR_LIKE = st.fixed_dictionaries(
    {"n": st.integers(-1, MAX_STATE_PARTIES + 1) | JSON_VALUES},
    optional={
        "entries": st.dictionaries(
            st.text("12", max_size=MAX_STATE_PARTIES + 1),
            st.floats(-1.5, 1.5) | JSON_VALUES,
            max_size=6,
        )
        | JSON_VALUES
    },
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def open_gap_tensor(tmp_path):
    """A tensor file whose T_max, 1/2, the Fourier bound 1/sqrt(2) does not prove."""
    path = tmp_path / "open-gap.json"
    path.write_text('{"n": 3, "entries": {"111": 0.5, "222": 0.5}}')
    return path


class TestTensorCommand:
    def test_writes_tensor_json(self, tmp_path, capsys):
        out = tmp_path / "tensor.json"
        code, _, _ = run_cli(
            capsys, "tensor", "--ghz", "3", "--visibility", "0.5", "--out", str(out)
        )
        assert code == 0
        tensor = CorrelationTensor.from_json_dict(json.loads(out.read_text()))
        assert tensor.values[0, 0, 0] == 0.5
        assert tensor.values[0, 1, 1] == -0.5

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(capsys, "tensor", "--ghz", "2", "--visibility", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        assert doc["entries"]["11"] == 1.0

    def test_invalid_visibility_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "tensor", "--ghz", "2", "--visibility", "1.5")
        assert code == 2
        assert "error" in err

    def test_invalid_party_count_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "tensor", "--ghz", "0", "--visibility", "0.5")
        assert code == 2


class TestRequireCertified:
    """Exit 3 with the output still written, from every command that reads a tensor."""

    COMMANDS = [("tmax",), ("check",), ("verify-bound", "--trials", "10")]

    # tmax's exit 3 to stdout is TestTmaxCommand's
    @pytest.mark.parametrize("command", COMMANDS[1:])
    def test_exits_3_on_open_gap(self, open_gap_tensor, capsys, command):
        argv = (*command, "--in", str(open_gap_tensor), "--require-certified")
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert err == ""
        assert json.loads(out)["certified"] is False

    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_file_holds_the_stdout_text(self, open_gap_tensor, tmp_path, capsys, command):
        argv = (*command, "--in", str(open_gap_tensor), "--require-certified")
        _, printed, _ = run_cli(capsys, *argv)
        path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 3
        assert out == "" and err == ""
        assert path.read_text(encoding="utf-8") == printed

    def test_exits_0_without_the_flag(self, open_gap_tensor, capsys):
        code, out, _ = run_cli(capsys, "check", "--in", str(open_gap_tensor))
        assert code == 0
        assert json.loads(out)["certified"] is False

    @pytest.mark.parametrize("flag", [("--seed", "0"), ("--starts", "5"), ("--require-certified",)])
    def test_scan_takes_no_optimizer_flag(self, capsys, flag):
        # its closed-form rows are always certified and draw no start
        argv = ("scan", "--ghz", "4", "--v-min", "0.3", "--v-max", "0.4", "--steps", "3")
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, *flag])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


class TestTmaxCommand:
    def test_output_keys_and_value(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "4", "--visibility", "0.5", "--out", str(path))
        code, out, _ = run_cli(capsys, "tmax", "--in", str(path))
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"value", "maximizer", "certified"}
        assert doc["value"] == pytest.approx(0.5, abs=1e-9)
        assert doc["certified"] is True
        assert len(doc["maximizer"]) == 4

    def test_require_certified_exits_3_on_open_gap(self, open_gap_tensor, capsys):
        argv = ("tmax", "--in", str(open_gap_tensor), "--require-certified")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(0.5, abs=1e-12)
        assert doc["certified"] is False

    def test_require_certified_exits_0_on_ghz_beyond_four_parties(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "6", "--visibility", "0.5", "--out", str(path))
        code, out, _ = run_cli(capsys, "tmax", "--in", str(path), "--require-certified")
        assert code == 0
        assert json.loads(out)["certified"] is True

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "tmax", "--in", "/nonexistent/t.json")
        assert code == 2
        assert "error" in err

    def test_malformed_tensor_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "entries": {"13": 1.0}}')
        code, _, _ = run_cli(capsys, "tmax", "--in", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["tmax", "check"])
    @pytest.mark.parametrize(
        "document",
        [
            '{"n": 2, "entries": {"11": NaN}}',
            '{"n": 2, "entries": {"11": Infinity}}',
            '{"n": 2, "entries": {"11": "abc"}}',
            '{"n": 2, "entries": {"11": "0.5"}}',
            '{"n": 2, "entries": {"11": true}}',
            '{"n": 2, "entries": {"11": " 1e-1 "}}',
            '{"n": 2, "entries": [1]}',
            '{"n": 1.9, "entries": {"1": 0.5}}',
            '{"n": "2", "entries": {}}',
            '{"n": true, "entries": {}}',
            '{"n": 100, "entries": {}}',
        ],
    )
    def test_bad_entries_exit_2(self, tmp_path, capsys, command, document):
        path = tmp_path / "bad.json"
        path.write_text(document)
        code, out, err = run_cli(capsys, command, "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


    @pytest.mark.parametrize(
        "document",
        [
            b'{"n": 1, "entries": {"1": 1' + b"0" * 400 + b"}}",  # int beyond float range
            b'{"n": 1, "entries": {"1": 1' + b"0" * 5000 + b"}}",  # int beyond the digit limit
            b"[" * 100_000 + b"]" * 100_000,  # nesting beyond the recursion limit
            b'{"n": 1, "entries": {"\xe9": 1}}',  # not UTF-8
        ],
        ids=["int-overflow", "int-digits", "deep-nesting", "not-utf8"],
    )
    def test_unreadable_documents_exit_2(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_bytes(document)
        code, out, err = run_cli(capsys, "tmax", "--in", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestArbitraryDocuments:
    @given(document=JSON_VALUES | TENSOR_LIKE, command=st.sampled_from(["tmax", "check"]))
    @settings(max_examples=200, deadline=None)
    def test_exit_0_or_2_with_error_lines_only(self, document, command):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            path.write_text(json.dumps(document), encoding="utf-8")
            with redirect_stdout(out), redirect_stderr(err):
                code = main([command, "--in", str(path)])
        lines = err.getvalue().splitlines()
        assert code in (0, 2)
        assert all(line.startswith("error: ") for line in lines)
        assert len(lines) == (code == 2)


class TestCheckCommand:
    def test_paradox_report(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "4", "--visibility", "0.34", "--out", str(path))
        code, out, _ = run_cli(capsys, "check", "--in", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["violated"] is True
        assert doc["two_setting_model"] is True
        assert doc["lhs"] == pytest.approx(math.pi**4 * 8 * 0.34**2, rel=1e-12)
        assert doc["rhs"] == pytest.approx(87.04, rel=1e-9)

    def test_deterministic_across_runs(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "4", "--visibility", "0.34", "--out", str(path))
        _, first, _ = run_cli(capsys, "check", "--in", str(path), "--seed", "0")
        _, second, _ = run_cli(capsys, "check", "--in", str(path), "--seed", "0")
        assert first == second


class TestScanCommand:
    def test_csv_header_and_formatting(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--ghz", "4", "--v-min", "0.32", "--v-max", "0.36", "--steps", "3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,V,lhs,rhs,violated,sum_sq,two_setting_model,region"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "4"
        assert first[1] == "0.32"
        assert first[4] in ("true", "false")
        assert first[7] in ("LOCAL", "PARADOX", "NONLOCAL")
        # floats carry at most 12 significant digits
        assert all(len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 12
                   for cell in (first[2], first[3], first[5]))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "scan", "--ghz", "4", "--v-min", "0.34", "--v-max", "0.34", "--steps", "1",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["region"] == "PARADOX"
        assert rows[0]["N"] == 4

    def test_scan_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "scan.csv"
        code, _, _ = run_cli(
            capsys,
            "scan", "--ghz", "2", "--v-min", "0", "--v-max", "1", "--steps", "3",
            "--out", str(out_file),
        )
        assert code == 0
        assert out_file.read_text().startswith("N,V,")

    def test_invalid_range_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "scan", "--ghz", "3", "--v-min", "0.9", "--v-max", "0.1", "--steps", "3"
        )
        assert code == 2


class TestVerifyBoundCommand:
    def test_report_payload(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "3", "--visibility", "1.0", "--out", str(path))
        code, out, _ = run_cli(
            capsys, "verify-bound", "--in", str(path), "--trials", "100", "--seed", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0
        assert doc["bound"] == pytest.approx(64.0, rel=1e-9)
        assert doc["max_found"] <= doc["bound"] + 1e-8
        assert doc["trials"] == 100
        assert doc["seed"] == 5

    def test_optimizer_gets_cli_seed(self, tmp_path, capsys, monkeypatch):
        seen = {}
        real = cli.verify_bound

        def spy(tensor, trials, **kwargs):
            seen.update(kwargs)
            return real(tensor, trials, **kwargs)

        monkeypatch.setattr(cli, "verify_bound", spy)
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "2", "--visibility", "0.8", "--out", str(path))
        code, _, _ = run_cli(
            capsys, "verify-bound", "--in", str(path), "--trials", "5",
            "--seed", "11", "--starts", "3",
        )
        assert code == 0
        assert seen["seed"] == 11
        assert seen["config"].seed == 11
        assert seen["config"].random_starts == 3

    def test_random_ensembles_pinned(self, capsys):
        # without the optimal strategy, max_found comes from the seeded
        # random ensembles alone; the value is that of the live-row sampler,
        # which draws breakpoints only for rows whose every party flips
        tensor = Path(__file__).resolve().parent / "data" / "readme" / "tensor.json"
        code, out, _ = run_cli(
            capsys, "verify-bound", "--in", str(tensor), "--trials", "10000",
            "--seed", "0", "--skip-optimal",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == 0 and not doc["includes_optimal"]
        assert doc["max_found"] == pytest.approx(36.51724624302439, rel=1e-12)

    def test_deterministic_in_seed(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "2", "--visibility", "0.8", "--out", str(path))
        _, first, _ = run_cli(capsys, "verify-bound", "--in", str(path), "--trials", "50", "--seed", "9")
        _, second, _ = run_cli(capsys, "verify-bound", "--in", str(path), "--trials", "50", "--seed", "9")
        assert first == second


class TestArgumentErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("tensor", "--ghz", "100", "--visibility", "0.5"),
            ("scan", "--ghz", "100", "--v-min", "0.3", "--v-max", "0.4", "--steps", "3"),
        ],
    )
    def test_party_count_above_cap_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [("--seed", "-1"), ("--starts", "-5")])
    @pytest.mark.parametrize(
        "argv",
        [
            ("tmax", "--in", "T"),
            ("check", "--in", "T"),
            ("verify-bound", "--in", "T", "--trials", "10"),
        ],
    )
    def test_negative_seed_or_starts_exits_2(self, tmp_path, capsys, argv, flags):
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "2", "--visibility", "0.5", "--out", str(path))
        argv = [str(path) if arg == "T" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ("--starts", str(10**15)),  # numpy raises MemoryError: 28 PiB
            ("--starts", str(5 * 10**18)),  # over intp.max bytes
            ("--starts", str(10**19)),  # over intp.max elements
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ("tmax", "--in", "T"),
            ("check", "--in", "T"),
            ("verify-bound", "--in", "T", "--trials", "10"),
        ],
    )
    def test_unallocatable_starts_exit_2(self, tmp_path, capsys, argv, flags):
        path = tmp_path / "t.json"
        run_cli(capsys, "tensor", "--ghz", "4", "--visibility", "0.5", "--out", str(path))
        argv = [str(path) if arg == "T" else arg for arg in argv]
        code, out, err = run_cli(capsys, *argv, *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("steps", [10**15, 5 * 10**18, 10**19])
    def test_unallocatable_steps_exit_2(self, capsys, steps):
        argv = ("scan", "--ghz", "4", "--v-min", "0.3", "--v-max", "0.4", "--steps", str(steps))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_missing_required_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["tensor", "--ghz", "3"])
        assert excinfo.value.code == 2


#: Optimizer flags shared by every subcommand but ``tensor`` and ``scan``.
OPTIMIZER_FLAGS = {
    ("--seed",): ("seed", 0, int, False, None),
    ("--starts",): ("starts", 64, int, False, None),
    ("--require-certified",): ("require_certified", False, None, False, None),
}
OUT_FLAG = {("--out",): ("out", None, None, False, None)}
IN_FLAG = {("--in",): ("infile", None, None, True, None)}

#: Per subcommand, in order: option strings -> (dest, default, type, required, choices).
CLI_SURFACE = {
    "tensor": {
        ("--ghz",): ("ghz", None, int, True, None),
        ("--visibility",): ("visibility", None, float, True, None),
        **OUT_FLAG,
    },
    "tmax": {**IN_FLAG, **OUT_FLAG, **OPTIMIZER_FLAGS},
    "check": {**IN_FLAG, **OUT_FLAG, **OPTIMIZER_FLAGS},
    "scan": {
        ("--ghz",): ("ghz", None, int, True, None),
        ("--v-min",): ("v_min", None, float, True, None),
        ("--v-max",): ("v_max", None, float, True, None),
        ("--steps",): ("steps", None, int, True, None),
        ("--format",): ("format", "csv", None, False, ("csv", "json")),
        **OUT_FLAG,
    },
    "verify-bound": {
        **IN_FLAG,
        ("--trials",): ("trials", 1000, int, False, None),
        ("--skip-optimal",): ("skip_optimal", False, None, False, None),
        **OUT_FLAG,
        **OPTIMIZER_FLAGS,
    },
}


def subcommand_parsers():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParserSurface:
    """Every subcommand's flags, pinned: a shared helper may not drop or alter one."""

    def test_subcommands_in_order(self):
        assert list(subcommand_parsers()) == list(CLI_SURFACE)

    @pytest.mark.parametrize("name", list(CLI_SURFACE))
    def test_flags(self, name):
        sub = subcommand_parsers()[name]
        flags = {
            tuple(a.option_strings): (a.dest, a.default, a.type, a.required, a.choices)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert flags == CLI_SURFACE[name]

    @pytest.mark.parametrize("name", list(CLI_SURFACE))
    def test_handler(self, name):
        handler = subcommand_parsers()[name].get_default("handler")
        assert handler is getattr(cli, "_cmd_" + name.replace("-", "_"))


#: The shortest valid argv of every subcommand, its tensor file as T.
MINIMAL_ARGV = {
    "tensor": ("tensor", "--ghz", "3", "--visibility", "0.5"),
    "tmax": ("tmax", "--in", "T"),
    "check": ("check", "--in", "T"),
    "scan": ("scan", "--ghz", "3", "--v-min", "0.3", "--v-max", "0.4", "--steps", "3"),
    "verify-bound": ("verify-bound", "--in", "T", "--trials", "5"),
}


@pytest.mark.parametrize(
    "name",
    [
        name
        for name, sub in subcommand_parsers().items()
        if any(action.dest == "starts" for action in sub._actions)
    ],
)
def test_every_optimizer_flag_has_a_reader(tmp_path, capsys, monkeypatch, name):
    # a subcommand that takes --seed and --starts hands both to the optimizer
    seen = []

    def spy(tensor, config=None):
        seen.append(config)
        return t_max(tensor, config)

    for module in (cli, criterion, lhv):
        monkeypatch.setattr(module, "t_max", spy)
    path = tmp_path / "t.json"
    path.write_text('{"n": 3, "entries": {"111": 0.5, "122": 0.25, "212": -0.5}}')
    argv = [str(path) if arg == "T" else arg for arg in MINIMAL_ARGV[name]]
    code, _, _ = run_cli(capsys, *argv, "--seed", "11", "--starts", "3")
    assert code == 0
    assert seen and all(c == OptimizerConfig(random_starts=3, seed=11) for c in seen)
