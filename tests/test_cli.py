import argparse
import ast
import atexit
import gc
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nodalcount import cli, nodal
from nodalcount.cli import build_parser, main
from nodalcount.geometry import NotGeneral, analyze_pencil, d8_case_suite
from nodalcount.nodal import enumerate_sigma_configs, parse_sigma_spec
from nodalcount.permgroup import class_index_of, generate_group, subgroup_classes
from nodalcount.presets import PRESET_ORDER, resolve_group
from oracles import deadline

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestSigmaSpecs:
    def test_fixed_points(self):
        G = resolve_group("trivial")
        sigma = parse_sigma_spec("4*", G)
        assert sigma.decomposition.mark(0) == 4

    def test_free_orbit(self):
        G = resolve_group("V")
        sigma = parse_sigma_spec("[G]", G)
        assert sigma.orbit_classes == (0,)

    def test_mixed_terms_and_multiplicity(self):
        G = resolve_group("Z2")
        assert parse_sigma_spec("2*+[G]", G).orbit_classes == (0, 1, 1)
        assert parse_sigma_spec("2[G]", G).orbit_classes == (0, 0)

    def test_subgroup_terms(self):
        G = resolve_group("S3")
        sigma = parse_sigma_spec("2*+[G/(123)]", G)
        assert sigma.decomposition.mark(0) == 4

    def test_rejects_bad_sizes(self):
        G = resolve_group("Z2")
        with pytest.raises(Exception):
            parse_sigma_spec("3*", G)

    def test_rejects_foreign_subgroup(self):
        G = resolve_group("A4")
        with pytest.raises(Exception):
            parse_sigma_spec("1*+[G/(12)]", G)  # a transposition is not in A4

    def test_cycles_are_separate_generators(self):
        G = resolve_group("V'")
        both = parse_sigma_spec("3*+[G/(12),(34)]", G).orbit_classes
        assert parse_sigma_spec("3*+[G/(12)(34)]", G).orbit_classes == both == (4,) * 4

    def test_own_specs_are_never_misread(self):
        # Each printed spec reads back as its own configuration or is
        # refused, and never names another one.  Only specs with a product
        # of two 2-cycles as a generator are refused: the parser reads its
        # cycles as two generators.
        for name in PRESET_ORDER:
            G = resolve_group(name)
            for sigma in enumerate_sigma_configs(G):
                spec = sigma.sigma_string()
                try:
                    back = parse_sigma_spec(spec, G)
                except ValueError:
                    assert re.search(r"\(\d\d\)\(\d\d\)", spec), (name, spec)
                    continue
                assert back.orbit_classes == sigma.orbit_classes, (name, spec)


class TestHostileSigmaSpecs:
    """Specs that a backtracking generator pattern or an eager expansion of
    counts would hang on; each must exit 2 with a one-line error at once."""

    def exits_two(self, capsys, spec):
        with deadline(2):
            code = main(["verify", "--group", "S4", "--sigma", spec])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failing_generator_list_is_linear(self, capsys):
        self.exits_two(capsys, "[G/" + "(12)        " * 30 + "x]")

    @pytest.mark.parametrize(
        "spec",
        ["10000000*", "10000000[G]", "9" * 5000 + "*"],
        ids=["fixed", "free", "5000-digit"],
    )
    def test_counts_above_four_are_rejected_unexpanded(self, capsys, spec):
        self.exits_two(capsys, spec)


# A valid value for each required option, so that only the option under
# test can fail.
REQUIRED_VALUES = {"--group": "S4", "--sigma": "4*"}


def one_value_options(parser, command=()):
    """(command words, their parser, option string) for every option that
    takes one value, through every subparser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from one_value_options(sub, (*command, name))
        elif action.option_strings and action.nargs is None:
            yield command, parser, action.option_strings[0]


class TestCommands:
    def test_verify_trivial(self, capsys):
        code, out = run(capsys, "verify", "--group", "trivial", "--sigma", "4*")
        assert code == 0
        assert "equal: true" in out
        assert "lhs = 3*[G/G]" in out

    def test_verify_unequal_exits_one(self, capsys):
        code, out = run(capsys, "verify", "--group", "V", "--sigma", "[G]")
        assert code == 1
        assert "equal: false" in out

    def test_verify_all_klein(self, capsys):
        code, out = run(capsys, "verify-all", "--group", "V")
        assert code == 1  # some configurations are unequal
        assert out.count("group: V") == 11

    def test_verify_all_s3_passes(self, capsys):
        code, _ = run(capsys, "verify-all", "--group", "S3")
        assert code == 0

    def test_marks(self, capsys):
        code, out = run(capsys, "marks", "--group", "Z2")
        assert code == 0
        rows = [re.sub(r"\s+", " ", line) for line in out.splitlines()]
        assert "<()> | 2 0" in rows
        assert "G | 1 1" in rows

    def test_unknown_group_is_input_error(self, capsys):
        code = main(["marks", "--group", "X"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unknown group preset 'X'")

    def test_bad_sigma_is_input_error(self, capsys):
        code = main(["verify", "--group", "Z2", "--sigma", "banana"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["counterexample", "d8", "--c", "0"], "parameters c and d must be nonzero"),
            (
                ["counterexample", "d8", "--d", "0", "--case", "9"],
                "parameters c and d must be nonzero",
            ),
            (["counterexample", "d8", "--a", "2"], "argument --a: expected +1 or -1"),
            (["verify", "--group", "S4", "--sigma", "4*+"], "empty term in sigma spec '4*+'"),
            (["verify", "--group", "S4", "--sigma", "[G/(1x)]"], "cannot parse cycle (1x)"),
            # "²" is a digit to str.isdigit, but int() cannot read it
            (["verify", "--group", "S4", "--sigma", "[G/(1²)]"], "cannot parse cycle (1²)"),
            (["verify", "--group", "S4", "--sigma", "[G/(11)]"], "repeated point in cycle (11)"),
            (["verify", "--group", "S4", "--sigma", "[G/(15)]"], "point 5 out of range in '(15)'"),
        ],
        ids=[
            "zero-c",
            "zero-d",
            "bad-sign",
            "empty-term",
            "bad-cycle",
            "superscript-digit",
            "repeated-point",
            "point-out-of-range",
        ],
    )
    def test_bad_input_exits_two_with_one_error_line(self, capsys, argv, message):
        # An argparse error exits through SystemExit after its usage lines;
        # the others return 2 with the error line alone.
        with deadline(2):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        errors = [line for line in captured.err.splitlines() if "error: " in line]
        assert len(errors) == 1 and errors[0].endswith(message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["counterexample", "d8", "--d", "x" * 5000],
            ["marks", "--group", "x" * 5000],
            ["verify", "--group", "S4", "--sigma", "x" * 5000],
            ["verify", "--group", "S4", "--sigma", f"[G/({'x' * 5000})]"],
            ["verify", "--group", "S4", "--sigma", f"[G/({'1' * 5000})]"],
            ["verify", "--group", "S4", "--sigma", "+".join(["[G]"] * 2000)],
        ],
        ids=["rational", "group", "sigma-term", "cycle", "repeated-point", "orbit-sizes"],
    )
    def test_long_input_is_not_echoed_in_full(self, capsys, argv):
        # A refusal quotes the input through reprlib.repr, or cuts it the
        # same way, so the error line stays short whatever the input's length.
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        errors = [line for line in captured.err.splitlines() if "error: " in line]
        assert len(errors) == 1 and len(errors[0].encode()) < 200

    def test_point_too_long_for_int_is_out_of_range(self, capsys):
        # int() would refuse the 5000 digits with advice on raising Python's limit.
        code = main(["verify", "--group", "S4", "--sigma", f"[G/(1 {'9' * 5000})]"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (
            "error: point 9999999999999...99999999999999 out of range"
            " in '(1 999999999...999999999999)'\n"
        )

    def test_option_given_as_double_dash_exits_two(self, capsys):
        # argparse reads "--c=--" as an empty list; each option refuses it
        # as a usage error instead of crashing or ignoring it.
        seen = []
        for command, parser, option in one_value_options(build_parser()):
            required = [
                arg
                for a in parser._actions
                if a.required and a.option_strings and a.option_strings[0] != option
                for arg in (a.option_strings[0], REQUIRED_VALUES[a.option_strings[0]])
            ]
            argv = [*command, *required, f"{option}=--"]
            if not command:  # a global option, before a command
                argv = [f"{option}=--", "marks", "--group", "S4"]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            assert (exc.value.code, captured.out) == (2, ""), argv
            errors = [line for line in captured.err.splitlines() if "error: " in line]
            assert len(errors) == 1 and option in errors[0], argv
            seen.append(option)
        assert {"--format", "--output", "--group", "--sigma", "--c", "--case"} <= set(seen)

    def test_counterexample_klein(self, capsys):
        code, out = run(capsys, "counterexample", "klein")
        assert code == 0
        assert "equal: false" in out
        assert "[1:2:3]" in out

    @pytest.mark.parametrize("option", ["--a=-1", "--b=-1", "--c=99", "--d=2", "--case=3"])
    def test_counterexample_klein_takes_no_d8_option(self, capsys, option):
        # The d8 options belong to the d8 target; klein rejects each of them
        # with argparse's usage error instead of ignoring it.
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "klein", option])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert f"unrecognized arguments: {option}" in captured.err

    def test_counterexample_d8_case8(self, capsys):
        code, out = run(capsys, "counterexample", "d8", "--case", "8")
        assert code == 0
        assert "equal: false" in out
        assert "full per-subgroup table" in out
        # ten subgroup rows
        rows = [
            line
            for line in out.splitlines()[out.splitlines().index("full per-subgroup table:") + 2 :]
            if "|" in line
        ]
        assert len(rows) == 10

    def test_counterexample_d8_degenerate_case(self, capsys):
        code, out = run(capsys, "counterexample", "d8", "--case", "1")
        assert code == 0
        assert "not general: common component" in out

    def test_counterexample_d8_negative_fraction(self, capsys):
        # "--c -7/3" would read -7/3 as an option; the "=" form parses
        code, out = run(capsys, "counterexample", "d8", "--c=-7/3", "--case", "8")
        assert code == 0
        assert "lambda*((-7/3)*X^2 + (-7/3)*Y^2 + Z^2)" in out

    def test_counterexample_d8_large_c(self, capsys):
        # c = 2^61 - 1: the field checks radicands with isqrt, not by factoring
        with deadline(5):
            code, out = run(
                capsys, "counterexample", "d8", "--c", "2305843009213693951", "--case", "8"
            )
        assert code == 0
        assert "equal: false" in out

    @pytest.mark.parametrize("value", ["1e5000", "1e10000000", "1e-10000000"])
    def test_exponent_too_long_to_print_exits_two(self, capsys, value):
        # Fraction would expand the exponent first: the numerator of
        # 1e10000000 alone takes seconds to build.  The parser refuses it.
        with deadline(2):
            with pytest.raises(SystemExit) as exc:
                main(["counterexample", "d8", "--c", value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: argument --c: more than 4300 digits\n")

    @pytest.mark.parametrize(
        "value",
        ["9" * 4301, "1/" + "9" * 4301, "1." + "9" * 4301],
        ids=["integer", "denominator", "decimal"],
    )
    def test_digit_run_too_long_to_print_exits_two(self, capsys, value):
        # The same refusal as an over-long exponent, and the value is not
        # echoed: the line stays short whatever the input's length.
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "d8", "--d", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.endswith(" error: argument --d: more than 4300 digits\n")
        assert len(err) < 500

    def test_long_plain_and_exponent_values_still_parse(self, capsys):
        digits = "7" * 4200
        for value in (digits, "2.5e3", "1e4200"):
            with deadline(5):
                code, out = run(capsys, "counterexample", "d8", "--c", value, "--case", "9")
            assert code == 0
            assert "equal: false" in out

    def test_derived_number_too_long_to_print_exits_two(self, capsys):
        # c and d fit the parser's 4300 digits, but a nodal parameter or a
        # coefficient derived from them is too long for str().
        nines, sevens = "9" * 4300, "7" * 4200
        for argv in (
            ["--c", nines, "--case", "9"],
            ["--c", sevens, "--d", f"1/{sevens}", "--case", "8"],
        ):
            with deadline(5):
                code = main(["counterexample", "d8", *argv])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_counterexample_d8_case9(self, capsys):
        code, out = run(capsys, "counterexample", "d8", "--case", "9")
        assert code == 0
        assert "equal: false" in out

    @pytest.mark.parametrize("a, b", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize(
        "params, c, d", [([], 1, 1), (["--c=3/2", "--d=-5"], Fraction(3, 2), -5)]
    )
    def test_counterexample_exit_follows_the_analysis(self, capsys, a, b, params, c, d):
        # The command reads a pencil's generality off analyze_pencil, which
        # raises NotGeneral on cases 1-7 and returns on 8 and 9.  Each exit
        # is 0: a pencil that is not general, or general with unequal sides.
        for k, case in enumerate(d8_case_suite(a, b, c, d), start=1):
            try:
                expected = int(nodal.verify(analyze_pencil(case).sigma).equal)
                general = True
            except NotGeneral:
                expected, general = 0, False
            assert general == (k > 7), k
            code, _ = run(capsys, "counterexample", "d8", f"--a={a}", f"--b={b}", *params,
                          "--case", str(k))
            assert code == expected == 0, k

    def test_theorem_sweep_matches_golden(self, capsys):
        code, out = run(capsys, "theorem-sweep")
        assert code == 0
        assert "all groups match the golden table" in out

    def test_sweep_verdicts_follow_the_klein_criterion(self, capsys):
        # A configuration is equal exactly when the image phi(G) of its
        # point action contains none of S4's four Klein four-groups: the
        # normal V and the three conjugates of V'.
        S4 = resolve_group("S4")
        classes = subgroup_classes(S4)
        kleins = [
            K
            for name in ("V", "V'")
            for K in classes[class_index_of(S4, resolve_group(name))].members
        ]
        assert len(kleins) == 4
        code, payload = run_json(capsys, "theorem-sweep")
        assert code == 0
        configs = 0
        for entry in payload["groups"]:
            G = resolve_group(entry["group"])
            sigmas = enumerate_sigma_configs(G)
            assert len(sigmas) == len(entry["configs"])
            for sigma, config in zip(sigmas, entry["configs"]):
                assert config["sigma"] == sigma.sigma_string()
                image = generate_group(sigma.point_action.values())
                expected = not any(K.is_subgroup_of(image) for K in kleins)
                assert config["equal"] == expected, (entry["group"], config["sigma"])
                configs += 1
        assert configs == 60

    def _assert_drift_in_v(self, capsys):
        """theorem-sweep, in both formats, reports drift in group V alone."""
        code, out = run(capsys, "theorem-sweep")
        lines = out.splitlines()
        assert code == 1
        assert lines[-1] == "drift detected"
        assert [line.split()[0] for line in lines if "[DRIFT]" in line] == ["V"]
        code, payload = run_json(capsys, "theorem-sweep")
        assert code == 1
        assert payload["matches_golden"] is False
        assert [g["group"] for g in payload["groups"] if not g["matches_golden"]] == ["V"]

    def test_drift_from_the_golden_table_is_reported(self, capsys, monkeypatch):
        golden = cli._load_sweep_golden()
        entry = next(g for g in golden["groups"] if g["group"] == "V")
        entry["configs"][0]["equal"] = not entry["configs"][0]["equal"]
        monkeypatch.setattr(cli, "_load_sweep_golden", lambda: golden)
        self._assert_drift_in_v(capsys)

    def test_a_wrong_pulled_back_verdict_is_reported(self, capsys, monkeypatch):
        # V's first configuration, 4*, is equal: one wrong mark flips it.
        V = resolve_group("V")
        assert enumerate_sigma_configs(V)[0].sigma_string() == "4*"
        original = nodal.pulled_back_table

        def one_wrong_mark(sigma):
            rows = original(sigma)
            if sigma.ambient is V and sigma.sigma_string() == "4*":
                (idx, lm, rm), *rest = rows
                rows = ((idx, lm, rm + 1), *rest)
            return rows

        monkeypatch.setattr(nodal, "pulled_back_table", one_wrong_mark)
        self._assert_drift_in_v(capsys)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(
            [
                "--format",
                "json",
                "--output",
                str(target),
                "verify",
                "--group",
                "Z2",
                "--sigma",
                "2[G]",
            ]
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert data["equal"] is True

    def test_unwritable_output_is_input_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        code = main(["--output", str(target), "marks", "--group", "Z2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")


def test_closed_stdout_ends_quietly():
    # The read end of the pipe is closed before the command runs, so its
    # first write fails with EPIPE: no traceback, and the command's own
    # exit code (0 for marks).
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nodalcount", "marks", "--group", "S4"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["theorem-sweep"],
        ["--format", "json", "theorem-sweep"],
        ["--format", "json", "verify-all", "--group", "S4"],
        ["counterexample", "klein"],
        ["counterexample", "d8", "--case", "9", "--c", "3/7", "--d=-5"],
    ],
)
def test_output_does_not_depend_on_the_hash_seed(argv):
    # Set and dict iteration over hashed objects must not reach the output:
    # fresh interpreters under two string-hash seeds print the same bytes.
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "nodalcount", *argv],
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed),
            timeout=60,
        ).stdout
        for seed in ("0", "1")
    ]
    assert outputs[0]
    assert outputs[0] == outputs[1]


# One command for each way the CLI exits: 0, a verdict of 1, a refusal and
# argparse's usage error (both 2).
EXITS = [
    (["marks", "--group", "S4"], 0),
    (["verify", "--group", "V", "--sigma", "[G]"], 1),
    (["marks", "--group", "X"], 2),
    (["marks"], 2),
]
EXIT_IDS = ["exit-0", "verdict", "refusal", "usage"]

# python -m nodalcount, run by runpy as -m runs it, after an atexit hook that
# therefore runs last and reports the size of the frozen heap.
FREEZE_PROBE = (
    "import atexit, gc, runpy, sys\n"
    "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
    "runpy.run_module('nodalcount', run_name='__main__', alter_sys=True)\n"
)
# The entry point that exits without freezing: cli.main alone.
PLAIN_ENTRY = "import sys; from nodalcount.cli import main; sys.exit(main())"


def child(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )


@pytest.mark.parametrize("argv, code", EXITS, ids=EXIT_IDS)
def test_entry_point_freezes_the_heap_at_exit(argv, code):
    proc = child("-c", FREEZE_PROBE, *argv)
    assert proc.returncode == code
    *_, last = proc.stderr.decode().splitlines()
    assert last.startswith("frozen ")
    assert int(last.split()[1]) > 0


@pytest.mark.parametrize(
    "argv, code",
    [*EXITS, (["--format", "json", "--output", "{out}", "verify-all", "--group", "S4"], 1)],
    ids=[*EXIT_IDS, "output"],
)
def test_frozen_exit_keeps_output_and_exit_code(tmp_path, argv, code):
    runs = []
    for name, entry in (("frozen", ["-m", "nodalcount"]), ("plain", ["-c", PLAIN_ENTRY])):
        out = tmp_path / name
        proc = child(*entry, *(arg.format(out=out) for arg in argv))
        report = out.read_bytes() if out.exists() else None
        runs.append((proc.returncode, proc.stdout, proc.stderr, report))
    assert runs[0][0] == code
    assert runs[0][1] or runs[0][2] or runs[0][3]
    assert runs[0] == runs[1]


def test_main_in_process_does_not_freeze(capsys, monkeypatch):
    registered = []
    monkeypatch.setattr(atexit, "register", registered.append)
    before = gc.get_freeze_count()
    assert main(["marks", "--group", "S4"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before
    assert registered == []


def test_package_defines_no_finalizer():
    # The entry point freezes the heap at exit, so an object left in a
    # reference cycle is never finalized: nothing may rely on __del__.
    for path in sorted((SRC / "nodalcount").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert "__del__" not in names, path.name


class TestJsonTextParity:
    def _table_from_text(self, out):
        rows = {}
        for line in out.splitlines():
            match = re.match(r"^(\S.*?)\s*\|\s*(-?\d+)\s*\|\s*(-?\d+)\s*$", line)
            if match and match.group(1) != "K <= G":
                rows[match.group(1)] = (int(match.group(2)), int(match.group(3)))
        return rows

    def test_verify_numbers_agree(self, capsys):
        code_t, text = run(capsys, "verify", "--group", "V", "--sigma", "[G]")
        code_j, payload = run_json(capsys, "verify", "--group", "V", "--sigma", "[G]")
        assert code_t == code_j == 1
        text_rows = self._table_from_text(text)
        json_rows = {
            row["class"]: (row["lhs"], row["rhs"]) for row in payload["table"]
        }
        assert text_rows == json_rows

    def test_sweep_numbers_agree(self, capsys):
        code_t, text = run(capsys, "theorem-sweep")
        code_j, payload = run_json(capsys, "theorem-sweep")
        assert code_t == code_j == 0
        for entry in payload["groups"]:
            for config in entry["configs"]:
                token = f"{config['sigma']}={'T' if config['equal'] else 'F'}"
                assert token in text
