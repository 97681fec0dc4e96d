"""Command-line interface: flags, formats, exit codes, determinism."""

import contextlib
import gc
import io
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from opseries import DiffOp, EgfSeries, from_json_dict
from opseries import cli
from opseries import verify as verify_module
from opseries.combinat import integer_partitions, set_partitions, stirling2
from opseries.cli import build_parser, main

XEMX = ",".join(str((-1) ** (m - 1) * m) for m in range(1, 8))  # x e^{-x} to order 7
XEMX_ARGS = ["invert", "--order", "6", "--coeffs", "0," + XEMX]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_examples():
    # each README command whose output is printed beside it, after "#" on the
    # same line or as the "# " lines below it: (argv, expected stdout lines)
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    examples = []
    for i, line in enumerate(lines):
        command, _, inline = line.partition("#")
        if not command.startswith("opseries "):
            continue
        shown = [inline.strip()] if inline else [
            below[2:] for below in takewhile(lambda s: s.startswith("# "), lines[i + 1:])
        ]
        if shown:
            examples.append((shlex.split(command)[1:], shown))
    return examples


class TestInvert:
    def test_log_method_json(self, capsys):
        code, out, _ = run(XEMX_ARGS + ["--method", "log", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == ["1", "1", "3", "16", "125", "1296", "16807"]
        inverse = from_json_dict(payload["inverse"])
        assert list(inverse.coeffs) == [0, 1, 2, 9, 64, 625, 7776]

    def test_log_method_text(self, capsys):
        code, out, _ = run(XEMX_ARGS + ["--method", "log"], capsys)
        assert code == 0
        assert "b: 1, 2, 9, 64, 625, 7776" in out
        assert "c: 1, 1, 3, 16, 125, 1296, 16807" in out

    def test_all_methods_agree(self, capsys):
        code, out, _ = run(
            ["invert", "--order", "6", "--coeffs", "0,1,0,0,0,0,0,0", "--method", "all"],
            capsys,
        )
        assert code == 0
        assert "agree: true" in out
        assert "inverse: x" in out

    def test_all_methods_json_round_trip(self, capsys):
        code, out, _ = run(XEMX_ARGS + ["--method", "all", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        for blob in payload["results"].values():
            assert from_json_dict(blob) == from_json_dict(payload["inverse"])

    def test_ogf_conversion(self, capsys):
        # f = x + x^2 given with ordinary coefficients
        code, out, _ = run(
            [
                "invert",
                "--order",
                "5",
                "--coeffs",
                "0,1,1,0,0,0,0",
                "--convention",
                "ogf",
                "--method",
                "newton",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["inverse"]["convention"] == "ogf"
        g = from_json_dict(payload["inverse"])
        f = EgfSeries([0] + [math.factorial(m) * c for m, c in enumerate([1, 1, 0, 0, 0], start=1)])
        assert f.truncate(5).compose(g) == EgfSeries.identity(5)

    def test_input_file(self, tmp_path, capsys):
        path = tmp_path / "series.json"
        path.write_text(
            json.dumps(
                {
                    "convention": "egf",
                    "order": 7,
                    "coeffs": ["0"] + [str((-1) ** (m - 1) * m) for m in range(1, 8)],
                }
            )
        )
        code, out, _ = run(
            ["invert", "--order", "6", "--input", str(path), "--method", "classical",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert from_json_dict(payload["inverse"]).coeffs[1:] == (1, 2, 9, 64, 625, 7776)

    def test_zero_linear_coefficient_exits_2(self, capsys):
        code, _, err = run(
            ["invert", "--order", "4", "--coeffs", "0,0,1,1,1,1"], capsys
        )
        assert code == 2
        assert "a1 must be nonzero" in err

    def test_nonzero_constant_term_exits_2(self, capsys):
        code, out, err = run(["invert", "--coeffs", "1,1,1", "--order", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "constant term must be zero" in err

    def test_insufficient_order_exits_2(self, capsys):
        code, _, err = run(["invert", "--order", "6", "--coeffs", "0,1,1"], capsys)
        assert code == 2
        assert "order" in err

    def test_bad_coefficients_exit_2(self, capsys):
        code, _, err = run(["invert", "--order", "2", "--coeffs", "0,one,2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("method", ["log", "all"])
    def test_order_zero_exits_2(self, capsys, method):
        code, out, err = run(
            ["invert", "--method", method, "--order", "0", "--coeffs", "0,1,1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "order must be >= 1" in err

    @pytest.mark.parametrize(
        "order,coeffs,contract",
        [
            ("2", ["0", "1", "1"], "order must be an integer"),
            (True, ["0", "1"], "order must be an integer"),
            (2, "012", "coeffs must be a list"),
            (2, ["0", "1", "1/0"], "bad series coefficient"),
            (2, ["0", "1", None], "bad series coefficient"),
            (2, [0, 1, 0.1], "bad series coefficient"),
            (2, [0, True, 1], "bad series coefficient"),
        ],
    )
    def test_malformed_input_file_exits_2(self, tmp_path, capsys, order, coeffs, contract):
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"convention": "egf", "order": order, "coeffs": coeffs}))
        code, out, err = run(["invert", "--order", "1", "--input", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert contract in err


class TestVerify:
    def test_compos_example(self, capsys):
        code, out, _ = run(["verify", "compos", "--m", "3", "--seed", "7", "--n", "2"], capsys)
        assert code == 0
        assert "PASS" in out
        assert "summands=5" in out

    def test_stirling_trivial(self, capsys):
        code, out, _ = run(["verify", "stirling", "--m", "1"], capsys)
        assert code == 0
        assert "1/1 passed" in out

    def test_inversion_trials(self, capsys):
        code, out, _ = run(
            ["verify", "inversion", "--trials", "50", "--order", "8", "--seed", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 50
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize(
        "argv,contract",
        [
            (["prop1", "--trials", "0"], "trials must be at least 1"),
            (["prop1", "--trials", "-3"], "trials must be at least 1"),
            (["compos", "--trials", "0"], "trials must be at least 1"),
            (["prop1", "--n", "0"], "variable count n must be at least 1"),
            (["corollary", "--degree", "-1"], "degree bound must be non-negative"),
            (["compos", "--m", "13"], "m <= 12"),
        ],
    )
    def test_sizes_outside_contract_exit_2(self, capsys, argv, contract):
        code, out, err = run(["verify"] + argv, capsys)
        assert code == 2
        assert out == ""
        assert contract in err

    def test_compos_without_operators_exits_2_before_any_draw(self, monkeypatch, capsys):
        monkeypatch.setattr(verify_module, "_op_list_from_rng",
                            lambda *args: pytest.fail("operators drawn"))
        code, out, err = run(["verify", "compos", "--m", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: operator count m must be at least 1, got 0\n"

    def test_bellpower_over_its_product_bound_exits_2_before_any_product(
        self, monkeypatch, capsys
    ):
        for name in ("diamond", "circ", "bullet"):
            monkeypatch.setattr(DiffOp, name, lambda x, y: pytest.fail("product formed"))
        code, out, err = run(["verify", "bellpower", "--m", "17"], capsys)
        assert code == 2
        assert out == ""
        assert "1668 bullet products, over the bound of 1500" in err

    @pytest.mark.parametrize(
        "argv",
        [["prop1", "--m", "3"], ["corollary", "--order", "2"], ["compos", "--order", "3"],
         ["bellpower", "--order", "3"], ["expid", "--m", "3"], ["stirling", "--order", "2"],
         ["inversion", "--m", "4"], ["stirling", "--trials", "50"], ["stirling", "--n", "7"],
         ["stirling", "--degree", "0"], ["inversion", "--n", "1"], ["inversion", "--degree", "3"]],
    )
    def test_a_size_flag_the_suite_does_not_read_exits_2(self, capsys, argv):
        code, out, err = run(["verify"] + argv, capsys)
        assert code == 2
        assert out == ""
        assert f"suite '{argv[0]}' does not read {argv[1]}" in err

    def test_more_monomials_than_a_draw_can_index_exits_2(self, capsys):
        # C(68, 34) > 2**63 - 1: neither a table of them nor a len() of their ranks exists
        code, out, err = run(["verify", "prop1", "--n", "34", "--degree", "34"], capsys)
        assert code == 2 and out == ""
        assert "give C(68, 34) monomials to draw from, more than the" in err
        assert run(["verify", "prop1", "--n", "33", "--degree", "33"], capsys)[0] == 0

    def test_a_failing_check_exits_1_and_shows_both_sides(self, monkeypatch, capsys):
        monkeypatch.setattr(verify_module, "stirling2", lambda m, k: stirling2(m, k + 1))
        code, out, _ = run(["verify", "stirling", "--m", "3"], capsys)
        assert code == 1
        fail, left, right, total = out.splitlines()
        assert fail.startswith("FAIL stirling [m=3] (")
        assert left == "  left:  x1^3*d1^3 + 3*x1^2*d1^2 + x1*d1"
        assert right == "  right: x1^2*d1^2 + 3*x1*d1 + 1"
        assert total == "0/1 passed"
        code, out, _ = run(["verify", "stirling", "--m", "3", "--format", "json"], capsys)
        assert code == 1
        assert '"passed": false' in out

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, _ = run(["verify", "prop99"], capsys)
        assert code == 2

    def test_json_output_deterministic(self, capsys):
        args = ["verify", "prop1", "--trials", "3", "--seed", "42", "--format", "json"]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second


class TestReadme:
    def test_examples_print_what_the_readme_shows(self, capsys):
        examples = readme_examples()
        assert [argv[:2] for argv, _ in examples] == [["invert", "--method"], ["bell", "3"]]
        for argv, shown in examples:
            code, out, _ = run(argv, capsys)
            assert code == 0
            assert out.splitlines() == shown


class TestEnumerationCommands:
    def test_partitions_text(self, capsys):
        code, out, _ = run(["partitions", "3"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert set(lines[:-1]) == {"1-2-3", "12-3", "13-2", "1-23", "123"}
        assert lines[-1] == "count: 5"

    def test_partitions_json(self, capsys):
        code, out, _ = run(["partitions", "4", "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["count"] == 15
        assert len(payload["partitions"]) == 15

    def test_partitions_over_cap_exits_2(self, capsys):
        code, _, err = run(["partitions", "13"], capsys)
        assert code == 2

    def test_bell_text(self, capsys):
        code, out, _ = run(["bell", "3"], capsys)
        assert code == 0
        assert out.strip() == "x1^3 + 3*x1*x2 + x3"

    def test_bell_json(self, capsys):
        code, out, _ = run(["bell", "4", "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["coefficients"] == {
            "1^4": 1,
            "1^2 2^1": 6,
            "1^1 3^1": 4,
            "2^2": 3,
            "4^1": 1,
        }

    def test_bell_over_cap_exits_2(self, capsys):
        code, out, err = run(["bell", "41"], capsys)
        assert code == 2
        assert out == ""
        assert "integer partitions capped at m <= 40" in err

    def test_usage_error_exits_2(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == 2


class TestParser:
    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._parser.cache_clear()
        try:
            assert run(["bell", "2"], capsys)[0] == 0
            assert run(["partitions", "2"], capsys)[0] == 0
        finally:
            cli._parser.cache_clear()
        assert builds == [1]
        assert build_parser() is not build_parser()

    def test_usage_error_leaves_the_parser_as_new(self, capsys):
        argv = ["invert", "--coeffs", "0,1,1/2,-3,5,2", "--order", "4", "--format", "json"]
        assert run(["invert", "--coeffs", "0,1", "--order", "x"], capsys)[0] == 2
        code, out, _ = run(argv, capsys)
        fresh = subprocess.run(
            [sys.executable, "-m", "opseries.cli", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert fresh.returncode == 0 and '"inverse"' in fresh.stdout
        assert (code, out) == (0, fresh.stdout)


# flag values as typed, valid ones drawn more often: a size is at most 3 when it parses, so
# every call is cheap; the Arabic-Indic digit three is what argparse's int() reads as 3
SIZES = st.sampled_from(["1", "2", "3"] * 3 + ["-1", "0", "1.5", "1e3", "\u0663", "x", ""])
SEEDS = st.sampled_from(["0", "1", "-7", "99999999999999999999", "1.5", "\u0663"])
FORMATS = st.sampled_from(["json", "text"] * 3 + ["xml"])
# a series 0, a_1, ... of 2 to 7 coefficients, the last one bad in about one draw of three
COEFFS = st.tuples(
    st.lists(st.sampled_from(["1", "-1", "1/2", "2", "0", "1.5", "1e3", "\u0663"]),
             min_size=1, max_size=5),
    st.sampled_from([[]] * 8 + [["1/0"], ["x"], [""], ["0.5.1"]]),
).map(lambda drawn: ",".join(["0", *drawn[0], *drawn[1]]))
INPUTS = st.sampled_from(["no/such/series.json", os.devnull, "."])


def optional(flag, values):
    # the flag with a drawn value two times in five, or nothing
    return st.sampled_from([False] * 3 + [True] * 2).flatmap(
        lambda given: values.map(lambda value: [flag, value]) if given else st.just([]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["invert", "verify", "partitions", "bell"] * 3 + ["bogus"]))
    argv = [command]
    if command == "invert":
        source = draw(st.sampled_from(["--coeffs"] * 6 + ["--input", "both", "neither"]))
        order = draw(SIZES) if draw(st.sampled_from([True] * 9 + [False])) else None
        flags = [st.just([] if order is None else ["--order", order])]
        if source in ("--coeffs", "both"):
            flags.append(COEFFS.map(lambda coeffs: ["--coeffs", coeffs]))
        if source in ("--input", "both"):
            flags.append(INPUTS.map(lambda path: ["--input", path]))
        flags += [optional("--method", st.sampled_from([*cli.INVERSE_METHODS, "all"] * 2 + ["x"])),
                  optional("--convention", st.sampled_from(["egf", "ogf"] * 3 + ["x"]))]
    elif command == "verify":
        suite = draw(st.sampled_from([*verify_module.SUITES] * 2 + ["bogus"]))
        argv.append(suite)
        # each flag the suite reads is given often, each other flag seldom
        reads = verify_module.SUITES.get(suite, ({},))[0]
        flags = [optional(f"--{flag}", SIZES) if flag in reads else
                 st.sampled_from([[]] * 9 + [[f"--{flag}", "1"]])
                 for flag in ("trials", "n", "degree", "m", "order")]
        flags.append(optional("--seed", SEEDS))
    else:
        argv.append(draw(SIZES))
        flags = []
    flags += [optional("--format", FORMATS), st.sampled_from([[]] * 19 + [["--bogus", "1"]])]
    for pair in draw(st.permutations(flags)):
        argv += draw(pair)
    return argv


class TestArgvContract:
    @given(argvs())
    @example(["invert", "--coeffs", "0,1,1/2,-1,2", "--order", "3", "--format", "json"])
    @example(["invert", "--order", "2", "--method", "operator", "--convention", "ogf",
              "--coeffs", "0,2,1,\u0663"])
    @settings(max_examples=300, deadline=None)
    def test_every_argv_exits_0_1_or_2_and_a_refusal_prints_only_its_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out.getvalue() == "", argv
            assert "error: " in err.getvalue().splitlines()[-1], argv


def modules_after(code):
    # the modules a fresh isolated interpreter holds after running code with this src/ first
    # on its path; the modules site and .pth files preload are there with or without code
    src = str(Path(cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-c",
         f"import sys\nsys.path.insert(0, {src!r})\n{code}\nprint(*sys.modules, sep='\\n')"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return set(proc.stdout.split())


class TestStartUp:
    def test_the_cli_imports_neither_dataclasses_nor_inspect(self):
        # dataclasses pulls in inspect, ast, dis and tokenize: about half of the import that
        # every command pays for before any algebra
        bare = modules_after("")
        added = modules_after("import opseries.cli\nopseries.cli.build_parser()") - bare
        assert {"opseries.cli", "opseries.verify", "argparse"} <= added
        assert not added & {"dataclasses", "inspect"}


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


class TestJsonWriter:
    """The CLI's JSON writer against json.dumps(indent=2, sort_keys=True)."""

    @given(JSON_VALUES)
    @settings(max_examples=300)
    def test_writes_the_bytes_of_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [{}, [], {"a": [], "b": {}}, [[], {}, [[]]], {"z": 1, "a": {"y": [True, None]}},
         "quote \" backslash \\ newline \n tab \t nul \x00 e\u0301 \u2603 \U0001f600",
         {"\u00e9\n": "\x1f"}, [-0.0, 1e300, float("inf"), float("nan")], 2**200],
        ids=["empty_dict", "empty_list", "empty_members", "nested_empties", "sorted_keys",
             "escapes", "escaped_key", "floats", "big_int"],
    )
    def test_empty_containers_and_escapes(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


class TestNoCycles:
    @pytest.mark.parametrize(
        "call",
        [lambda: set_partitions(6), lambda: integer_partitions(12),
         lambda: main(["verify", "compos", "--m", "6"]),
         lambda: main(["verify", "compos", "--m", "6", "--format", "json"]),
         lambda: main(XEMX_ARGS + ["--method", "all", "--format", "json"])],
        ids=["set_partitions", "integer_partitions", "verify_compos_text", "verify_compos_json",
             "invert_all_json"],
    )
    def test_leaves_nothing_for_the_cycle_collector(self, call, capsys):
        call()  # warm up: first calls fill caches and import lazily
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()
