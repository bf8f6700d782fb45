"""Command-line behaviour: exit codes, text output, JSON envelope."""

import json
import shutil
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from grossone.cli import main
from grossone.gnum import parse_numeral

with resources.files("grossone.schemas").joinpath("envelope.json").open() as fh:
    ENVELOPE_SCHEMA = json.load(fh)


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def run_json(run):
    """Invoke with --format json and return (code, parsed payload).

    Every payload is validated against the shipped schema on the way out.
    """

    def invoke(*argv):
        code, out, err = run(*argv, "--format", "json")
        assert err == ""
        payload = json.loads(out)
        jsonschema.validate(payload, ENVELOPE_SCHEMA)
        return code, payload

    return invoke


class TestEval:
    def test_canonicalizes(self, run):
        code, out, err = run("eval", "①+①")
        assert (code, out, err) == (0, "2①\n", "")

    def test_classification_flags(self, run_json):
        code, payload = run_json("eval", "2①+1")
        assert code == 0
        result = payload["result"]
        assert result["value"] == "2①+1"
        assert result["class"] == {
            "integer": True,
            "finite": False,
            "infinite": True,
            "infinitesimal": False,
        }

    def test_ascii_alias_in_and_out(self, run):
        code, out, _ = run("eval", "2*G1+1", "--ascii")
        assert (code, out) == (0, "2G1+1\n")

    def test_bad_numeral_is_a_syntax_error(self, run):
        code, out, err = run("eval", "2+")
        assert code == 2
        assert out == ""
        assert "ParseError" in err

    def test_values_round_trip_through_the_parser(self, run):
        # "--" keeps leading-minus numerals from looking like options.
        for text in ["①^2-3①+1/2", "-7/3", "①^-1"]:
            code, out, _ = run("eval", "--format", "json", "--", text)
            assert code == 0
            payload = json.loads(out)
            jsonschema.validate(payload, ENVELOPE_SCHEMA)
            assert parse_numeral(payload["result"]["value"]) == parse_numeral(text)


class TestCard:
    def test_symmetric_interval(self, run):
        code, out, _ = run("card", "[-①..①]")
        assert (code, out) == (0, "2①+1\n")

    def test_set_algebra(self, run):
        code, out, _ = run("card", "[1..①]\\{1}")
        assert (code, out) == (0, "①-1\n")

    def test_json_reports_the_normalized_set(self, run_json):
        code, payload = run_json("card", "{1,2,3}|[5..6]")
        assert code == 0
        assert payload["result"] == {"set": "[1..3]|[5..6]", "cardinality": "5"}

    def test_empty_set(self, run_json):
        code, payload = run_json("card", "{}")
        assert code == 0
        assert payload["result"] == {"set": "{}", "cardinality": "0"}

    def test_malformed_expression(self, run):
        code, out, err = run("card", "[1..")
        assert code == 2 and out == "" and "ParseError" in err


class TestCmp:
    @pytest.mark.parametrize(
        "left, right, word",
        [
            ("①", "2①", "negative"),
            ("①^2", "10000000000①", "positive"),
            ("2①+1", "①+①+1", "zero"),
            ("①^-1", "0", "positive"),
        ],
    )
    def test_sign_words(self, run, left, right, word):
        code, out, _ = run("cmp", left, right)
        assert (code, out) == (0, word + "\n")

    def test_json_shape(self, run_json):
        code, payload = run_json("cmp", "1", "2")
        assert code == 0 and payload["result"] == {"sign": "negative"}


class TestMeasure:
    def test_plain_measurement_text(self, run):
        code, out, _ = run("measure", "{1,2}")
        assert code == 0
        assert out == "mu 2\npiece 1 2\ntarget [1..2]\n"

    def test_offsets_appear_when_needed(self, run):
        code, out, _ = run("measure", "{3,4}")
        assert code == 0
        assert out == "mu 2\npiece 1 2 2\ntarget [3..4]\n"

    def test_infinite_tail(self, run_json):
        code, payload = run_json("measure", "[4..①]")
        assert code == 0
        m = payload["result"]["measurement"]
        assert m["mu"] == "①-3"
        assert m["pieces"] == [{"lo": "1", "hi": "①-3", "offset": "3"}]
        assert m["target"] == [{"lo": "4", "hi": "①"}]

    def test_system_gate_success(self, run):
        code, out, _ = run("measure", "{1,2}", "--system", "piraha")
        assert code == 0
        assert out == "mu 2\npiece 1 2\ntarget [1..2]\n"

    def test_system_gate_failure(self, run, run_json):
        code, out, err = run("measure", "{1,2,3}", "--system", "piraha")
        assert code == 1
        assert out == ""
        assert "NotExpressible" in err

        code, payload = run_json("measure", "{1,2,3}", "--system", "piraha")
        assert code == 1
        assert payload["error"]["type"] == "NotExpressible"
        assert payload["error"]["value"] == "3"

    def test_unknown_system_descriptor(self, run):
        code, _, err = run("measure", "{1}", "--system", "roman")
        assert code == 2 and "ParseError" in err


class TestSystem:
    @pytest.mark.parametrize(
        "descriptor, query, expected",
        [
            ("piraha", "max-finite", "2"),
            ("finite:2:10", "max-finite", "99"),
            ("finite:3:2", "max-finite", "7"),
            ("gross:1:3:1", "max-finite", "999"),
            ("gross:1:3:1", "min-infinite", "1/999①"),
            ("gross:2:3:1", "min-infinite", "1/999①-999"),
        ],
    )
    def test_extremes(self, run, descriptor, query, expected):
        code, out, _ = run("system", descriptor, query)
        assert (code, out) == (0, expected + "\n")

    def test_expressible_query(self, run, run_json):
        code, out, _ = run("system", "finite:2:10", "expressible", "99")
        assert (code, out) == (0, "true\n")
        code, out, _ = run("system", "finite:2:10", "expressible", "100")
        assert (code, out) == (0, "false\n")
        code, payload = run_json("system", "gross:2:3:1", "expressible", "①-999")
        assert code == 0
        assert payload["result"]["expressible"] is True

    def test_expressible_without_a_value(self, run):
        code, _, err = run("system", "piraha", "expressible")
        assert code == 2 and "ParseError" in err

    def test_no_infinite_numerals_is_a_domain_error(self, run_json):
        code, payload = run_json("system", "piraha", "min-infinite")
        assert code == 1
        assert payload["error"]["type"] == "NoInfiniteNumerals"

    def test_bad_descriptor(self, run):
        code, _, err = run("system", "gross:0:1:1", "max-finite")
        assert code == 2 and "ParseError" in err


class TestDefine:
    def test_finite_threshold_resolves(self, run):
        code, out, _ = run("define", "sqrtfloor(100)")
        assert (code, out) == (0, "10\n")

    def test_infinite_threshold_stays_symbolic(self, run_json):
        code, payload = run_json("define", "sqrtfloor(①)")
        assert code == 0
        assert payload["result"] == {"defined": "sqrtfloor(①)"}

    def test_probe_comparisons(self, run):
        code, out, _ = run("define", "sqrtfloor(①)", "--cmp", "1000000")
        assert (code, out) == (0, "sqrtfloor(①)\npositive\n")
        code, out, _ = run("define", "sqrtfloor(①)", "--cmp", "①")
        assert (code, out) == (0, "sqrtfloor(①)\nnegative\n")
        code, out, _ = run("define", "logfloor(2, ①)", "--cmp", "①")
        assert (code, out) == (0, "logfloor(2, ①)\nincomparable\n")

    def test_resolved_value_still_answers_probes(self, run_json):
        code, payload = run_json("define", "invfloor(pow 3, 1000)", "--cmp", "9")
        assert code == 0
        assert payload["result"] == {
            "defined": "invfloor(pow 3, 1000)",
            "resolved": "10",
            "cmp": "positive",
        }

    def test_threshold_below_range_is_a_domain_error(self, run_json):
        code, payload = run_json("define", "sqrtfloor(0)")
        assert code == 1
        assert payload["error"]["type"] == "BelowRange"

    def test_malformed_expression(self, run):
        code, _, err = run("define", "sqrtfloor[9]")
        assert code == 2 and "ParseError" in err


class TestDemo:
    def test_halfplane_text(self, run):
        code, out, _ = run("demo", "halfplane", "--a", "1", "--d", "0")
        assert code == 0
        assert out == (
            "A [-①..1]x[-①..①]\n"
            "C [1..①+2]x[-①..①]\n"
            "B [-①-2..-1]x[-①..①]\n"
            "subset false\n"
            "uncovered 2\n"
            "uncovered-left [-①-2..-①]\n"
            "classical-subset true\n"
        )

    def test_halfplane_json(self, run_json):
        code, payload = run_json("demo", "halfplane", "--a", "1", "--d", "0")
        assert code == 0
        result = payload["result"]
        assert result["subset"] is False
        assert result["classical_subset"] is True
        assert result["uncovered"] == "2"
        assert result["uncovered_right"] is None

    def test_finite_widths_and_ascii(self, run):
        code, out, _ = run(
            "demo", "halfplane", "--a", "1", "--d", "0", "--b", "100", "--c", "5", "--ascii"
        )
        assert code == 0
        assert "A [-100..1]x[-5..5]\n" in out
        assert "①" not in out

    def test_infinite_axis_rejected(self, run):
        code, _, err = run("demo", "halfplane", "--a", "①", "--d", "0")
        assert code == 2 and "ParseError" in err


class TestPlumbing:
    def test_unknown_verb(self, run):
        code, out, err = run("frobnicate")
        assert code == 2 and out == ""

    def test_missing_arguments(self, run):
        code, _, _ = run("cmp", "1")
        assert code == 2

    def test_json_errors_go_to_stdout(self, run):
        code, out, err = run("eval", "oops", "--format", "json")
        assert code == 2
        assert err == ""
        payload = json.loads(out)
        jsonschema.validate(payload, ENVELOPE_SCHEMA)
        assert payload["error"]["type"] == "ParseError"

    def test_repeat_runs_are_byte_identical(self, run):
        first = run("measure", "[4..①]", "--format", "json")
        second = run("measure", "[4..①]", "--format", "json")
        assert first == second

    def test_ascii_json_has_no_unicode_unit(self, run):
        code, out, _ = run("measure", "[4..①]", "--format", "json", "--ascii")
        assert code == 0
        assert "①" not in out
        assert "G1" in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "grossone", "card", "[-G1..G1]", "--ascii"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "2G1+1\n"

    def test_console_script_installed(self):
        path = shutil.which("grossone")
        assert path is not None
        proc = subprocess.run([path, "cmp", "1", "2"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "negative\n"


class TestDomainErrorsKeepTheEnvelope:
    """Inputs that used to escape as tracebacks end in the documented envelope."""

    @pytest.mark.parametrize(
        "argv, code, kind",
        [
            (("define", "sqrtfloor(1/2)"), 1, "InvalidArgument"),
            (("define", "logfloor(1,5)"), 1, "InvalidArgument"),
            (("define", "invfloor(pow 1, 5)"), 1, "InvalidArgument"),
            (("demo", "halfplane", "--a", "1", "--d", "0", "--b", "-5"), 1, "InvalidArgument"),
            (("system", "gross:2:5000:1", "max-finite"), 1, "InvalidArgument"),
            (("system", "gross:2:6:1", "expressible", "9" * 5000), 2, "ParseError"),
        ],
    )
    def test_json_envelope(self, run_json, argv, code, kind):
        got, payload = run_json(*argv)
        assert got == code
        assert payload["error"]["type"] == kind

    def test_text_mode_reports_on_stderr(self, run):
        code, out, err = run("demo", "halfplane", "--a", "1", "--d", "0", "--b", "-5")
        assert (code, out) == (1, "")
        assert err.startswith("error: InvalidArgument:")
        assert "Traceback" not in err


class TestInputSizeBounds:
    """Oversized inputs end in the envelope, quickly, instead of a traceback or a hang."""

    DEEP = "(" * 1000 + "[1..2]" + ")" * 1000

    def test_deep_nesting_text(self, run):
        code, out, err = run("card", self.DEEP)
        assert (code, out) == (2, "")
        assert err.startswith("error: ParseError: set expression nested more than")
        assert "Traceback" not in err

    def test_deep_nesting_json(self, run_json):
        code, payload = run_json("card", self.DEEP)
        assert code == 2
        assert payload["error"]["type"] == "ParseError"

    @pytest.mark.parametrize("opener", ["(", "hull("])
    def test_nesting_at_the_cap_still_evaluates(self, run, opener):
        code, out, _ = run("card", opener * 100 + "[1..2]" + ")" * 100)
        assert (code, out) == (0, "2\n")

    @pytest.mark.parametrize(
        "argv, code, kind",
        [
            (("system", "finite:100000000:10", "max-finite"), 2, "ParseError"),
            (("system", "finite:100000000:10", "expressible", "5"), 2, "ParseError"),
            (("system", "gross:1:100000000:1", "max-finite"), 1, "InvalidArgument"),
            (("system", "gross:2:100000000:1", "min-infinite"), 1, "InvalidArgument"),
        ],
    )
    def test_huge_descriptors_answer_in_bounded_time(self, argv, code, kind):
        for fmt in ("text", "json"):
            proc = subprocess.run(
                [sys.executable, "-m", "grossone", *argv, "--format", fmt],
                capture_output=True,
                text=True,
                timeout=30,
            )
            assert proc.returncode == code
            assert "Traceback" not in proc.stderr
            if fmt == "json":
                payload = json.loads(proc.stdout)
                jsonschema.validate(payload, ENVELOPE_SCHEMA)
                assert payload["error"]["type"] == kind
            else:
                assert proc.stderr.startswith(f"error: {kind}:")

    @pytest.mark.parametrize(
        "descriptor, digits", [("finite:4300:10", 4300), ("finite:14284:2", 4300)]
    )
    def test_descriptors_up_to_the_digit_limit_still_answer(self, run, descriptor, digits):
        code, out, _ = run("system", descriptor, "max-finite")
        assert code == 0
        assert len(out.strip()) == digits

    @pytest.mark.parametrize("descriptor", ["finite:4301:10", "finite:14285:2"])
    def test_descriptors_past_the_digit_limit_are_syntax_errors(self, run, descriptor):
        code, out, err = run("system", descriptor, "max-finite")
        assert (code, out) == (2, "")
        assert "ParseError" in err


class TestStructuredErrors:
    """JSON errors carry a ParseError's position and a NotExpressible's system."""

    @pytest.mark.parametrize(
        "argv, position",
        [
            (("eval", "7①+"), 3),
            (("cmp", "1", "2**"), 2),
            (("card", "[1..3"), 5),
            (("system", "roman", "max-finite"), 0),
        ],
    )
    def test_parse_errors_carry_their_position(self, run_json, argv, position):
        code, payload = run_json(*argv)
        assert code == 2
        error = payload["error"]
        assert error["type"] == "ParseError"
        assert error["position"] == position
        assert f"at position {position} in" in error["message"]

    def test_not_expressible_carries_value_and_system(self, run_json):
        code, payload = run_json("measure", "{1,2,3}", "--system", "piraha")
        assert code == 1
        assert payload["error"] == {
            "type": "NotExpressible",
            "message": "3 is not expressible in piraha",
            "value": "3",
            "system": "piraha",
        }

    def test_other_errors_carry_neither(self, run_json):
        code, payload = run_json("define", "sqrtfloor(1/2)")
        assert code == 1
        assert set(payload["error"]) == {"type", "message"}

    def test_text_mode_is_unchanged(self, run):
        assert run("eval", "--", "7①+") == (
            2,
            "",
            "error: ParseError: expected a number at position 3 in '7①+'\n",
        )
        assert run("measure", "{1,2,3}", "--system", "piraha") == (
            1,
            "",
            "error: NotExpressible: 3 is not expressible in piraha\n",
        )
