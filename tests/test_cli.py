"""Command-line behavior: output, diagnostics, and exit codes."""
import hashlib
import subprocess
import sys
from pathlib import Path

from chronos import equiv
from chronos.cli import _build_parser, main
from chronos.core import fields
from chronos.equiv import CampaignReport, GenParams
from bot_formulas import DEEPEST_NESTS
from test_symbols import _shallow

DATA = Path(__file__).parent / "data"
M0 = str(DATA / "m0.tmodel")


def test_parse_top_ok(capsys):
    assert main(["parse", "top", "Past[?e, empty(tank5)]"]) == 0
    assert capsys.readouterr().out.strip() == "Past[?e, empty(tank5)]"


def test_parse_bot_ok(capsys):
    assert main(["parse", "bot", "subper(?e, [beg,now))"]) == 0
    assert capsys.readouterr().out.strip() == "subper(?e, [beg, now))"


def test_parse_rejects_bad_grammar(capsys):
    assert main(["parse", "top", "Culm[Pres[x(y)]]"]) == 1
    err = capsys.readouterr().err
    assert "line 1" in err


def test_end_of_input_is_reported_before_a_trailing_comment(capsys):
    """README "Syntax": trailing blanks move end of input, a trailing
    comment does not."""
    cases = {"p(a  ": (1, 6), "p(a # note": (1, 5), "p(a\n  # c": (2, 3)}
    for text, (line, column) in cases.items():
        assert main(["parse", "top", text]) == 1
        message = "expected ), found 'end of input'"
        assert capsys.readouterr() == (
            "", f"error: line {line}, column {column}: {message}\n")


def test_translate_output_reparses(capsys):
    assert main(["translate", "Past[?e, empty(tank5)]"]) == 0
    out = capsys.readouterr().out.strip()
    assert main(["parse", "bot", out]) == 0


def test_translate_check_alpha_golden(capsys):
    assert main([
        "translate", "At[d_jan, Past[?e, empty(tank5)]]",
        "--check-alpha", str(DATA / "trans50.bot"),
    ]) == 0
    assert main([
        "translate", "At[y1997, Past[?e, Culm[building(housecorp, bridge2)]]]",
        "--check-alpha", str(DATA / "trans70.bot"),
    ]) == 0


def test_translate_check_alpha_mismatch(tmp_path, capsys):
    wrong = tmp_path / "wrong.bot"
    wrong.write_text(
        "period(d_jan) & eq(?e, ?et) & subper(?et, intersect([beg,end], d_jan))"
        " & empty(tank5, ?p) & subper(?et, ?p)\n"
    )
    code = main([
        "translate", "At[d_jan, Past[?e, empty(tank5)]]",
        "--check-alpha", str(wrong),
    ])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_check_alpha_file_may_start_with_a_byte_order_mark(tmp_path):
    expected = tmp_path / "bom.bot"
    expected.write_bytes(b"\xef\xbb\xbf" + (DATA / "trans50.bot").read_bytes())
    assert main([
        "translate", "At[d_jan, Past[?e, empty(tank5)]]",
        "--check-alpha", str(expected),
    ]) == 0


def test_eval_true_false_and_trace(capsys):
    assert main(["eval", M0, "top", "At[d_jan, Past[?e, empty(tank5)]]"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["eval", M0, "top", "Pres[empty(tank5)]"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert main(["eval", M0, "top", "At[d_jan, Past[?e, empty(tank5)]]", "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("true")
    assert "witness" in out and "?e=" in out and "et=" in out


def test_eval_bot_against_derived_model(capsys):
    assert main(["eval", M0, "bot", "empty(tank5, ?p)", "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("true")
    assert "?p=[2,5]" in out


def test_eval_input_errors(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "missing.tmodel"), "top", "empty(tank5)"]) == 1
    bad = tmp_path / "bad.tmodel"
    bad.write_text("timeline 8\nspeech 2\nobject a\npred q/1\nmaximal q(a) = [1,2] [3,4]\n")
    assert main(["eval", str(bad), "top", "q(a)"]) == 1
    assert "MergeablePeriods" in capsys.readouterr().err
    assert main(["eval", M0, "top", "empty(tank5"]) == 1
    assert main(["eval", M0, "top", "undeclared(tank5)"]) == 1


def test_unknown_names_are_input_errors(capsys):
    """Each unknown name is refused before the search, with its kind, though
    the first three formulas could be false without reading it."""
    cases = {
        ("bot", "prec(end, beg) & nosuch(tank5)"): "unknown functor nosuch/1",
        ("top", "At[tank5, nosuch(tank5)]"): "unknown functor nosuch/1",
        ("top", "At[tank5, empty(nosuch)]"): "unknown constant nosuch",
        ("top", "For[fivepm, 1, empty(tank5)]"):
            "unknown complete partitioning fivepm",
    }
    for (lang, formula), message in cases.items():
        assert main(["eval", M0, lang, formula]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_functor_collisions_are_input_errors(tmp_path, capsys):
    model = tmp_path / "collide.tmodel"
    model.write_text("timeline 4\nspeech 1\nobject a\npred q/1\npred cmp_q/1\n")
    assert main(["eval", str(model), "bot", "q(a, ?p)"]) == 1
    assert capsys.readouterr() == (
        "", "error: derived functor 'cmp_q' already used by the model\n")
    assert main(["translate", "cmp_q(a) & Culm[q(b)]"]) == 1
    assert capsys.readouterr() == (
        "", "error: derived functor 'cmp_q' is already in use\n")


def test_non_ascii_digits_are_input_errors(tmp_path, capsys):
    for digit in ("\u00b2", "\u0663"):
        assert main(["parse", "top", f"For[cp0, {digit}, q(a)]"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: line 1, column 10: unexpected character {digit!r}\n"
        model = tmp_path / "digits.tmodel"
        model.write_text(f"timeline {digit}\nspeech 1\n", encoding="utf-8")
        assert main(["eval", str(model), "top", "q(a)"]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 1: timeline needs a positive size\n"


def test_model_numbers_over_the_cap_are_input_errors(tmp_path, capsys):
    """A timeline too long to list its periods, or a number int() refuses,
    exits 1 with the line and no traceback."""
    model = tmp_path / "long.tmodel"
    for text, line in (("timeline 100000\nspeech 1\n", 1),
                       ("timeline 5\nspeech " + "7" * 5000 + "\n", 2)):
        model.write_text(text)
        assert main(["eval", str(model), "top", "q(a)"]) == 1
        assert capsys.readouterr() == (
            "", f"error: line {line}: numbers are at most 1000\n")


def test_check_reports_and_exit_codes(capsys):
    assert main(["check", "--seed", "42", "--cases", "40"]) == 0
    first = capsys.readouterr().out
    assert first.strip() == "cases=40 disagreements=0"
    assert main(["check", "--seed", "42", "--cases", "40"]) == 0
    assert capsys.readouterr().out == first


def test_check_mutation_disagrees(capsys):
    code = main([
        "check", "--seed", "42", "--cases", "60",
        "--mutate", "drop-past-narrowing",
    ])
    assert code == 3
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("cases=60 disagreements=")
    assert int(lines[-1].rsplit("=", 1)[1]) >= 1
    assert any(line.startswith("disagree case=") for line in lines)


def test_check_size_flags(capsys):
    assert main([
        "check", "--seed", "1", "--cases", "20",
        "--timeline-size", "5", "--atom-count", "2", "--max-depth", "3",
    ]) == 0
    assert capsys.readouterr().out.strip() == "cases=20 disagreements=0"


def test_check_flags_follow_gen_params(monkeypatch):
    """A flag per generator bound, defaulting to GenParams' default, and
    each one reaching the campaign."""
    defaults = vars(_build_parser().parse_args(["check"]))
    built = []

    def campaign(params, cases, mutation=None):
        built.append(params)
        return CampaignReport(params, cases, mutation, ())

    monkeypatch.setattr(equiv, "run_campaign", campaign)
    assert main(["check", "--cases", "0"]) == 0
    assert built == [GenParams()]
    for name in fields(GenParams):
        if name != "seed":
            assert defaults[name] == getattr(GenParams(), name), name
            flag = "--" + name.replace("_", "-")
            assert main(["check", "--cases", "0", flag, "1"]) == 0
            assert getattr(built[-1], name) == 1, name
    assert len(built) == len(fields(GenParams))


def test_check_rejects_a_negative_case_count(capsys):
    assert main(["check", "--cases", "-5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cases must be at least 0, got -5\n"
    assert main(["check", "--cases", "0"]) == 0
    assert capsys.readouterr().out == "cases=0 disagreements=0\n"


def test_check_mutation_report_is_golden(capsys):
    """The whole report, byte for byte: every disagreement with its shrunk
    formula and model digests."""
    code = main([
        "check", "--mutate", "drop-past-narrowing", "--seed", "42",
        "--cases", "1000",
    ])
    assert code == 3
    golden = (DATA / "check-mutate-drop-past-narrowing-42.txt").read_text()
    assert capsys.readouterr().out == golden


def test_deep_nesting_is_an_input_error(capsys):
    # 2000 levels, alternately an operator and a group; the 201st level,
    # the 101st Past, is the first beyond the cap
    text = "Past[?e, (" * 1000 + "q(a)" + ")]" * 1000
    assert main(["parse", "top", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line 1, column 1001: nesting deeper than 200 levels\n")


def test_for_quantity_beyond_the_cap_is_an_input_error(capsys):
    # translating builds about two conjuncts per block, so the parser
    # refuses a quantity it could not translate within memory
    for qty in ("10001", "9" * 5000):
        assert main(["translate", f"For[minute, {qty}, q(a)]"]) == 1
        assert capsys.readouterr() == (
            "", "error: line 1, column 13: quantity must be at most 10000\n")


def test_nests_at_the_bot_cap_evaluate(capsys):
    # the BOT compiler takes one frame per nesting level, so every formula
    # the parser admits evaluates under the default recursion limit
    for text, answer in DEEPEST_NESTS:
        assert main(["eval", M0, "bot", text]) == 0
        assert capsys.readouterr().out == ("true\n" if answer else "false\n")


def test_recursion_error_is_an_input_error(capsys):
    # a safety net no formula within the caps reaches: lower the limit
    text = DEEPEST_NESTS[0][0]
    assert _shallow(lambda: main(["eval", M0, "bot", text]), 100) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: formula nests too deeply to evaluate\n"


def test_long_bot_conjunction_evaluates(capsys):
    text = "prec(beg, end) & " * 3000 + "empty(tank5, ?p)"
    assert main(["eval", M0, "bot", text, "--trace"]) == 0
    assert capsys.readouterr().out == "true\nwitness ?p=[2,5]\n"


def test_long_top_conjunctions_parse_evaluate_and_translate(tmp_path, capsys):
    text = " & ".join(["empty(tank5)"] * 1000)
    assert main(["parse", "top", text]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert main(["eval", M0, "top", text]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["translate", text]) == 0
    expected = tmp_path / "chain.bot"
    expected.write_text(capsys.readouterr().out.replace("?_p", "?_q"))
    assert main(["translate", text, "--check-alpha", str(expected)]) == 0


def test_searches_bind_many_distinct_variables(capsys):
    # one search level per variable; 1,200 levels are past the recursion
    # limit, and each TOP test runs once, at the level of its variable
    names = [f"?x{i}" for i in range(1200)]
    bot_text = " & ".join(f"part(fivepm, {v})" for v in names)
    assert main(["eval", M0, "bot", bot_text]) == 0
    assert capsys.readouterr().out == "true\n"
    names = [f"?x{i}" for i in range(5000)]
    top_text = " & ".join(f"Part[fivepm, {v}]" for v in names)
    assert main(["eval", M0, "top", top_text, "--trace"]) == 0
    witness = " ".join(f"{v}=[3,3]" for v in sorted(names))
    assert capsys.readouterr().out == f"true\nwitness {witness} et=[0,0]\n"


def test_model_files_declare_non_ascii_names(tmp_path, capsys):
    model = tmp_path / "omega.tmodel"
    model.write_text("timeline 4\nspeech 3\nobject Ωmega\npred p/1\n"
                     "maximal p(Ωmega) = [0,1]\n", encoding="utf-8")
    assert main(["eval", str(model), "top", "Past[?e, p(Ωmega)]"]) == 0
    assert main(["eval", str(model), "bot", "p(Ωmega, ?q)", "--trace"]) == 0
    assert capsys.readouterr().out == "true\ntrue\nwitness ?q=[0,1]\n"
    for name in ("²a", "1a"):
        model.write_text(f"timeline 4\nspeech 3\nobject {name}\n", encoding="utf-8")
        assert main(["eval", str(model), "top", "p(a)"]) == 1
        assert capsys.readouterr().err == f"error: line 3: bad object name {name!r}\n"


def test_mutation_report_is_pinned(capsys):
    """The seed 42 report under drop-past-narrowing, byte for byte: its
    disagreements, their shrunk cases and the summary line."""
    assert main(["check", "--seed", "42", "--cases", "1000",
                 "--mutate", "drop-past-narrowing"]) == 3
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 40
    assert (hashlib.sha1(out.encode()).hexdigest()
            == "1975ee13968f6aaf5901c04bb2c52fd5616aae07")


def test_parse_and_translate_load_neither_the_campaign_nor_model_files():
    # -S: no site hooks, so only what the commands load is counted
    code = ("import sys; from chronos.cli import main; "
            "main(['parse', 'top', 'p(a)']); main(['translate', 'Past[?e, p(a)]']); "
            "print(sorted({'chronos.equiv', 'chronos.modelfile', 'hashlib'}"
            " & set(sys.modules)))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(Path(__file__).parents[1] / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"}, check=True,
    ).stdout
    assert out.splitlines()[0] == "p(a)"
    assert out.splitlines()[-1] == "[]"
