import importlib.util
import json
import math
from pathlib import Path

import pytest

from hypercone.cli import main
from hypercone.tolerances import DEFAULT

FREE_SPEC = {"matrices": [[[2, 1], [0, 0.5]], [[0.5, 0], [-9, 2]]],
             "shift": {"type": "full"}, "mode": "float"}

ELLIPTIC_SPEC = {"matrices": [[[8, 1], [0, 0.125]], [[0.5, 0], [-1, 2]]],
                 "shift": {"type": "full"}}

RATIONAL_SPEC = {"matrices": [[["2", "1"], ["0", "1/2"]],
                              [["1/2", "0"], ["-9", "2"]]],
                 "shift": {"type": "full"}, "mode": "rational"}


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_classify2_free_pair(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    code, doc = run(capsys, ["classify2", "--input", path])
    assert code == 0
    v = doc["verdicts"][0]
    assert v["variant"] == "non_principal"
    assert v["fword"] == ""
    assert v["orientation"] == "positive"


def test_classify2_rational_mode(tmp_path, capsys):
    path = write_spec(tmp_path, RATIONAL_SPEC)
    code, doc = run(capsys, ["classify2", "--input", path])
    assert code == 0
    assert doc["verdicts"][0]["variant"] == "non_principal"


def test_classify2_elliptic_witness(tmp_path, capsys):
    path = write_spec(tmp_path, ELLIPTIC_SPEC)
    code, doc = run(capsys, ["classify2", "--input", path])
    assert code == 0
    v = doc["verdicts"][0]
    assert v["variant"] == "elliptic" and v["witness"] == "BAB"


def test_classify2_degenerate_exit_code(tmp_path, capsys):
    spec = {"matrices": [[[1, 1], [0, 1]], [[2, 1], [0, 0.5]]],
            "shift": {"type": "full"}}
    path = write_spec(tmp_path, spec)
    code, doc = run(capsys, ["classify2", "--input", path])
    assert code == 2
    assert doc["verdicts"][0]["variant"] == "degenerate"


def test_classify2_batch_order(tmp_path, capsys):
    path = write_spec(tmp_path, {"tuples": [FREE_SPEC, ELLIPTIC_SPEC]})
    code, doc = run(capsys, ["classify2", "--input", path])
    assert [v["variant"] for v in doc["verdicts"]] == ["non_principal",
                                                       "elliptic"]


def free_family_path(tmp_path):
    """A certifying multicone family for FREE_SPEC, written as JSON."""
    from hypercone.fareycomb import component_model
    from hypercone.multicone import MulticoneFamily, fatten_cores
    from hypercone.sl2core import Mat2
    from tests.reference import family_json
    pair = (Mat2(2, 1, 0, 0.5), Mat2(0.5, 0, -9, 2))
    cone = fatten_cores(pair, component_model(*pair, "").cores)
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(family_json(MulticoneFamily.constant(cone, 2))))
    return str(fam_path)


def test_envelope_determinism(tmp_path, capsys, monkeypatch):
    path = write_spec(tmp_path, FREE_SPEC)
    main(["classify2", "--input", path])
    first = capsys.readouterr().out
    main(["classify2", "--input", path])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"budgets", "command", "input_digest", "tolerances",
                        "verdicts", "version"}
    # every subcommand reports the one fixed table; the environment sets none
    monkeypatch.setenv("HYPERCONE_TOL", "1e-6")
    for argv in (["classify2", "--input", path],
                 ["certify", "--input", path, "--multicone", free_family_path(tmp_path)],
                 ["cores", "--input", path, "--depth", "40"],
                 ["describe", "--fword", "+-"],
                 ["farey", "--pq", "2/5"],
                 ["winding", "--input", path, "--word", "AB"],
                 ["witness", "--input", path, "--budget", "4,4,2"],
                 ["normalize", "--input", path, "--bound", "10"],
                 ["rate", "--input", path, "--depth", "8"]):
        code, doc = run(capsys, argv)
        assert code == 0 and doc["command"] == argv[0]
        assert doc["tolerances"] == DEFAULT.as_dict()


def test_input_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["classify2", "--input", str(path)]) == 1


def test_non_unimodular_rejected(tmp_path, capsys):
    spec = {"matrices": [[[2, 0], [0, 2]], [[2, 1], [0, 0.5]]],
            "shift": {"type": "full"}}
    path = write_spec(tmp_path, spec)
    assert main(["classify2", "--input", str(path)]) == 2


def test_farey_figure_sequence(tmp_path, capsys):
    code, doc = run(capsys, ["farey", "--pq", "2/5"])
    assert code == 0
    v = doc["verdicts"][0]
    assert v["order"] == ["BABAA", "BA", "ABABA", "AB", "AABAB",
                          "AAB", "ABAAB", "ABA", "BAABA", "BAA"]
    assert v["parents"] == ["1/3", "1/2"]


def test_describe_component(tmp_path, capsys):
    code, doc = run(capsys, ["describe", "--fword", "+-"])
    assert code == 0
    v = doc["verdicts"][0]
    assert v["fraction"] == "2/5"
    assert v["action"]["BABAA"]["A"]["to"] == "ABABA"


def test_describe_double_minus_word(tmp_path, capsys):
    # argparse drops a value that is exactly "--"; the command must still
    # report the word it was given
    code, doc = run(capsys, ["describe", "--fword=--"])
    assert code == 0
    v = doc["verdicts"][0]
    assert v["fword"] == "--"
    assert v["fraction"] == "3/4"


@pytest.mark.parametrize("argv", [["--fword=x"], ["--fword=+-x"]])
def test_describe_rejects_letters_outside_signs(capsys, argv):
    code = main(["describe", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "sign word" in captured.err


def test_usage_error_is_an_input_error(capsys):
    # "--" ends the options, so --fword has no value: a usage error, which
    # must not exit 2 (the degenerate-verdict code)
    code, doc = run(capsys, ["describe", "--fword", "--"])
    assert code == 1 and doc is None


def test_winding_command(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    code, doc = run(capsys, ["winding", "--input", path, "--word", "AB"])
    assert code == 0
    assert doc["verdicts"][0]["winding"] == -1


def test_winding_rejects_a_letter_outside_the_alphabet(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    code = main(["winding", "--input", path, "--word", "AC"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error: ")


def test_witness_command(tmp_path, capsys):
    path = write_spec(tmp_path, ELLIPTIC_SPEC)
    code, doc = run(capsys, ["witness", "--input", path, "--budget", "4,4,2"])
    assert code == 0
    assert doc["verdicts"][0]["kind"] == "elliptic"


def test_normalize_command(tmp_path, capsys):
    spec = {"matrices": [[[1, 1000], [0, 1]]], "shift": {"type": "full"}}
    path = write_spec(tmp_path, spec)
    code, doc = run(capsys, ["normalize", "--input", path, "--bound", "10"])
    assert code == 0
    v = doc["verdicts"][0]
    assert v["normalized"][0][0][1] == pytest.approx(1.0)


def test_cores_command_with_svg(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    svg = str(tmp_path / "cores.svg")
    code, doc = run(capsys, ["cores", "--input", path, "--depth", "40",
                             "--svg", svg])
    assert code == 0
    assert doc["verdicts"][0]["rank"] == 2
    text = open(svg).read()
    assert text.startswith("<svg") and "</svg>" in text
    assert text.count("stroke=\"#c33\"") == 2  # two unstable arcs


def test_cores_out_of_depth_is_budget_exceeded(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    code = main(["cores", "--input", path, "--depth", "1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("budget exceeded: ")


def test_rate_out_of_depth_is_budget_exceeded(tmp_path, capsys):
    # on the two-letter cycle shift every cyclic word has even length, so
    # depth 1 holds none: a budget too small, as cores reports it
    spec = dict(FREE_SPEC, shift={"type": "sft", "allowed": [[False, True], [True, False]]})
    path = write_spec(tmp_path, spec)
    for argv in (["rate", "--input", path, "--depth", "1"],
                 ["cores", "--input", path, "--depth", "1"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("budget exceeded: ")
    code, doc = run(capsys, ["rate", "--input", path, "--depth", "2"])
    assert code == 0 and doc["verdicts"][0]["word"] == "AB"


def test_certify_command(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    code, doc = run(capsys, ["certify", "--input", path,
                             "--multicone", free_family_path(tmp_path)])
    assert code == 0
    v = doc["verdicts"][0]
    assert v["ok"] and v["contraction"] > 1.0


def test_classify2_svg_component_diagram(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    svg = str(tmp_path / "component.svg")
    code, _ = run(capsys, ["classify2", "--input", path, "--svg", svg])
    assert code == 0
    text = open(svg).read()
    assert "u(AB)" in text and "s(BA)" in text


def test_rate_command(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    code, doc = run(capsys, ["rate", "--input", path, "--depth", "8"])
    assert code == 0
    assert doc["verdicts"][0]["rate"] > 1.0


def test_farey_svg(tmp_path, capsys):
    svg = str(tmp_path / "order.svg")
    code, _ = run(capsys, ["farey", "--pq", "2/5", "--svg", svg])
    assert code == 0
    text = open(svg).read()
    assert "BABAA" in text and "AABAB" in text


def test_classify2_rational_pullback(tmp_path, capsys):
    # member of the '+' component built exactly: A = A0, B = A0^-1 B0
    spec = {"matrices": [[["2", "1"], ["0", "1/2"]],
                         [["37/4", "-2"], ["-18", "4"]]],
            "shift": {"type": "full"}, "mode": "rational"}
    path = write_spec(tmp_path, spec)
    code, doc = run(capsys, ["classify2", "--input", path])
    assert code == 0
    v = doc["verdicts"][0]
    assert v["variant"] == "non_principal"
    assert v["fword"] == "+"
    assert v["orientation"] == "positive"


def test_witness_on_restricted_shift(tmp_path, capsys):
    allowed = [[not ((i, j) in ((0, 2), (2, 0), (1, 3), (3, 1)))
                for j in range(4)] for i in range(4)]
    spec = {"matrices": [[[2, 1], [0, 0.5]], [[0.5, 0], [-9, 2]],
                         [[0.5, -1], [0, 2]], [[2, 0], [9, 0.5]]],
            "shift": {"type": "sft", "allowed": allowed}}
    path = write_spec(tmp_path, spec)
    code, doc = run(capsys, ["witness", "--input", path, "--budget", "3,3,2"])
    assert code == 0
    assert doc["verdicts"][0]["kind"] == "none"  # group-hyperbolic tuple
    code, doc = run(capsys, ["rate", "--input", path, "--depth", "5"])
    assert code == 0
    assert doc["verdicts"][0]["rate"] > 1.0


def test_draw_component_script(tmp_path, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "draw_component.py"
    spec = importlib.util.spec_from_file_location("draw_component", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = tmp_path / "component.svg"
    assert module.main(["--fword", "+-", "--out", str(out)]) == 0
    text = out.read_text()
    assert "component 2/5   rank 5   lambda" in text
    assert "u(BABAA)" in text and 'stroke="#7a7"' in text  # labels and the cone
    assert capsys.readouterr().out.startswith(f"wrote {out}: component 2/5")


@pytest.mark.parametrize("argv", [
    ["witness", "--budget=-1,2,2"], ["witness", "--budget=2,0,2"],
    ["witness", "--budget=2,2,-1"], ["witness", "--budget=2,2"],
    ["cores", "--depth=0"], ["cores", "--depth=-1"],
    ["rate", "--depth=0"], ["rate", "--depth=-1"], ["rate", "--depth=x"],
    ["normalize", "--bound=nan"], ["normalize", "--bound=inf"],
    ["normalize", "--bound=-1"]])
def test_bad_depth_is_an_input_error(tmp_path, capsys, argv):
    path = write_spec(tmp_path, FREE_SPEC)
    code = main([*argv, "--input", path])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "input error" in captured.err


@pytest.mark.parametrize("command", [["winding", "--word", "AB"], ["witness"],
                                     ["normalize", "--bound", "20"], ["rate"]])
def test_svg_only_where_a_diagram_is_drawn(tmp_path, capsys, command):
    # classify2, certify, cores, describe and farey draw; the rest take no --svg
    path = write_spec(tmp_path, FREE_SPEC)
    svg = tmp_path / "x.svg"
    code = main([*command, "--input", path, "--svg", str(svg)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == "" and "--svg" in captured.err
    assert not svg.exists()


def test_witness_empty_connector_budget(tmp_path, capsys):
    # n = 0 leaves only the empty connector, which is a valid budget
    path = write_spec(tmp_path, FREE_SPEC)
    code, doc = run(capsys, ["witness", "--input", path, "--budget", "2,2,0"])
    assert code == 0
    assert doc["budgets"] == {"k": 2, "l": 2, "n": 0}
    assert doc["verdicts"][0]["heteroclinic"]["connector"] == ""


def test_witness_reverify_failure_exit_code(tmp_path, capsys, monkeypatch):
    import hypercone.symdyn as symdyn_mod
    from hypercone.sl2core import Mat2
    path = write_spec(tmp_path, ELLIPTIC_SPEC)
    # the rebuilt product is hyperbolic, so the elliptic witness fails
    monkeypatch.setattr(symdyn_mod, "product", lambda mats, w: Mat2(2.0, 0, 0, 0.5))
    code = main(["witness", "--input", path, "--budget", "3,3,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("internal inconsistency: elliptic witness")


@pytest.mark.parametrize("spec", [
    [1],
    "free",
    {"tuples": 5},
    {"tuples": [FREE_SPEC, [1]]},
    {"matrices": []},
    {"matrices": [[["1/0", "0"], ["0", "1"]]], "mode": "rational"},
    dict(FREE_SPEC, shift="full"),
    dict(FREE_SPEC, shift={"type": "sft", "allowed": [[1, 1]]}),
    dict(FREE_SPEC, shift={"type": "sft", "allowed": [[1, 1], [1]]}),
    dict(FREE_SPEC, shift={"type": "sft", "allowed": [1, 1]}),
    dict(FREE_SPEC, shift={"type": "sft", "allowed": 5}),
    dict(FREE_SPEC, shift={"type": "ful"}),
    dict(FREE_SPEC, shift={"type": "sft"}),
    {"matrices": [[[2, 1, 7], [0, 0.5, 9]], [[0.5, 0], [-9, 2]]]},
    {"matrices": [[[2, 1], [0, 0.5], [1, 1]], [[0.5, 0], [-9, 2]]]},
    {"matrices": [[[2, True], [0, 0.5]], [[0.5, 0], [-9, 2]]]},
    dict(FREE_SPEC, shift={"type": "sft", "allowed": ["01", "11"]}),
    dict(FREE_SPEC, shift={"type": "sft", "allowed": [["0", 1], [1, 1]]}),
    {"matrices": [[["1e400", "1"], ["0", "1/2"]]], "mode": "rational"},
], ids=["list", "string", "tuples-int", "tuples-item", "no-matrices",
        "zero-denominator", "shift-string", "table-rows", "table-columns",
        "table-flat", "table-int", "shift-type", "no-table", "matrix-columns",
        "matrix-rows", "entry-bool", "table-strings", "table-string-entry",
        "entry-overflow"])
def test_malformed_spec_is_an_input_error(tmp_path, capsys, spec):
    path = write_spec(tmp_path, spec)
    code = main(["rate", "--input", path, "--depth", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error: ")


def test_more_matrices_than_letters_is_an_input_error(tmp_path, capsys):
    # a word over 27 symbols could not be rendered in the letters A-Z
    path = write_spec(tmp_path, {"matrices": [[[2, 1], [0, 0.5]]] * 27})
    code = main(["cores", "--input", path, "--depth", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error: ") and "26 letters" in captured.err


@pytest.mark.parametrize("shift, named", [
    ({"type": "ful"}, "unknown shift type 'ful'"),
    ({"type": "sft"}, "'allowed' transition table")], ids=["type", "no-table"])
def test_bad_shift_spec_names_the_field(tmp_path, capsys, shift, named):
    path = write_spec(tmp_path, dict(FREE_SPEC, shift=shift))
    assert main(["rate", "--input", path, "--depth", "2"]) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("pq", ["2/0", "0/1", "1/1", "3/2", "-1/2", "1/-2",
                                "1/2/3", "x"])
def test_farey_fraction_outside_unit_interval_is_an_input_error(capsys, pq):
    code = main(["farey", f"--pq={pq}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("usage:") and "input error" in captured.err


def test_farey_reduces_the_fraction(capsys):
    code, doc = run(capsys, ["farey", "--pq", "2/4"])
    assert code == 0
    assert doc["verdicts"][0]["fraction"] == "1/2"
    assert doc["verdicts"][0]["parents"] == ["0/1", "1/1"]


PRINCIPAL_SPEC = {"matrices": [[[2, 0], [0, 0.5]], [[3, 0], [0, "1/3"]]]}
DEGENERATE_SPEC = {"matrices": [[[1, 1], [0, 1]], [[2, 1], [0, 0.5]]]}


@pytest.mark.parametrize("argv, specs", [
    (["classify2"], [FREE_SPEC, DEGENERATE_SPEC, ELLIPTIC_SPEC]),
    (["certify", "--multicone", "FAMILY"], [ELLIPTIC_SPEC, FREE_SPEC]),
    (["cores", "--depth", "30"], [FREE_SPEC, PRINCIPAL_SPEC]),
    (["winding", "--word", "AB"], [FREE_SPEC, ELLIPTIC_SPEC]),
    (["witness", "--budget", "4,4,2"], [FREE_SPEC, ELLIPTIC_SPEC]),
    (["normalize", "--bound", "10"], [FREE_SPEC, ELLIPTIC_SPEC]),
    (["rate", "--depth", "6"], [FREE_SPEC, ELLIPTIC_SPEC]),
], ids=lambda x: x[0] if isinstance(x[0], str) else None)
def test_batch_gives_each_tuple_its_verdict_in_order(tmp_path, capsys, argv, specs):
    command, *rest = [free_family_path(tmp_path) if a == "FAMILY" else a for a in argv]
    singles = [run(capsys, [command, "--input", write_spec(tmp_path, s, f"{i}.json"),
                            *rest]) for i, s in enumerate(specs)]
    verdicts = [doc["verdicts"][0] for _, doc in singles]
    # distinct verdicts, so the batch pins their order
    assert len({json.dumps(v, sort_keys=True) for v in verdicts}) == len(specs)
    code, doc = run(capsys, [command, "--input",
                             write_spec(tmp_path, {"tuples": specs}), *rest])
    assert doc["command"] == command and doc["verdicts"] == verdicts
    assert code == max(c for c, _ in singles)


def test_an_error_within_a_batch_prints_no_envelope(tmp_path, capsys):
    # the first tuple's diagram is drawn before the second tuple fails
    svg = tmp_path / "cores.svg"
    path = write_spec(tmp_path, {"tuples": [FREE_SPEC, ELLIPTIC_SPEC]})
    code = main(["cores", "--input", path, "--depth", "30", "--svg", str(svg)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "is not hyperbolic" in captured.err
    assert svg.read_text().startswith("<svg")


def test_a_shift_with_no_infinite_word_is_degenerate(tmp_path, capsys):
    # one letter without its self-loop: the elliptic quarter turn used to
    # certify over it, no word being left to check
    path = write_spec(tmp_path, {"matrices": [[[0, -1], [1, 0]]],
                                 "shift": {"type": "sft", "allowed": [[0]]}})
    fam = tmp_path / "family.json"
    fam.write_text(json.dumps({"0": {"arcs": [[0.3, 1.2]]}}))
    code = main(["certify", "--input", path, "--multicone", str(fam)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("degenerate input: ") and "no cycle" in captured.err


@pytest.mark.parametrize("command, A, named", [
    ("classify2", [[math.nan, 1], [0, 1]], "entry nan"),
    ("classify2", [[1, math.nan], [0, 1]], "entry nan"),
    ("rate", [[math.inf, 0], [0, 0]], "entry inf"),
    ("classify2", [[2, 1], [-math.inf, 1]], "entry -inf"),
], ids=["nan-diagonal", "nan-off-diagonal", "infinity", "minus-infinity"])
def test_non_finite_entry_is_an_input_error(tmp_path, capsys, command, A, named):
    # json reads NaN and Infinity: a NaN determinant passes the unimodular
    # test, and an off-diagonal NaN reads as +-identity
    path = write_spec(tmp_path, {"matrices": [A, [[2, 1], [1, 1]]]})
    code = main([command, "--input", path])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error: ") and named in captured.err


@pytest.mark.parametrize("start, named", [
    ("NaN", "entry NaN"), ("Infinity", "entry Infinity"), ("-1e400", "entry -1e400"),
], ids=["nan", "infinity", "overflow"])
def test_non_finite_multicone_endpoint_is_an_input_error(tmp_path, capsys, start, named):
    # a NaN start made a MultiCone that certify then rejected (exit 2), and
    # Infinity a math domain error
    cone = f'{{"arcs": [[{start}, 0.5], [1.0, 1.5]]}}'
    fam = tmp_path / "family.json"
    fam.write_text(f'{{"0": {cone}, "1": {cone}}}')
    code = main(["certify", "--input", write_spec(tmp_path, FREE_SPEC),
                 "--multicone", str(fam)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("input error: multicone ") and named in captured.err


def test_classify2_invariant_beyond_the_float_range(tmp_path, capsys):
    # exact pairs whose Fricke invariant is 5e300 and beyond the float range:
    # the second is written null, so the envelope stays strict JSON
    for e, inv in ((150, 5e300), (160, None)):
        big, small = "1" + "0" * e, "1/1" + "0" * e
        path = write_spec(tmp_path, {"matrices": [[[big, "1"], ["0", small]],
                                                  [[small, "0"], ["-5", big]]],
                                     "shift": {"type": "full"}, "mode": "rational"})
        code, doc = run(capsys, ["classify2", "--mode", "rational", "--input", path])
        assert code == 0
        assert doc["verdicts"] == [{"variant": "non_principal", "fword": "",
                                    "sign_pair": "++", "orientation": "positive",
                                    "iterations": 0, "invariant": inv}]
    # in floats the Fricke form of this pair is inf - inf, NaN: also null
    path = write_spec(tmp_path, {"matrices": [[[1e200, 0], [0, 1e-200]],
                                              [[2, 1], [1, 1]]]})
    code, doc = run(capsys, ["classify2", "--input", path])
    assert code == 0
    assert doc["verdicts"] == [{"variant": "principal", "sign_pair": "++",
                                "invariant": None}]


@pytest.mark.parametrize("matrices, code, verdict", [
    ([[[1e200, 0], [0, 1e-200]], [[1e200, 1], [0, 1e-200]]], 2,
     {"variant": "degenerate", "reason": "initial twist test overflows the float range",
      "value": 0.0}),
    ([[[1e300, 1], [-1, 0]], [[0, -1], [1, 1e300]]], 2,
     {"variant": "degenerate", "reason": "initial twist test overflows the float range",
      "value": 0.0}),
    ([[[1e160, 0], [0, 1e-160]], [[2, 1], [1, 1]]], 0,
     {"variant": "principal", "sign_pair": "++", "invariant": None}),
])
def test_classify2_names_an_overflowing_twist_test(tmp_path, capsys, matrices, code, verdict):
    # finite float pairs whose twist test reads inf - inf; the third is
    # decided straight whatever its NaN invariant, written null
    path = write_spec(tmp_path, {"matrices": matrices, "shift": {"type": "full"},
                                 "mode": "float"})
    got, doc = run(capsys, ["classify2", "--input", path])
    assert got == code and doc["verdicts"] == [verdict]
