import importlib.util
import json
from pathlib import Path

import pytest

from hypercone.cli import main

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


def test_envelope_determinism(tmp_path, capsys):
    path = write_spec(tmp_path, FREE_SPEC)
    main(["classify2", "--input", path])
    first = capsys.readouterr().out
    main(["classify2", "--input", path])
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert set(doc) == {"budgets", "command", "input_digest", "tolerances",
                        "verdicts", "version"}


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


def test_certify_command(tmp_path, capsys):
    from hypercone.fareycomb import component_model
    from hypercone.multicone import MulticoneFamily, fatten_cores
    from hypercone.sl2core import Mat2
    pair = (Mat2(2, 1, 0, 0.5), Mat2(0.5, 0, -9, 2))
    cone = fatten_cores(pair, component_model(*pair, "").cores)
    fam = MulticoneFamily.constant(cone, 2)
    fam_path = tmp_path / "family.json"
    fam_path.write_text(json.dumps(fam.to_json()))
    path = write_spec(tmp_path, FREE_SPEC)
    code, doc = run(capsys, ["certify", "--input", path,
                             "--multicone", str(fam_path)])
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


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HYPERCONE_TOL", "1e-6")
    path = write_spec(tmp_path, FREE_SPEC)
    code, doc = run(capsys, ["classify2", "--input", path])
    assert code == 0
    assert doc["tolerances"]["trace"] == 1e-6


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
