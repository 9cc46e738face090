import json
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bipers.cli
from bipers.bigraded import Presentation
from bipers.cli import (
    ascii_support_plot,
    main,
    parse_module_file,
    presentation_to_bpm,
)
from bipers.errors import (
    BipersError,
    BpmSyntaxError,
    IllegalEntry,
    NonPrimeModulus,
    UnknownGenerator,
)
from bipers.generators import RandomSpec, gallery, random_module


# ------------------------------------------------------------------ parsing


def test_parse_remark1():
    pres = parse_module_file("gen g 0 0\nrel r 1 1 : 1*g\n")
    assert pres == gallery("hook-not-free")


def test_parse_remark2():
    pres = parse_module_file("gen g 0 1\ngen h 1 0\nrel r 1 1 : 1*g + 1*h\n")
    assert pres == gallery("pd1-not-hook")


def test_parse_unknown_generator_position():
    with pytest.raises(UnknownGenerator) as err:
        parse_module_file("rel r 0 0 : 1*g\n")
    assert err.value.line == 1


def test_parse_comments_and_blanks():
    text = "# a module\n\nfield 2\ngen g 0 0  # the generator\n"
    pres = parse_module_file(text)
    assert pres.gens == ((0, 0),)


def test_parse_field_line():
    pres = parse_module_file("field 3\ngen g 0 0\nrel r 1 1 : 2*g\n")
    assert pres.p == 3 and pres.coeffs.a.tolist() == [[2]]


def test_parse_negative_coefficient_reduces():
    pres = parse_module_file("field 3\ngen g 0 0\nrel r 1 1 : -1*g\n")
    assert pres.coeffs.a.tolist() == [[2]]


def test_parse_zero_relation():
    pres = parse_module_file("gen g 0 0\nrel r 2 2 : 0\n")
    assert pres.rels == ((2, 2),) and pres.coeffs.a.tolist() == [[0]]


def test_parse_errors():
    with pytest.raises(BpmSyntaxError):
        parse_module_file("gen g zero 0\n")
    with pytest.raises(BpmSyntaxError):
        parse_module_file("nonsense line\n")
    with pytest.raises(BpmSyntaxError):
        parse_module_file("gen g 0 0\ngen g 1 1\n")
    with pytest.raises(BpmSyntaxError):
        parse_module_file("gen g 0 0\nrel r 1 1 : g\n")
    with pytest.raises(NonPrimeModulus):
        parse_module_file("field 4\n")
    with pytest.raises(IllegalEntry):
        parse_module_file("gen g 2 0\nrel r 1 1 : 1*g\n")
    with pytest.raises(BpmSyntaxError):
        parse_module_file("gen g 0 0\nfield 2\n")


def test_parse_rejects_non_ascii_digits():
    for text in ("gen g ² 0\n", "gen g ٣ 0\n", "field ٣\n", "gen g 0 0\nrel r 1 1 : ٣*g\n"):
        with pytest.raises(BpmSyntaxError):
            parse_module_file(text)


def test_parse_rejects_degrees_beyond_int64():
    with pytest.raises(BpmSyntaxError, match="64 bits") as err:
        parse_module_file("gen g 0 0\ngen h 99999999999999999999 0\nrel r 1 1 : 1*g\n")
    assert err.value.line == 2
    big = str((1 << 63) - 1)
    assert parse_module_file(f"gen g {big} 0\n").gens == ((int(big), 0),)
    assert parse_module_file("gen g 000000000000000000000000007 0\n").gens == ((7, 0),)


def test_parse_rejects_coefficients_beyond_the_digit_limit():
    with pytest.raises(BpmSyntaxError):
        parse_module_file("gen g 0 0\nrel r 1 1 : " + "9" * 5000 + "*g\n")


_TOKENS = st.sampled_from(
    ["gen", "rel", "field", "g", "h", ":", "+", "*", "#", "0", "1", "3", "4", "1*g", "-2*h", "²",
     "٣", "99999999999999999999", "9" * 5000]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=60), st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=5).map("\n".join)))
@example("gen g ² 0\n")
@example("gen g 99999999999999999999 0\nrel r 1 1 : 0\n")
def test_parser_raises_only_library_errors(text):
    try:
        parse_module_file(text)
    except BipersError:
        pass


def test_duplicate_field_rejected():
    with pytest.raises(BpmSyntaxError):
        parse_module_file("field 2\nfield 3\n")


# -------------------------------------------------------------- round trips


@pytest.mark.parametrize("seed", range(20))
def test_print_parse_round_trip_random(seed):
    pres = random_module(RandomSpec("arbitrary", seed=1500 + seed))
    assert parse_module_file(presentation_to_bpm(pres)) == pres


@pytest.mark.parametrize("name", ["zero", "koszul-point", "pd1-not-hook-f3", "remark2-hilbert-twin"])
def test_print_parse_round_trip_gallery(name):
    pres = gallery(name)
    assert parse_module_file(presentation_to_bpm(pres)) == pres


def test_round_trip_degenerate_relation_over_no_gens():
    pres = Presentation(2, [], [(1, 1)])
    assert parse_module_file(presentation_to_bpm(pres)) == pres


# ---------------------------------------------------------------- commands


def test_classify_gallery_json(capsys):
    code = main(["classify", "gallery:hook-not-free", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["hook_decomposable"] is True
    assert report["free"] is False
    assert report["certificate"]["hooks"] == [{"p": [0, 0], "q": [1, 1]}]


def test_betti_koszul_triples(capsys):
    code = main(["betti", "gallery:koszul-point"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["2"] == [[1, 1, 1]]
    assert out["1"] == [[0, 1, 1], [1, 0, 1]]


def test_resolve_reports_exactness(capsys):
    code = main(["resolve", "gallery:koszul-point"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["exact"] is True
    assert out["levels"]["2"] == [[1, 1]]


def test_decompose_with_oracle(capsys):
    code = main(["decompose", "gallery:pd1-not-hook", "--oracle"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hook_decomposable"] is False
    assert out["oracle_summands"] == 1


def test_decompose_oracle_cost_follows_distinct_degrees(tmp_path, capsys):
    # The oracle runs on the compressed grid, so a relation at d = 10⁶
    # costs what it costs at d = 1.
    path = tmp_path / "strip.bpm"
    path.write_text("gen g 0 0\nrel r 1000000 1 : 1*g\n")
    t0 = time.perf_counter()
    code = main(["decompose", str(path), "--oracle"])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["hook_decomposable"] is True and out["oracle_summands"] == 1
    assert elapsed < 1.0


@pytest.mark.parametrize("seed", [16, 23, 35])
def test_decompose_oracle_refuses_large_fields_quickly(seed, tmp_path, capsys):
    # End dim 12, 10 and 4 at p = 65521: 65521^dim endomorphisms to try.
    argv = ["random", "--seed", str(seed), "--field", "65521", "--max-gens", "5", "--max-rels", "5"]
    assert main(argv) == 0
    path = tmp_path / "m.bpm"
    path.write_text(capsys.readouterr().out)
    t0 = time.perf_counter()
    code = main(["decompose", str(path), "--oracle"])
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert "exceed the oracle cap" in capsys.readouterr().err
    assert elapsed < 1.0


@pytest.mark.parametrize(
    "text, expected",
    [
        (
            "gallery:remark2-hilbert-twin",
            '{"hook_decomposable": true, "hooks": [{"p": [0, 1], "q": [1, 1]}, {"p": [1, 0], "q": ["inf", "inf"]}]}',
        ),
        ("gallery:free-point", '{"hook_decomposable": true, "hooks": [{"p": [0, 0], "q": ["inf", "inf"]}]}'),
        ("gen g 0 0\nrel r 1000000 1 : 1*g\n", '{"hook_decomposable": true, "hooks": [{"p": [0, 0], "q": [1000000, 1]}]}'),
        ("gallery:pd1-not-hook", '{"hook_decomposable": false}'),
    ],
    ids=["twin", "free-point", "strip", "not-hook"],
)
def test_decompose_payload_is_pinned(text, expected, tmp_path, capsys):
    source = text
    if not text.startswith("gallery:"):
        source = str(tmp_path / "m.bpm")
        (tmp_path / "m.bpm").write_text(text)
    assert main(["decompose", source]) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_gallery_listing_and_emission(capsys):
    assert main(["gallery"]) == 0
    names = capsys.readouterr().out.split()
    assert "hook-not-free" in names
    assert main(["gallery", "hook-not-free"]) == 0
    text = capsys.readouterr().out
    assert parse_module_file(text) == gallery("hook-not-free")


def test_random_then_classify(tmp_path, capsys):
    assert main(["random", "--mode", "hook-sum", "--seed", "42"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "mod.bpm"
    path.write_text(text)
    assert main(["classify", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hook_decomposable"] is True


@pytest.mark.parametrize("flags", [["--max-gens", "0"], ["--mode", "hook-sum", "--max-degree", "0"]])
def test_random_bad_bounds_exit_2(flags, capsys):
    assert main(["random", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "bipers: error: all bounds must be positive\n"


def test_corpus_runs_and_is_reproducible(tmp_path, capsys):
    paths = []
    for seed in (1, 2, 3):
        text_path = tmp_path / f"m{seed}.bpm"
        pres = random_module(RandomSpec("arbitrary", seed=seed))
        text_path.write_text(presentation_to_bpm(pres))
        paths.append(str(text_path))
    inputs = paths + ["gallery:koszul-point"]

    def run():
        assert main(["corpus", *inputs]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        cleaned = []
        for line in lines:
            obj = json.loads(line)
            obj.pop("timings", None)
            cleaned.append(json.dumps(obj, sort_keys=True))
        return cleaned

    first, second = run(), run()
    assert first == second
    assert len(first) == 4
    assert json.loads(first[-1])["input"] == "gallery:koszul-point"


def test_corpus_single_hook_at_a_large_degree(tmp_path, capsys):
    path = tmp_path / "far.bpm"
    path.write_text("gen g 0 0\nrel r 1000000 1 : 1*g\n")
    assert main(["corpus", str(path), "gallery:zero"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["betti"]["1"] == [[1000000, 1, 1]]


def test_corpus_parallel_matches_serial(tmp_path, capsys):
    paths = []
    for seed in (7, 8):
        path = tmp_path / f"p{seed}.bpm"
        path.write_text(presentation_to_bpm(random_module(RandomSpec("arbitrary", seed=seed))))
        paths.append(str(path))
    assert main(["corpus", *paths]) == 0
    serial = capsys.readouterr().out
    assert main(["corpus", *paths, "--jobs", "2"]) == 0
    parallel = capsys.readouterr().out

    def strip_timings(block):
        out = []
        for line in block.strip().split("\n"):
            obj = json.loads(line)
            obj.pop("timings", None)
            out.append(json.dumps(obj, sort_keys=True))
        return out

    assert strip_timings(serial) == strip_timings(parallel)


def test_corpus_parallel_bad_input_exit_code(tmp_path, capsys):
    # The syntax error crosses the worker process boundary by pickling.
    bad = tmp_path / "bad.bpm"
    bad.write_text("gen g 0 0\nrel r 1 1 : g\n")
    assert main(["corpus", str(bad), "gallery:zero", "--jobs", "2"]) == 2
    assert "line 2, column" in capsys.readouterr().err


def test_corpus_bad_input_gets_an_error_line_and_the_rest_still_runs(tmp_path, capsys):
    bad = tmp_path / "bad.bpm"
    bad.write_text("gen g 0 0\nrel r 1 1 : g\n")
    missing = str(tmp_path / "missing.bpm")
    inputs = ["gallery:zero", str(bad), "gallery:free-point", missing]
    assert main(["corpus", *inputs]) == 2
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines()]
    assert [line["input"] for line in lines] == inputs
    assert [("error" in line) for line in lines] == [False, True, False, True]
    assert lines[2]["free"] is True
    err = captured.err.splitlines()
    assert len(err) == 2
    assert err[0].startswith(f"bipers: error: {bad}: line 2, column")
    assert err[1].startswith(f"bipers: error: {missing}: ")


def test_corpus_implication_failure_outranks_a_bad_input(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.bpm"
    bad.write_text("gen g x 0\n")
    monkeypatch.setattr(bipers.cli, "check_implications", lambda report: False)
    assert main(["corpus", str(bad), "gallery:zero"]) == 1
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert lines[1] == {"input": "gallery:zero", "error": "implication check failed for gallery:zero"}


def test_plot_output(capsys):
    assert main(["plot", "gallery:hook-not-free"]) == 0
    out = capsys.readouterr().out
    assert "hooks: (0,0)->(1,1)" in out
    assert main(["plot", "gallery:pd1-not-hook"]) == 0
    assert "not hook-decomposable" in capsys.readouterr().out


def test_plot_marks_corners_and_dims():
    art = ascii_support_plot(gallery("remark2-hilbert-twin"))
    lines = art.splitlines()
    assert lines[0].startswith("y=2")
    assert "1*" in art  # birth corner marker
    assert "1!" in art  # death corner marker
    assert "." in art  # the empty origin
    art_free = ascii_support_plot(gallery("free-point"))
    assert "(0,0)->(inf,inf)" in art_free


def test_plot_box_override(capsys):
    assert main(["plot", "gallery:hook-not-free", "--box", "4", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("y=4")
    assert main(["plot", "gallery:hook-not-free", "--box", "0", "0"]) == 2  # too small


@pytest.mark.parametrize("box", [["-5", "3"], ["3", "-2"]])
def test_plot_negative_box_exits_2(box, capsys):
    assert main(["plot", "gallery:zero", "--box", *box]) == 2
    assert "does not cover" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["classify", "/no/such/file.bpm"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_gallery_name_exit_code(capsys):
    assert main(["classify", "gallery:nope"]) == 2


def test_field_env_override(tmp_path, capsys, monkeypatch):
    path = tmp_path / "nofield.bpm"
    path.write_text("gen g 0 0\n")
    monkeypatch.setenv("BIPERS_FIELD", "3")
    assert main(["classify", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["field"] == 3
    monkeypatch.setenv("BIPERS_FIELD", "4")
    assert main(["classify", str(path)]) == 2


@pytest.mark.parametrize("env", [None, "3"])
def test_field_zero_is_rejected(tmp_path, capsys, monkeypatch, env):
    path = tmp_path / "nofield.bpm"
    path.write_text("gen g 0 0\n")
    if env is None:
        monkeypatch.delenv("BIPERS_FIELD", raising=False)
    else:
        monkeypatch.setenv("BIPERS_FIELD", env)
    assert main(["classify", str(path), "--field", "0"]) == 2
    assert "field modulus must be prime, got 0" in capsys.readouterr().err


def test_oversized_field_exit_code(tmp_path, capsys):
    path = tmp_path / "big.bpm"
    path.write_text("field 4294967311\ngen g 0 0\nrel r 1 1 : 1*g\n")
    assert main(["classify", str(path)]) == 2
    assert "2**16" in capsys.readouterr().err
