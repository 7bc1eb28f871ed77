"""End-to-end checks of the command line interface, run in-process."""

import json
import math
import re

import pytest

import netrev.strategies
from netrev import (IEStrategy, generalized_ie, generalized_ie_revenue,
                    generate, ie_revenue, load_network, save_network)
from netrev.cli import _TABLE_COLUMNS, main
from netrev.sdprelax import _scipy_openblas


@pytest.fixture()
def cycle4_file(tmp_path):
    path = tmp_path / "cycle4.txt"
    path.write_text(save_network(generate("cycle", 4)) + "\n")
    return str(path)


@pytest.fixture()
def ie_strategy_file(tmp_path):
    path = tmp_path / "ie.json"
    path.write_text(json.dumps(IEStrategy(frozenset({1, 3}), 0.5).to_json()))
    return str(path)


def run_json(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_writes_loadable_network(tmp_path, capsys):
    out = tmp_path / "net.txt"
    rc = main(["gen", "--kind", "cycle", "--n", "5", "--output", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    g = load_network(out.read_text())
    assert g.n == 5 and not g.directed
    assert g.W == pytest.approx(5.0)


def test_gen_streams_to_stdout(capsys):
    rc = main(["gen", "--kind", "path", "--n", "3"])
    assert rc == 0
    g = load_network(capsys.readouterr().out)
    assert g.n == 3 and g.num_edges == 2


def test_gen_gadget_kind(capsys):
    rc = main(["gen", "--kind", "three_path"])
    assert rc == 0
    g = load_network(capsys.readouterr().out)
    assert g.n == 4 and g.num_edges == 3


def test_gen_rejects_bad_size(capsys):
    for n in ("0", str(10 ** 20)):
        rc = main(["gen", "--kind", "cycle", "--n", n])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:")


@pytest.mark.parametrize("density", ["3", "-0.5"])
def test_gen_rejects_density_outside_unit_interval(capsys, density):
    rc = main(["gen", "--kind", "random", "--n", "5", "--seed", "1",
               "--density", density])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "density" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag, bounds", [
    ("--weight-range", ["1", "0"]),
    ("--weight-range", ["nan", "1"]),
    ("--weight-range", ["0", "inf"]),
    ("--self-weight-range", ["2", "1"]),
])
def test_gen_rejects_bad_weight_range(capsys, flag, bounds):
    rc = main(["gen", "--kind", "random", "--n", "5", "--seed", "1",
               flag] + bounds)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and "range" in captured.err
    assert captured.out == ""


def test_gen_unknown_kind_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--kind", "moebius", "--n", "4"])


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_reports_closed_form(cycle4_file, ie_strategy_file, capsys):
    doc = run_json(["eval", "--input", cycle4_file,
                    "--strategy", ie_strategy_file], capsys)
    assert doc["family"] == "ie"
    assert doc["revenue"] == pytest.approx(1.0)
    assert doc["upper_bound"] == pytest.approx(1.0)
    assert doc["ratio"] == pytest.approx(1.0)
    assert doc["instance"]["n"] == 4
    assert sorted(doc["strategy"]["influence_set"]) == [1, 3]


def test_eval_rejects_malformed_strategy(cycle4_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["eval", "--input", cycle4_file, "--strategy", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err


def test_eval_rejects_unknown_strategy_document(cycle4_file, tmp_path, capsys):
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps({"family": "telepathy"}))
    rc = main(["eval", "--input", cycle4_file, "--strategy", str(bad)])
    assert rc == 2
    assert "unrecognized strategy" in capsys.readouterr().err


@pytest.mark.parametrize("doc, missing", [
    ({"order": [0, 1, 2, 3]}, "prices"),
    ({"influence_set": [1, 3]}, "p"),
    ({"K": 2, "seed": 0}, "q"),
    ({"q": 0.3}, "p"),
])
def test_eval_rejects_strategy_missing_key(cycle4_file, tmp_path, capsys,
                                           doc, missing):
    bad = tmp_path / "partial.json"
    bad.write_text(json.dumps(doc))
    rc = main(["eval", "--input", cycle4_file, "--strategy", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and missing in err


@pytest.mark.parametrize("command", ["eval", "simulate"])
@pytest.mark.parametrize("doc", [
    {"influence_set": 5, "p": 0.5},
    {"influence_set": [0, "a"], "p": 0.5},
    {"order": [0, 1, 2, 3], "prices": "ab"},
    {"q": "x", "p": 0.5},
    {"q": 0.5, "p": [0.5]},
    {"K": "two", "q": [0.5, 0.5]},
])
def test_strategy_with_wrong_value_type_is_rejected(cycle4_file, tmp_path,
                                                    capsys, command, doc):
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(doc))
    rc = main([command, "--input", cycle4_file, "--strategy", str(bad)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and captured.out == ""


@pytest.mark.parametrize("text", [
    "undirected 2\n0 1 1e308\n1 0 1e308\n",
    "undirected 100000000000000000000\n",
])
@pytest.mark.filterwarnings("ignore:duplicate edge")
def test_unrepresentable_network_is_a_validation_error(tmp_path, capsys,
                                                       text):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    rc = main(["ie", "--input", str(path), "--mode", "baseline"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and captured.out == ""


def test_eval_missing_input_file(tmp_path, ie_strategy_file, capsys):
    rc = main(["eval", "--input", str(tmp_path / "ghost.txt"),
               "--strategy", ie_strategy_file])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ie / gie
# ---------------------------------------------------------------------------

def test_ie_baseline_matches_library(cycle4_file, cycle4, capsys):
    doc = run_json(["ie", "--input", cycle4_file, "--mode", "baseline"],
                   capsys)
    expected = ie_revenue(cycle4, IEStrategy(frozenset(), 2.0 / 3.0))
    assert doc["revenue"] == pytest.approx(expected)
    assert doc["parameters"]["p"] == pytest.approx(2.0 / 3.0)


def test_ie_tuned_reports_ratio_bound(cycle4_file, capsys):
    doc = run_json(["ie", "--input", cycle4_file], capsys)
    assert doc["ratio_bound"] >= 0.686
    assert set(doc["parameters"]) == {"q", "p"}
    assert "sampled_revenue" in doc


def test_ie_bipartite_meets_upper_bound(cycle4_file, capsys):
    doc = run_json(["ie", "--input", cycle4_file, "--mode", "bipartite"],
                   capsys)
    assert doc["revenue"] == pytest.approx(doc["upper_bound"])
    assert doc["ratio"] == pytest.approx(1.0)


def test_gie_preset_matches_library(cycle4_file, cycle4, capsys):
    doc = run_json(["gie", "--input", cycle4_file], capsys)
    strategy = generalized_ie(cycle4, 6, mode="preset")
    expected = generalized_ie_revenue(cycle4, 6, strategy.q)
    assert doc["revenue"] == pytest.approx(expected)
    assert doc["parameters"] == {"K": 6, "mode": "preset"}


def test_gie_optimize_rejects_huge_k(cycle4_file, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the limit must be checked before any solve")

    monkeypatch.setattr(netrev.strategies, "minimize", no_solve)
    rc = main(["gie", "--input", cycle4_file, "--mode", "optimize",
               "--K", "100000"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and captured.out == ""
    assert "K <= 200" in captured.err


# ---------------------------------------------------------------------------
# sdp-ie
# ---------------------------------------------------------------------------

def test_sdp_ie_recovers_cycle_optimum(cycle4_file, capsys, monkeypatch):
    monkeypatch.delenv("NETREV_SEED", raising=False)
    doc = run_json(["sdp-ie", "--input", cycle4_file], capsys)
    assert doc["converged"] is True
    assert doc["revenue"] == pytest.approx(0.970416, abs=1e-6)
    assert doc["sdp_objective"] >= doc["revenue"] - 1e-9
    assert sorted(doc["strategy"]["influence_set"]) in ([1, 3], [0, 2])


@pytest.mark.parametrize("rank", ["0", "-3"])
def test_sdp_ie_rejects_rank_below_one(cycle4_file, capsys, rank):
    rc = main(["sdp-ie", "--input", cycle4_file, "--rank", rank])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and captured.out == ""
    assert "rank" in captured.err


@pytest.mark.parametrize("command", ["eval", "ie", "gie", "sdp-ie", "oracle",
                                     "gadget-table", "certify", "simulate",
                                     "table"])
def test_reports_deterministic_modulo_wall_time(command, cycle4_file,
                                                ie_strategy_file, tmp_path,
                                                capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "cycle4.txt").write_text(save_network(generate("cycle", 4)))
    seed = ["--seed", "5"]
    argv = {
        "eval": ["eval", "--input", cycle4_file, "--strategy",
                 ie_strategy_file] + seed,
        "ie": ["ie", "--input", cycle4_file] + seed,
        "gie": ["gie", "--input", cycle4_file] + seed,
        "sdp-ie": ["sdp-ie", "--input", cycle4_file, "--trials", "40"] + seed,
        "oracle": ["oracle", "--input", cycle4_file] + seed,
        "gadget-table": ["gadget-table", "--kind", "three_path"] + seed,
        "certify": ["certify", "--kind", "class_ie"],
        "simulate": ["simulate", "--input", cycle4_file, "--strategy",
                     ie_strategy_file, "--trials", "2000"] + seed,
        "table": ["table", "--corpus", str(corpus), "--trials", "10"] + seed,
    }[command]
    texts = []
    for _ in range(2):
        assert main(argv) == 0
        texts.append(capsys.readouterr().out)
    doc = json.loads(texts[0])
    assert texts[0] == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert isinstance(doc["wall_time_s"], float)
    timing = r'"wall_time_s": [0-9.e+-]+'
    assert re.sub(timing, "", texts[0]) == re.sub(timing, "", texts[1])


def test_sdp_reports_carry_the_certificate_and_repeat_byte_for_byte(
        tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    net = generate("random", 12, density=0.4, weight_range=(0.1, 1.0), seed=3)
    (corpus / "random12.txt").write_text(save_network(net) + "\n")
    (corpus / "dag5.txt").write_text(save_network(generate("complete_dag", 5))
                                     + "\n")
    runs = {"sdp-ie": ["sdp-ie", "--input", str(corpus / "random12.txt"),
                       "--seed", "4"],
            "table": ["table", "--corpus", str(corpus), "--seed", "4",
                      "--trials", "30"]}
    for name, argv in runs.items():
        texts = []
        for k in range(2):
            out = tmp_path / f"{name}{k}.json"
            assert main(argv + ["--output", str(out)]) == 0
            texts.append(out.read_bytes())
        timing = rb'"wall_time_s": [0-9.e+-]+'
        assert re.sub(timing, b"", texts[0]) == re.sub(timing, b"", texts[1])
        doc = json.loads(texts[0])
        rows = doc["rows"] if name == "table" else [
            dict(doc, sdp_ie=doc["revenue"])]
        for row in rows:
            assert row["sdp_upper_bound"] >= row["sdp_ie"]
            assert row["sdp_certified_gap"] >= -1e-4
            assert 1 <= row["starts_run"] <= 3
            assert -1 <= row["winning_start"] < row["starts_run"]
            assert row["blas_pinned"] is (_scipy_openblas() is not None)


def test_seed_env_var_feeds_default(cycle4_file, capsys, monkeypatch):
    monkeypatch.setenv("NETREV_SEED", "7")
    doc = run_json(["ie", "--input", cycle4_file], capsys)
    assert doc["seed"] == 7
    monkeypatch.setenv("NETREV_SEED", "junk")
    doc = run_json(["ie", "--input", cycle4_file], capsys)
    assert doc["seed"] == 0
    monkeypatch.delenv("NETREV_SEED")
    doc = run_json(["ie", "--input", cycle4_file, "--seed", "11"], capsys)
    assert doc["seed"] == 11


# ---------------------------------------------------------------------------
# oracle / gadget-table
# ---------------------------------------------------------------------------

def test_oracle_best_ie(cycle4_file, capsys):
    doc = run_json(["oracle", "--input", cycle4_file,
                    "--pricing-prob", "0.5"], capsys)
    assert doc["best_value"] == pytest.approx(1.0)
    assert doc["best_witness"]["family"] == "ie"
    assert doc["method"] == "exhaustive"


def test_oracle_best_strategy(cycle4_file, capsys):
    doc = run_json(["oracle", "--input", cycle4_file,
                    "--mode", "best-strategy", "--seed", "0"], capsys)
    assert doc["best_value"] >= 1.0 - 1e-6
    assert doc["best_witness"]["family"] == "marketing"


def test_oracle_best_ordering_needs_prices(cycle4_file, capsys):
    rc = main(["oracle", "--input", cycle4_file, "--mode", "best-ordering"])
    assert rc == 2
    assert "prices" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle", "--mode", "best-ordering", "--prices", "0.5,abc"],
    ["certify", "--kind", "class_ie", "--q", "0.5,x"],
])
def test_malformed_number_list_is_a_usage_error(cycle4_file, capsys, argv):
    if argv[0] == "oracle":
        argv = argv + ["--input", cycle4_file]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "comma-separated numbers" in capsys.readouterr().err


def test_oracle_best_ordering(cycle4_file, capsys):
    doc = run_json(["oracle", "--input", cycle4_file, "--mode",
                    "best-ordering", "--prices", "1,0.75,0.75,0.5"], capsys)
    assert doc["best_value"] > 0.0
    assert sorted(doc["best_witness"]["order"]) == [0, 1, 2, 3]


def test_gadget_table_three_path(capsys):
    doc = run_json(["gadget-table", "--kind", "three_path"], capsys)
    entries = doc["entries"]
    assert entries["free"]["best_value"] == pytest.approx(0.75, abs=1e-4)
    assert entries["1,1"]["best_value"] == pytest.approx(41 / 64, abs=1e-4)


# ---------------------------------------------------------------------------
# certify / simulate
# ---------------------------------------------------------------------------

def test_certify_directed_rounding_bound(capsys):
    doc = run_json(["certify", "--kind", "rounding_directed"], capsys)
    assert doc["min_value"] == pytest.approx(0.5528964, abs=1e-6)
    assert doc["argmin"]["y"] == pytest.approx((3 - math.sqrt(3)) / 2,
                                               abs=1e-6)
    assert doc["kind"] == "rounding_directed"


@pytest.mark.parametrize("argv", [
    ["--kind", "sdp_directed", "--p", "2"],
    ["--kind", "sdp_undirected", "--p", "nan"],
    ["--kind", "random_ie", "--lam", "nan"],
    ["--kind", "random_ie", "--lam", "-1"],
    ["--kind", "rounding_directed", "--grid-step", "nan"],
    ["--kind", "sdp_self", "--grid-step", "0"],
    ["--kind", "sdp_directed", "--grid-step", "5"],
    ["--kind", "sdp_directed", "--grid-step", "1e-9"],
    ["--kind", "rounding_undirected", "--grid-step", "1e-7"],
])
def test_certify_rejects_invalid_values(capsys, argv):
    rc = main(["certify"] + argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:") and captured.out == ""


def test_simulate_agrees_with_closed_form(cycle4_file, ie_strategy_file,
                                          capsys):
    doc = run_json(["simulate", "--input", cycle4_file,
                    "--strategy", ie_strategy_file,
                    "--trials", "20000", "--seed", "3"], capsys)
    assert doc["closed_form"] == pytest.approx(1.0)
    assert doc["simulation"]["trials"] == 20000
    assert abs(doc["z_score"]) < 4.0


def test_simulate_rejects_influence_member_out_of_range(cycle4_file,
                                                        tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"influence_set": [1, 4], "p": 0.5}))
    rc = main(["simulate", "--input", cycle4_file, "--strategy", str(bad),
               "--trials", "100"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error:")
    assert "out of range" in captured.err


# Totals finite but near the float maximum: the commands overflow to NaN or
# Infinity, which JSON cannot hold, so the report is refused.
_HUGE_CYCLE = "undirected 4\n" + "".join(
    f"{i} {(i + 1) % 4} 1.1e307\n" for i in range(4))
_HUGE_PAIR = "undirected 2\n0 0 1e308\n0 1 1.7e308\n"


@pytest.mark.parametrize("text, argv", [
    (_HUGE_CYCLE, ["oracle"]),
    (_HUGE_CYCLE, ["simulate", "--strategy", "STRATEGY", "--trials", "100"]),
    (_HUGE_PAIR, ["ie", "--mode", "baseline"]),
    (_HUGE_PAIR, ["sdp-ie", "--trials", "5"]),
], ids=["oracle", "simulate", "ie", "sdp-ie"])
@pytest.mark.filterwarnings("error")
def test_non_finite_report_is_a_validation_error(tmp_path, ie_strategy_file,
                                                 capsys, text, argv):
    # no numpy warning precedes the one error line
    path = tmp_path / "huge.txt"
    path.write_text(text)
    argv = [ie_strategy_file if a == "STRATEGY" else a for a in argv]
    rc = main(argv[:1] + ["--input", str(path)] + argv[1:])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ("error: report holds a non-finite value "
                            "(NaN or Infinity)\n")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["sdp-ie", "--input", "net.txt"],
    ["ie", "--input", "net.txt"],
    ["simulate", "--input", "net.txt", "--strategy", "s.json"],
    ["gen", "--kind", "cycle", "--n", "4"],
    ["gadget-table", "--kind", "three_path"],
    ["table", "--corpus", "corpus"],
])
def test_negative_seed_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_negative_seed_env_var_is_a_usage_error(cycle4_file, capsys,
                                                monkeypatch):
    monkeypatch.setenv("NETREV_SEED", "-4")
    with pytest.raises(SystemExit) as exc:
        main(["ie", "--input", cycle4_file])
    assert exc.value.code == 2
    assert "seed must be non-negative" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_over_mini_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "cycle4.txt").write_text(save_network(generate("cycle", 4))
                                       + "\n")
    (corpus / "dag3.txt").write_text(save_network(generate("complete_dag", 3))
                                     + "\n")
    out = tmp_path / "table.json"
    csv_path = tmp_path / "table.csv"
    rc = main(["table", "--corpus", str(corpus), "--output", str(out),
               "--csv", str(csv_path), "--trials", "30", "--seed", "0"])
    assert rc == 0
    doc = json.loads(out.read_text())
    rows = doc["rows"]
    assert [row["instance"] for row in rows] == ["cycle4.txt", "dag3.txt"]
    for row in rows:
        for column in _TABLE_COLUMNS:
            assert column in row
        assert 0.0 <= row["baseline_ie_ratio"] <= 1.0
        assert 0.0 <= row["sdp_ie_ratio"] <= 1.0
        assert row["sdp_ie_vs_oracle"] >= 0.9
        assert row["sdp_converged"] is True
    header = csv_path.read_text().splitlines()[0]
    assert header.split(",") == list(_TABLE_COLUMNS)


def test_table_rejects_missing_corpus(tmp_path, capsys):
    rc = main(["table", "--corpus", str(tmp_path / "nope")])
    assert rc == 2
    assert "corpus directory" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "certify", "sdp-ie",
                                     "table --output", "table --csv"])
def test_unwritable_output_is_a_validation_error(command, cycle4_file,
                                                 tmp_path, capsys):
    target = str(tmp_path / "missing" / "out")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "cycle4.txt").write_text(save_network(generate("cycle", 4))
                                       + "\n")
    argv = {
        "gen": ["gen", "--kind", "cycle", "--n", "4", "--output", target],
        "certify": ["certify", "--kind", "class_ie", "--output", target],
        "sdp-ie": ["sdp-ie", "--input", cycle4_file, "--output", target],
        "table --output": ["table", "--corpus", str(corpus), "--trials", "5",
                           "--output", target],
        "table --csv": ["table", "--corpus", str(corpus), "--trials", "5",
                        "--csv", target],
    }[command]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: cannot write {target}:")
