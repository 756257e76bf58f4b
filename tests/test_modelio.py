import csv
import io
import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from imprand import (
    Gamble,
    LLNStrategyParams,
    LinearModel,
    MultiplierProcess,
    ProgrammaticSystem,
    SampleSpace,
    SelectionProcess,
    SequencePrefix,
    Situation,
    StationarySystem,
    Trajectory,
    VacuousModel,
    battery_from_list,
    gamble_from_dict,
    gamble_to_dict,
    load_battery,
    load_gamble,
    load_model,
    load_system,
    mixture_weights,
    model_from_dict,
    model_to_dict,
    run_battery,
    save_model,
    save_system,
    system_from_dict,
    system_to_dict,
    write_trajectory_csv,
)
from imprand.core import ModelInvariantError, log2_rational
from imprand.forecasting import TableSystem
from imprand.lowerexp import (
    AnchorGammaModel,
    AnchorIntervalModel,
    EnvelopeModel,
    LowerExpectation,
)
from imprand.modelio import ParseError

from conftest import rand_gamble, rand_pmf, rand_space


ALPHABET = ["A", "B", "C"]


def roundtrip_model(model, tmp_path):
    path = tmp_path / "model.json"
    save_model(model, path)
    return load_model(path)


class TestModelJson:
    def test_all_kinds_round_trip(self, space3, vertices3, envelope3, tmp_path):
        anchor = Gamble.indicator(space3, "A")
        models = [
            LinearModel(vertices3[1]),
            envelope3,
            VacuousModel(space3),
            AnchorGammaModel(anchor=anchor, gamma=Fraction(3, 4)),
            AnchorIntervalModel(anchor=anchor, lo=Fraction(1, 4), hi=Fraction(2, 3)),
        ]
        for model in models:
            assert roundtrip_model(model, tmp_path) == model

    def test_random_envelopes_round_trip(self, tmp_path):
        rng = random.Random(7)
        for _ in range(20):
            space = rand_space(rng)
            model = EnvelopeModel(tuple(rand_pmf(rng, space)
                                        for _ in range(rng.randint(1, 4))))
            assert roundtrip_model(model, tmp_path) == model

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError, match="unknown fields"):
            model_from_dict({"alphabet": ALPHABET, "kind": "vacuous", "extra": 1})

    def test_missing_kind(self):
        with pytest.raises(ParseError, match="kind"):
            model_from_dict({"alphabet": ALPHABET})

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown kind"):
            model_from_dict({"alphabet": ALPHABET, "kind": "mystery"})

    def test_bad_rational_string(self):
        obj = {"alphabet": ALPHABET, "kind": "linear", "vertices": [["0.5", "1/4", "1/4"]]}
        with pytest.raises(ParseError):
            model_from_dict(obj)

    def test_linear_requires_single_vertex(self):
        obj = {"alphabet": ALPHABET, "kind": "linear",
               "vertices": [["1", "0", "0"], ["0", "1", "0"]]}
        with pytest.raises(ParseError, match="exactly one"):
            model_from_dict(obj)

    def test_corrupted_pmf_sum_rejected(self):
        obj = {"alphabet": ALPHABET, "kind": "linear",
               "vertices": [["1/2", "1/5", "1/5"]]}
        with pytest.raises(ModelInvariantError):
            model_from_dict(obj)

    def test_gamma_out_of_range_rejected(self):
        obj = {"alphabet": ALPHABET, "kind": "gamma_f", "gamma": "2",
               "anchor": ["1", "0", "0"]}
        with pytest.raises(ModelInvariantError):
            model_from_dict(obj)

    def test_interval_needs_two_entries(self):
        obj = {"alphabet": ALPHABET, "kind": "interval_f", "interval": ["1/4"],
               "anchor": ["1", "0", "0"]}
        with pytest.raises(ParseError, match="two-element"):
            model_from_dict(obj)

    @pytest.mark.parametrize("obj, where", [
        ({"kind": "gamma_f", "gamma": "1/2", "anchor": ["1", "0"]}, "anchor"),
        ({"kind": "interval_f", "interval": ["0", "1"], "anchor": ["1"] * 4}, "anchor"),
        ({"kind": "linear", "vertices": [["1/2", "1/2"]]}, r"vertices\[0\]"),
        ({"kind": "envelope", "vertices": [["1", "0", "0"], ["1/2", "1/2"]]},
         r"vertices\[1\]"),
    ], ids=["gamma-anchor", "interval-anchor", "linear-vertex", "envelope-vertex"])
    def test_vectors_of_the_wrong_length_name_the_entry(self, obj, where):
        # a file error (exit 1), not a model invariant: the file and entry are named
        with pytest.raises(ParseError, match=r"^m\.json: " + where + r" has \d entries for "
                                             "a 3-symbol space$"):
            model_from_dict(dict(obj, alphabet=ALPHABET), "m.json")

    @pytest.mark.parametrize("obj, message", [
        ({"kind": "linear", "vertices": [["1/2", "1/5", "1/5"]]},
         "pmf weights sum to 9/10, not 1"),
        ({"kind": "envelope", "vertices": [["1", "0", "0"], ["1/2", "1/5", "1/5"]]},
         "pmf weights sum to 9/10, not 1"),
        ({"kind": "gamma_f", "gamma": "2", "anchor": ["1", "0", "0"]},
         r"gamma 2 outside anchor range \[0, 1\]"),
        ({"kind": "gamma_f", "gamma": "-1", "anchor": ["1", "0", "0"]},
         r"gamma -1 outside anchor range \[0, 1\]"),
        ({"kind": "interval_f", "interval": ["1", "0"], "anchor": ["1", "0", "0"]},
         "interval lower bound 1 > 0"),
    ], ids=["linear-sum", "envelope-sum", "gamma-range", "gamma-below",
            "interval-order"])
    def test_model_invariants_name_the_file(self, obj, message):
        # a model's own invariant stays one (exit 2), prefixed with the file
        with pytest.raises(ModelInvariantError, match=r"^m\.json: " + message):
            model_from_dict(dict(obj, alphabet=ALPHABET), "m.json")

    @pytest.mark.parametrize("alphabet, message", [
        (["A", "A"], r"duplicate symbols in \('A', 'A'\)"),
        ([], "sample space must contain at least one symbol"),
    ], ids=["duplicate", "empty"])
    def test_bad_alphabets_name_the_file(self, alphabet, message):
        # a bad alphabet breaks the file's format: exit 1, not a model invariant
        for parse, obj in ((model_from_dict, {"kind": "vacuous"}),
                           (gamble_from_dict, {"values": ["1"] * len(alphabet)})):
            with pytest.raises(ParseError, match=r"^m\.json: " + message + "$"):
                parse(dict(obj, alphabet=alphabet), "m.json")

    def test_kind_must_be_a_string(self):
        with pytest.raises(ParseError, match=r"m\.json: unknown kind"):
            model_from_dict({"alphabet": ALPHABET, "kind": ["vacuous"]}, "m.json")

    def test_alphabet_must_be_strings(self):
        with pytest.raises(ParseError, match="alphabet"):
            model_from_dict({"alphabet": [1, 2], "kind": "vacuous"})

    def test_file_errors(self, tmp_path):
        with pytest.raises(ParseError):
            load_model(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_model(bad)


# malformed situation rows, shared by system tables and multiplier entries;
# each row gets its value field ("model" or "factor") added by the test
SITUATION_ROW_CASES = {
    "rows-not-a-list": (5, r": expected a list of rows"),
    "situation-not-a-list": ([{"situation": 5}], r"\[0\]: 'situation' must be a list"),
    "situation-a-string": ([{"situation": "AB"}], r"\[0\]: 'situation' must be a list"),
    "situation-not-strings": ([{"situation": [0]}], r"\[0\]: 'situation' must be a list"),
    "situation-twice": ([{"situation": ["A", "B"]}, {"situation": ["C"]},
                         {"situation": ["A", "B"]}], r"\[2\]: situation .* given twice"),
    "unknown-token": ([{"situation": ["A", "Z"]}], r"\[0\]: token 'Z' not in alphabet"),
}


def situation_rows(case, field, value):
    rows, message = SITUATION_ROW_CASES[case]
    if isinstance(rows, list):
        rows = [dict(row, **{field: value}) for row in rows]
    return rows, message


class TestSystemJson:
    def test_stationary_round_trip(self, envelope3, tmp_path):
        sys = StationarySystem(envelope3)
        path = tmp_path / "sys.json"
        save_system(sys, path)
        assert load_system(path) == sys

    def test_cyclic_round_trip(self, vertices3, tmp_path):
        from imprand import CyclicSystem
        sys = CyclicSystem((LinearModel(vertices3[0]), LinearModel(vertices3[2])))
        path = tmp_path / "sys.json"
        save_system(sys, path)
        assert load_system(path) == sys

    def test_table_round_trip(self, space3, vertices3, envelope3, tmp_path):
        sys = TableSystem(
            table={(0,): LinearModel(vertices3[0]), (1, 2): envelope3},
            default=VacuousModel(space3))
        path = tmp_path / "sys.json"
        save_system(sys, path)
        loaded = load_system(path)
        assert loaded.table == sys.table
        assert loaded.default == sys.default

    def test_stationary_requires_one_model(self, envelope3):
        d = system_to_dict(StationarySystem(envelope3))
        d["models"].append(d["models"][0])
        with pytest.raises(ParseError, match="exactly one"):
            system_from_dict(d)

    def test_unknown_system_kind(self):
        with pytest.raises(ParseError, match="unknown system kind"):
            system_from_dict({"kind": "markov", "models": []})

    def test_table_unknown_token(self, space3, envelope3):
        d = {
            "kind": "table",
            "default": model_to_dict(VacuousModel(space3)),
            "table": [{"situation": ["Z"], "model": model_to_dict(envelope3)}],
        }
        with pytest.raises(ParseError, match=r"^sys\.json\[0\]: token 'Z'"):
            system_from_dict(d, context="sys.json")

    @pytest.mark.parametrize("kind, message", [
        ("cyclic", r"^sys\.json: sample space mismatch: \('A', 'B', 'C'\) vs \('A', 'B'\)$"),
        ("table", r"^sys\.json: sample space mismatch: \('A', 'B', 'C'\) vs \('A', 'B'\)$"),
        ("bad-second", r"^sys\.json: models\[1\]: pmf weights sum to 9/10, not 1$"),
    ])
    def test_model_errors_name_the_file(self, space3, kind, message):
        three = model_to_dict(VacuousModel(space3))
        two = {"alphabet": ["A", "B"], "kind": "vacuous"}
        bad = {"alphabet": ALPHABET, "kind": "linear", "vertices": [["1/2", "1/5", "1/5"]]}
        d = {
            "cyclic": {"kind": "cyclic", "models": [three, two]},
            "table": {"kind": "table", "default": three,
                      "table": [{"situation": ["A"], "model": two}]},
            "bad-second": {"kind": "cyclic", "models": [three, bad]},
        }[kind]
        with pytest.raises(ModelInvariantError, match=message):
            system_from_dict(d, context="sys.json")

    @pytest.mark.parametrize("case", SITUATION_ROW_CASES)
    def test_table_rows_must_be_situation_lists_given_once(self, space3, envelope3,
                                                          case):
        rows, message = situation_rows(case, "model", model_to_dict(envelope3))
        d = {"kind": "table", "default": model_to_dict(VacuousModel(space3)),
             "table": rows}
        with pytest.raises(ParseError, match=r"^sys\.json" + message):
            system_from_dict(d, context="sys.json")


def test_json_files_may_start_with_a_byte_order_mark(space3, envelope3, tmp_path):
    sys_path, battery_path = tmp_path / "sys.json", tmp_path / "battery.json"
    sys_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(
        system_to_dict(StationarySystem(envelope3))).encode("utf-8"))
    entries = [{"type": "multiplier", "default": ["1/2", "3/2", "1/2"], "rows": []}]
    battery_path.write_text(json.dumps(entries), encoding="utf-8-sig")
    assert battery_path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_system(sys_path) == StationarySystem(envelope3)
    (proc,) = load_battery(battery_path, space3)
    assert proc.factor(Situation(space3, ())).values == (
        Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))
    # writers add no mark
    save_system(StationarySystem(envelope3), sys_path)
    assert sys_path.read_bytes().startswith(b"{")


class TestGambleJson:
    def test_round_trip(self, f_example, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(gamble_to_dict(f_example)))
        assert load_gamble(path) == f_example

    def test_random_round_trips(self):
        rng = random.Random(9)
        for _ in range(20):
            g = rand_gamble(rng, rand_space(rng))
            assert gamble_from_dict(gamble_to_dict(g)) == g

    @pytest.mark.parametrize("values", [["1", "2"], ["1", "2", "3", "4"], []])
    def test_values_of_the_wrong_length_name_the_file(self, values):
        with pytest.raises(ParseError, match=rf"^g\.json: values has {len(values)} entries"):
            gamble_from_dict({"alphabet": ALPHABET, "values": values}, "g.json")

    def test_unknown_field(self, space3):
        with pytest.raises(ParseError, match="unknown fields"):
            gamble_from_dict({"alphabet": ALPHABET, "values": ["1", "2", "3"],
                              "name": "f"})


class TestBatteryJson:
    def test_lln_entries(self, space3):
        entries = [
            {"type": "lln", "gamble": ["1", "-2", "3"], "direction": "lower",
             "epsilon": "1/8", "selection": {"kind": "all"}},
            {"type": "lln", "gamble": ["1", "0", "0"], "direction": "upper",
             "epsilon": "1/4", "selection": {"kind": "residue", "m": 3, "i": 1}},
        ]
        battery = battery_from_list(entries, space3)
        assert len(battery) == 2
        assert isinstance(battery[0], LLNStrategyParams)
        assert battery[0].epsilon == Fraction(1, 8)
        assert battery[1].selection == SelectionProcess.residue_class(3, 1)

    def test_multiplier_entry(self, space3, tmp_path):
        entries = [{
            "type": "multiplier",
            "default": ["1", "1", "1"],
            "rows": [{"situation": ["A"], "factor": ["1/2", "3/2", "1/2"]}],
        }]
        path = tmp_path / "battery.json"
        path.write_text(json.dumps(entries))
        (proc,) = load_battery(path, space3)
        assert isinstance(proc, MultiplierProcess)
        assert proc.factor(Situation(space3, (0,))).values == (
            Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))
        assert proc.factor(Situation(space3, (1,))).values == (
            Fraction(1), Fraction(1), Fraction(1))

    def test_multiplier_entry_without_rows_is_constant(self, space3):
        # a constant entry has period 1, so walks ask it at phase 0 instead
        # of hashing every prefix; an entry with rows stays path-keyed
        entries = [{"type": "multiplier", "default": ["1/2", "3/2", "1/2"], "rows": []},
                   {"type": "multiplier", "default": ["1", "1", "1"],
                    "rows": [{"situation": ["A"], "factor": ["1/2", "3/2", "1/2"]}]}]
        constant, keyed = battery_from_list(entries, space3)
        assert constant.period == 1
        assert keyed.period is None
        for symbols in ((), (0,), (2, 1, 0)):
            assert constant.factor(Situation(space3, symbols)).values == (
                Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))

    @pytest.mark.parametrize("case", SITUATION_ROW_CASES)
    def test_multiplier_rows_must_be_situation_lists_given_once(self, space3, case):
        rows, message = situation_rows(case, "factor", ["1", "1", "1"])
        entry = {"type": "multiplier", "default": ["1", "1", "1"], "rows": rows}
        lln = {"type": "lln", "gamble": ["1", "0", "0"], "direction": "lower",
               "epsilon": "1/8", "selection": {"kind": "all"}}
        with pytest.raises(ParseError, match=r"^b\.json\[1\]" + message):
            battery_from_list([lln, entry], space3, context="b.json")

    @pytest.mark.parametrize("entry, where", [
        ({"default": ["1", "1"], "rows": []}, r"\[1\]: default has 2 entries"),
        ({"default": ["1", "1", "1"], "rows": [{"situation": ["A"], "factor": ["1"] * 4}]},
         r"\[1\]\[0\]: factor has 4 entries"),
    ], ids=["default", "row-factor"])
    def test_multiplier_vectors_of_the_wrong_length_name_the_entry(self, space3, entry,
                                                                    where):
        lln = {"type": "lln", "gamble": ["1", "0", "0"], "direction": "lower",
               "epsilon": "1/8", "selection": {"kind": "all"}}
        with pytest.raises(ParseError, match=r"^b\.json" + where + " for a 3-symbol space$"):
            battery_from_list([lln, dict(entry, type="multiplier")], space3,
                              context="b.json")

    def test_empty_battery_rejected(self, space3):
        with pytest.raises(ParseError):
            battery_from_list([], space3)

    def test_unknown_type(self, space3):
        with pytest.raises(ParseError, match="unknown strategy type"):
            battery_from_list([{"type": "doubling"}], space3)

    def test_bad_selection(self, space3):
        entry = {"type": "lln", "gamble": ["1", "0", "0"], "direction": "lower",
                 "epsilon": "1/8", "selection": {"kind": "residue"}}
        with pytest.raises(ParseError, match="residue selection"):
            battery_from_list([entry], space3)

    @pytest.mark.parametrize("field, value, error", [
        ("direction", "sideways", ParseError),
        ("direction", 5, ParseError),
        ("direction", None, ParseError),
        ("gamble", ["1", "0"], ParseError),
        ("gamble", ["1", "0", "0", "0"], ParseError),
        # an epsilon outside (0, B) breaks the strategy's invariant, not the file
        ("epsilon", "1", ModelInvariantError),
        ("epsilon", "0", ModelInvariantError),
    ], ids=["sideways", "number", "null", "gamble-short", "gamble-long", "epsilon-at-B",
            "epsilon-zero"])
    def test_bad_lln_fields_name_the_entry(self, space3, field, value, error):
        lln = {"type": "lln", "gamble": ["1", "0", "0"], "direction": "lower",
               "epsilon": "1/8", "selection": {"kind": "all"}}
        with pytest.raises(error, match=r"^b\.json\[1\]: " + field) as caught:
            battery_from_list([lln, dict(lln, **{field: value})], space3, context="b.json")
        assert type(caught.value) is error


    @pytest.mark.parametrize("selection, field", [
        ({"kind": "residue", "m": 2.7, "i": 1.9}, "'m'"),
        ({"kind": "residue", "m": 2, "i": 1.0}, "'i'"),
        ({"kind": "residue", "m": True, "i": 0}, "'m'"),
        ({"kind": "residue", "m": "x", "i": 0}, "'m'"),
        ({"kind": "residue", "m": 2, "i": None}, "'i'"),
        ({"kind": "all", "m": 1}, "'m'"),
        ({"kind": "all", "i": 0}, "'i'"),
    ], ids=["float", "float-i", "bool", "string", "null-i", "all-with-m", "all-with-i"])
    def test_selection_fields_must_be_integers(self, space3, selection, field):
        entry = {"type": "lln", "gamble": ["1", "0", "0"], "direction": "lower",
                 "epsilon": "1/8", "selection": selection}
        with pytest.raises(ParseError, match=field):
            battery_from_list([entry], space3)


class TestTrajectoryCsv:
    def test_shape_and_exactness(self, space3, envelope3, halving_multiplier,
                                 tmp_path):
        sys = StationarySystem(envelope3)
        prefix = SequencePrefix(space3, (0, 1, 2))
        t = run_battery(prefix, sys, [halving_multiplier, halving_multiplier])
        path = tmp_path / "out.csv"
        write_trajectory_csv(t, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == (len(prefix) + 1) * 2
        assert rows[0]["n"] == "0" and rows[0]["symbol"] == ""
        assert rows[2]["symbol"] == "A"
        last = rows[-1]
        capital = Fraction(int(last["capital_num"]), int(last["capital_den"]))
        assert capital == Fraction(3, 8)  # 1/2 * 3/2 * 1/2
        assert float(last["mixture_log2"]) == pytest.approx(-1.4150374992788437)

    def test_matches_a_csv_writer_row_by_row(self, tmp_path):
        # symbols that need quoting, a zero mixture and both signs of log2
        space = SampleSpace(("a,b", '"q"', "c"))
        prefix = SequencePrefix(space, (0, 1, 2, 1))
        g = Gamble(space, (Fraction(3, 2), Fraction(1, 3), Fraction(0)))
        t = run_battery(prefix, StationarySystem(VacuousModel(space)),
                        [MultiplierProcess(space, lambda s: g, period=1)] * 2)
        path = tmp_path / "out.csv"
        write_trajectory_csv(t, path)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        capitals = []
        for rows in t.factors:  # member i took rows[n % len(rows)][x] at step n + 1
            path_i = [Fraction(1)]
            for n, x in enumerate(prefix.symbols):
                path_i.append(path_i[-1] * rows[n % len(rows)][x])
            capitals.append(path_i)
        weights = mixture_weights(len(capitals))
        writer.writerow(["n", "symbol", "strategy_id", "capital_num", "capital_den",
                         "mixture_log2"])
        for n in range(len(prefix) + 1):
            symbol = space.symbols[prefix.symbols[n - 1]] if n else ""
            mixture = sum(w * path_i[n] for w, path_i in zip(weights, capitals))
            mix = repr(log2_rational(mixture)) if mixture else "-inf"
            for i, path_i in enumerate(capitals):
                writer.writerow([n, symbol, i, path_i[n].numerator,
                                 path_i[n].denominator, mix])
        assert path.read_bytes() == expected.getvalue().encode("utf-8")
        assert b'1,"a,b",0,3,2,' in path.read_bytes()
        assert b'2,"""q""",1,1,2,' in path.read_bytes()

    def test_cancelling_beside_coprime_factors(self, tmp_path):
        # the first member's factors cancel, so both reductions of the product
        # rule act; the second's never do, so they are skipped, and it takes a
        # 0 and then more factors, a capital that must stay 0/1
        cancelling = tuple(map(Fraction, ("2/3", "3/2", "9/4", "2/3", "1", "2/3") * 3))
        coprime = tuple(map(Fraction, ("15/16", "19/16", "1", "0", "19/16", "15/16") * 3))
        steps = len(cancelling)
        rows = tuple(tuple((f, f) for f in taken) for taken in (cancelling, coprime))
        # one row per step, the step's factor at both symbols
        t = Trajectory(prefix=SequencePrefix(SampleSpace(("A", "B")), (1, 0) * (steps // 2)),
                       factors=rows, mixture_log2=(0.0,) * (steps + 1),
                       mixture_max=Fraction(1), deficiency_bits=0.0, argmax_step=0)
        path = tmp_path / "out.csv"
        write_trajectory_csv(t, path)
        with open(path, newline="") as fh:
            rows = [(int(r["n"]), r["symbol"], int(r["strategy_id"]), int(r["capital_num"]),
                     int(r["capital_den"])) for r in csv.DictReader(fh)]
        expected, capitals = [], [Fraction(1)] * 2
        for n in range(steps + 1):
            if n:
                capitals = [c * taken[n - 1] for c, taken in zip(capitals, (cancelling, coprime))]
            symbol = "AB"[t.prefix.symbols[n - 1]] if n else ""
            expected.extend((n, symbol, i, c.numerator, c.denominator)
                            for i, c in enumerate(capitals))
        assert rows == expected
        assert rows[-1][3:] == (0, 1)

    def test_a_trajectory_without_strategies_is_rejected(self, tmp_path):
        t = Trajectory(prefix=SequencePrefix(SampleSpace(("A", "B")), (0,)), factors=(),
                       mixture_log2=(0.0, 0.0), mixture_max=Fraction(1),
                       deficiency_bits=0.0, argmax_step=0)
        with pytest.raises(ModelInvariantError, match="no strategies"):
            write_trajectory_csv(t, tmp_path / "out.csv")

    def test_capitals_past_the_int_digit_limit(self, space3, tmp_path):
        # a library call, outside the CLI, under the default 4300-digit limit
        big = Fraction(3 ** 10000, 2 ** 10000)  # 4772 and 3011 digits
        prefix = SequencePrefix(space3, (1,))
        t = Trajectory(prefix=prefix, factors=(((big,) * 3,),),
                       mixture_log2=(0.0, log2_rational(big)), mixture_max=big,
                       deficiency_bits=log2_rational(big),
                       argmax_step=1)
        path = tmp_path / "big.csv"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            write_trajectory_csv(t, path)
            assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            expected = f"1,B,0,{3 ** 10000},{2 ** 10000},{log2_rational(big)!r}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert path.read_text().splitlines()[-1] == expected


# factors whose products need both reductions of the CSV's product rule: a
# capital's numerator sharing a factor with the next denominator (g1) and its
# denominator sharing one with the next numerator (g2), a zero, a unit, and a
# numerator of 32 digits
_CSV_FACTORS = tuple(map(Fraction, (
    "2/3", "3/2", "9/4", "4/9", "5/6", "6/5", "7", "1/7", "0", "1", f"{6 ** 40}/35")))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), steps=st.integers(2, 30), members=st.integers(1, 3))
def test_csv_capitals_are_the_fraction_products(tmp_path_factory, data, steps, members):
    factors = [data.draw(st.lists(st.sampled_from(_CSV_FACTORS), min_size=steps,
                                  max_size=steps)) for _ in range(members)]
    factors[0][data.draw(st.integers(0, steps - 2))] = Fraction(0)  # more factors follow
    space = SampleSpace(("A", "B"))
    t = Trajectory(prefix=SequencePrefix(space, (0,) * steps),
                   factors=tuple(tuple((f, f) for f in taken) for taken in factors),
                   mixture_log2=(0.0,) * (steps + 1), mixture_max=Fraction(1), deficiency_bits=0.0, argmax_step=0)
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_trajectory_csv(t, path)
    with open(path, newline="") as fh:
        rows = [(int(r["capital_num"]), int(r["capital_den"])) for r in csv.DictReader(fh)]
    expected = []
    capitals = [Fraction(1)] * members
    for n in range(steps + 1):
        if n:
            capitals = [c * f[n - 1] for c, f in zip(capitals, factors)]
        expected.extend((c.numerator, c.denominator) for c in capitals)
    assert rows == expected


class _MinimumModel(LowerExpectation):
    """A coherent model of a type that no file kind names."""

    def __init__(self, space):
        self.space = space

    def lower(self, g):
        return g.minimum()


@pytest.mark.parametrize("build, message", [
    (lambda space: model_to_dict(_MinimumModel(space)),
     "cannot serialize model type _MinimumModel"),
    (lambda space: system_to_dict(ProgrammaticSystem(space, lambda s: VacuousModel(space))),
     "cannot serialize system type ProgrammaticSystem"),
])
def test_writer_guards(space3, build, message):
    with pytest.raises(ModelInvariantError, match=re.escape(message)):
        build(space3)
