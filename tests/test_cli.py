import csv
import hashlib
import json
import sys
import time
from fractions import Fraction
from math import isqrt

import pytest

from imprand import analysis
from imprand import (
    EnvelopeModel,
    Gamble,
    GeneratorSpec,
    LinearModel,
    ProbabilityMassFunction,
    SampleSpace,
    SequencePrefix,
    StationarySystem,
    gamble_to_dict,
    generate,
    model_to_dict,
    save_model,
    save_system,
    write_sequence,
)
from imprand.cli import main
from imprand.lowerexp import AnchorGammaModel


SPACE = SampleSpace(("A", "B", "C"))

ENVELOPE_MODEL = {
    "alphabet": ["A", "B", "C"],
    "kind": "envelope",
    "vertices": [
        ["0", "1/2", "1/2"],
        ["1/2", "0", "1/2"],
        ["1/2", "1/2", "0"],
    ],
}

ANCHOR_MODEL = {
    "alphabet": ["A", "B", "C"],
    "kind": "gamma_f",
    "gamma": "3/4",
    "anchor": ["1", "0", "0"],
}

HALVING_BATTERY = [{
    "type": "multiplier",
    "default": ["1/2", "3/2", "1/2"],
    "rows": [],
}]

LLN_BATTERY = [{
    "type": "lln",
    "gamble": ["1", "0", "0"],
    "direction": "lower",
    "epsilon": "1/8",
    "selection": {"kind": "all"},
}]


# SHA-256 of analyze --format csv on the golden test's input, recorded from the
# implementation that summed the mixture in Fractions and wrote every row through
# csv.writer; integer sums and joined rows must not change a byte
_CSV_GOLDEN_SHA256 = "43b37f5af2d93ec06fca153df74bbcfe11d46d04efb88cf0c9af513ba5f27b88"

# SHA-256 of estimate-interval's JSON on TestEstimateInterval.test_json_golden's
# input, recorded from the implementation that built every member's factor row
# at every phase; sharing one row per distinct bet must not change a byte
_INTERVAL_GOLDEN_SHA256 = "530f602409b1016718a672780441c570c67cafc7c18f1ff12c479b2e7d9dab4e"

# the same on 20000 steps of the benchmark's interval data, where the float
# kernel's shifted log2 terms reach below -4700, recorded from the kernel that
# passed them to exp2 unclamped; raising them to -1000 must not change a byte
_INTERVAL_20000_GOLDEN_SHA256 = "eec7e7b2e37e97ab3855c5cd22cd691bc0fb9bbe3a9b52380247e31b5ad9455a"

_S = 2 ** 200  # the denominator of the factors next to 2^10.5


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def anchor_system_file(tmp_path):
    return write_json(tmp_path, "system.json",
                      {"kind": "stationary", "models": [ANCHOR_MODEL]})


@pytest.fixture
def envelope_system_file(tmp_path):
    return write_json(tmp_path, "env_system.json",
                      {"kind": "stationary", "models": [ENVELOPE_MODEL]})


@pytest.fixture
def all_b_sequence_file(tmp_path):
    path = tmp_path / "all_b.txt"
    prefix = generate(GeneratorSpec.iid(
        ProbabilityMassFunction.point_mass(SPACE, "B"), 300, seed=0))
    write_sequence(prefix, path)
    return str(path)


@pytest.fixture
def iid_sequence_file(tmp_path):
    # heavy on A, consistent with "at least 3/4 A"
    p = ProbabilityMassFunction(
        SPACE, (Fraction(4, 5), Fraction(1, 10), Fraction(1, 10)))
    path = tmp_path / "mostly_a.txt"
    write_sequence(generate(GeneratorSpec.iid(p, 300, seed=1)), path)
    return str(path)


class TestAnalyze:
    def test_consistent_data_exits_zero(self, tmp_path, anchor_system_file,
                                        iid_sequence_file, capsys):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", battery, "--sequence", iid_sequence_file])
        assert code == 0
        assert "deficiency" in capsys.readouterr().out

    def test_inconsistent_data_exits_three(self, tmp_path, anchor_system_file,
                                           all_b_sequence_file):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", battery, "--sequence", all_b_sequence_file])
        assert code == 3

    def test_csv_output(self, tmp_path, anchor_system_file, all_b_sequence_file):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        out = tmp_path / "traj.csv"
        main(["analyze", "--system", anchor_system_file, "--battery", battery,
              "--sequence", all_b_sequence_file, "--out", str(out)])
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "symbol", "strategy_id", "capital_num",
                           "capital_den", "mixture_log2"]
        assert len(rows) == 1 + 301  # header + one strategy x 301 steps
        # all-B capital after n steps is exactly (67/64)^n
        last = rows[-1]
        assert Fraction(int(last[3]), int(last[4])) == Fraction(67, 64) ** 300

    def test_csv_to_an_empty_out_exits_one(self, tmp_path, anchor_system_file,
                                           all_b_sequence_file, capsys):
        # --out "" is stdout for a JSON report, but names no file for the CSV
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        code = main(["analyze", "--system", anchor_system_file, "--battery", battery,
                     "--sequence", all_b_sequence_file, "--out", ""])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out ")
        assert captured.out == ""
        code = main(["analyze", "--system", anchor_system_file, "--battery", battery,
                     "--sequence", all_b_sequence_file, "--format", "json", "--out", ""])
        assert code == 3
        report, summary = capsys.readouterr().out.rsplit("}\n", 1)
        assert json.loads(report + "}")["exceeded"] is True
        assert summary.startswith("deficiency ")

    def test_json_report(self, tmp_path, anchor_system_file, all_b_sequence_file):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        out = tmp_path / "report.json"
        main(["analyze", "--system", anchor_system_file, "--battery", battery,
              "--sequence", all_b_sequence_file, "--out", str(out),
              "--format", "json"])
        report = json.loads(out.read_text())
        assert report["exceeded"] is True
        assert report["steps"] == 300
        assert report["deficiency_bits"] > 10
        # the capital grows at every all-B step, so the mixture peaks last
        assert Fraction(report["mixture_max"]) == Fraction(67, 64) ** 300
        assert report["argmax_step"] == 300

    def test_json_report_without_out_goes_to_stdout(self, tmp_path, anchor_system_file,
                                                    all_b_sequence_file, capsys):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        code = main(["analyze", "--system", anchor_system_file, "--battery", battery,
                     "--sequence", all_b_sequence_file, "--format", "json"])
        assert code == 3
        out = capsys.readouterr().out
        report, end = json.JSONDecoder().raw_decode(out)
        assert Fraction(report["mixture_max"]) == Fraction(67, 64) ** 300
        assert report["argmax_step"] == 300
        assert out[end:].strip().startswith("deficiency ")

    def test_exact_output_beyond_int_digit_limit(self, tmp_path,
                                                 anchor_system_file):
        # the weak strategy's capital (8000027/8000024)^n passes Python's
        # 4300-digit int-to-str limit after about 620 all-B steps
        weak = dict(LLN_BATTERY[0], epsilon="1/1000003")
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY + [weak])
        seq = tmp_path / "all_b.txt"
        write_sequence(SequencePrefix(SPACE, (1,) * 700), seq)
        report, trajectory = tmp_path / "report.json", tmp_path / "traj.csv"
        limit = sys.get_int_max_str_digits()
        for out, fmt in ((report, "json"), (trajectory, "csv")):
            code = main(["analyze", "--system", anchor_system_file, "--battery",
                         battery, "--sequence", str(seq), "--out", str(out),
                         "--format", fmt])
            assert code == 3
        assert sys.get_int_max_str_digits() == limit
        strong = Fraction(67, 64) ** 700
        weak_capital = Fraction(8000027, 8000024) ** 700
        sys.set_int_max_str_digits(0)
        try:
            mixture_max = Fraction(json.loads(report.read_text())["mixture_max"])
            with open(trajectory, newline="") as fh:
                last = list(csv.reader(fh))[-1]
            last_capital = Fraction(int(last[3]), int(last[4]))
        finally:
            sys.set_int_max_str_digits(limit)
        # mixture weights 2/3 and 1/3; both capitals grow at every step
        assert mixture_max == (2 * strong + weak_capital) / 3
        assert last[:3] == ["700", "B", "1"]
        assert last_capital == weak_capital

    def test_zero_mixture_csv_writes_minus_inf(self, tmp_path):
        # factors need only be non-negative; after A the only member is at 0
        battery = write_json(tmp_path, "battery.json", [
            {"type": "multiplier", "rows": [], "default": ["0", "1", "1"]}])
        system = write_json(tmp_path, "system.json", {
            "kind": "stationary",
            "models": [{"alphabet": ["A", "B", "C"], "kind": "vacuous"}]})
        seq = tmp_path / "ab.txt"
        seq.write_text("# alphabet: A B C\nA B\n")
        out = tmp_path / "traj.csv"
        code = main(["analyze", "--system", system, "--battery", battery,
                     "--sequence", str(seq), "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["0", "", "0", "1", "1", "0.0"]
        assert rows[2] == ["1", "A", "0", "0", "1", "-inf"]
        assert rows[3] == ["2", "B", "0", "0", "1", "-inf"]

    @pytest.mark.parametrize("factor, threshold, code", [
        # 1024 - 2^-40: its float log2 rounds up to exactly 10
        (Fraction(1125899906842623, 1099511627776), "10", 0),
        (Fraction(1024), "10", 3),
        # within 2^-200 below and above 2^10.5, which is irrational
        (Fraction(isqrt(2 ** 21 * _S ** 2), _S), "10.5", 0),
        (Fraction(isqrt(2 ** 21 * _S ** 2) + 1, _S), "10.5", 3),
    ], ids=["below-10", "at-10", "below-10.5", "above-10.5"])
    def test_threshold_is_decided_on_the_exact_peak(self, tmp_path, factor, threshold,
                                                    code):
        # one member, so after the one step the mixture is its factor
        battery = write_json(tmp_path, "battery.json", [
            {"type": "multiplier", "rows": [], "default": [str(factor)] * 2}])
        system = write_json(tmp_path, "system.json", {
            "kind": "stationary", "models": [{"alphabet": ["A", "B"], "kind": "vacuous"}]})
        seq = tmp_path / "a.txt"
        seq.write_text("# alphabet: A B\nA\n")
        out = tmp_path / "report.json"
        assert main(["analyze", "--system", system, "--battery", battery,
                     "--sequence", str(seq), "--threshold-bits", threshold,
                     "--format", "json", "--out", str(out)]) == code
        report = json.loads(out.read_text())
        assert report["exceeded"] is (code == 3)
        assert Fraction(report["mixture_max"]) == factor

    def test_non_integer_selection_modulus_exits_one(self, tmp_path,
                                                     anchor_system_file,
                                                     iid_sequence_file):
        entry = dict(LLN_BATTERY[0], selection={"kind": "residue", "m": "x", "i": 0})
        battery = write_json(tmp_path, "battery.json", [entry])
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", battery, "--sequence", iid_sequence_file])
        assert code == 1

    def test_bad_direction_exits_one(self, tmp_path, anchor_system_file,
                                     iid_sequence_file, capsys):
        # a file breaking a battery rule is a parse error naming the entry; an
        # epsilon outside (0, B) still breaks the strategy's invariant (exit 2)
        for field, value, want in (("direction", "sideways", 1), ("gamble", ["1", "0"], 1),
                                   ("epsilon", "2", 2)):
            entry = dict(LLN_BATTERY[0], **{field: value})
            battery = write_json(tmp_path, "battery.json", [entry])
            code = main(["analyze", "--system", anchor_system_file,
                         "--battery", battery, "--sequence", iid_sequence_file])
            assert code == want
            assert capsys.readouterr().err.startswith(f"error: {battery}[0]: {field}")

    def test_multiplier_default_of_the_wrong_length_exits_one(
            self, tmp_path, anchor_system_file, iid_sequence_file, capsys):
        entry = dict(HALVING_BATTERY[0], default=["1/2", "3/2"])
        battery = write_json(tmp_path, "battery.json", [entry])
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", battery, "--sequence", iid_sequence_file])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {battery}[0]: default has 2 entries for a 3-symbol space\n")

    def test_multiplier_situation_string_exits_one(self, tmp_path, anchor_system_file,
                                                   iid_sequence_file, capsys):
        entry = dict(HALVING_BATTERY[0],
                     rows=[{"situation": "AB", "factor": ["1", "1", "1"]}])
        battery = write_json(tmp_path, "battery.json", [entry])
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", battery, "--sequence", iid_sequence_file])
        assert code == 1
        assert f"{battery}[0][0]: 'situation'" in capsys.readouterr().err

    def test_multiplier_situation_unknown_token_exits_one(
            self, tmp_path, anchor_system_file, iid_sequence_file, capsys):
        entry = dict(HALVING_BATTERY[0],
                     rows=[{"situation": ["A", "Z"], "factor": ["1", "1", "1"]}])
        battery = write_json(tmp_path, "battery.json", [entry])
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", battery, "--sequence", iid_sequence_file])
        assert code == 1
        assert f"{battery}[0][0]: token 'Z' not in alphabet" in capsys.readouterr().err

    def test_files_with_byte_order_marks_exit_zero(self, tmp_path, anchor_system_file,
                                                   iid_sequence_file, capsys):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        for name in (anchor_system_file, battery, iid_sequence_file):
            with open(name, "rb") as fh:
                data = fh.read()
            with open(name, "wb") as fh:
                fh.write(b"\xef\xbb\xbf" + data)
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", battery, "--sequence", iid_sequence_file])
        assert code == 0
        assert "deficiency" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["sequence", "battery"])
    def test_non_utf8_file_exits_one(self, tmp_path, anchor_system_file,
                                     iid_sequence_file, capsys, bad):
        files = {"sequence": iid_sequence_file,
                 "battery": write_json(tmp_path, "battery.json", LLN_BATTERY)}
        with open(files[bad], "ab") as fh:
            fh.write(b"\xff\n")
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", files["battery"], "--sequence", files["sequence"]])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {files[bad]}: ") and "utf-8" in err

    def test_missing_file_exits_one(self, tmp_path, anchor_system_file):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        code = main(["analyze", "--system", anchor_system_file,
                     "--battery", battery, "--sequence", "/nonexistent.txt"])
        assert code == 1

    def test_corrupted_model_exits_two(self, tmp_path, all_b_sequence_file):
        bad_model = dict(ENVELOPE_MODEL, vertices=[["1/2", "1/5", "1/5"]])
        system = write_json(tmp_path, "bad_system.json",
                            {"kind": "stationary", "models": [bad_model]})
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        code = main(["analyze", "--system", system, "--battery", battery,
                     "--sequence", all_b_sequence_file])
        assert code == 2

    def test_audit_depth_rejects_growing_battery(self, tmp_path,
                                                 envelope_system_file,
                                                 all_b_sequence_file, capsys):
        growing = [{"type": "multiplier", "default": ["3/2", "3/2", "3/2"],
                    "rows": []}]
        battery = write_json(tmp_path, "battery.json", growing)
        code = main(["analyze", "--system", envelope_system_file,
                     "--battery", battery, "--sequence", all_b_sequence_file,
                     "--audit-depth", "2"])
        assert code == 2
        assert ("battery member 0 is not a test supermartingale to depth 2"
                in capsys.readouterr().err)

    def test_passing_audit_leaves_csv_unchanged(self, tmp_path,
                                                envelope_system_file,
                                                all_b_sequence_file):
        battery = write_json(tmp_path, "battery.json",
                             HALVING_BATTERY + LLN_BATTERY)
        outs = []
        for name, audit in (("plain.csv", []), ("audited.csv", ["--audit-depth", "3"])):
            out = tmp_path / name
            code = main(["analyze", "--system", envelope_system_file,
                         "--battery", battery, "--sequence", all_b_sequence_file,
                         "--threshold-bits", "1000", "--out", str(out)] + audit)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_deep_audit_fails_fast(self, tmp_path, envelope_system_file,
                                   all_b_sequence_file, capsys):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        start = time.perf_counter()
        code = main(["analyze", "--system", envelope_system_file,
                     "--battery", battery, "--sequence", all_b_sequence_file,
                     "--audit-depth", "1000000000"])
        assert time.perf_counter() - start < 5
        assert code == 2
        assert "3^1000000000" in capsys.readouterr().err

    def test_reruns_are_byte_identical(self, tmp_path, anchor_system_file,
                                       all_b_sequence_file):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["analyze", "--system", anchor_system_file, "--battery",
                  battery, "--sequence", all_b_sequence_file, "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_csv_golden(self, tmp_path, anchor_system_file):
        # 24 strategies on two gambles, both directions, two stakes and the
        # selections of moduli 1 and 2, along 200 iid steps
        battery = write_json(tmp_path, "battery.json", [
            {"type": "lln", "gamble": gamble, "direction": direction,
             "epsilon": epsilon, "selection": {"kind": "residue", "m": m, "i": i}}
            for gamble in (["1", "0", "0"], ["1", "-2", "3"])
            for direction in ("lower", "upper")
            for epsilon in ("1/2", "1/8")
            for m, i in ((1, 0), (2, 0), (2, 1))
        ])
        p = ProbabilityMassFunction(SPACE, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        sequence = tmp_path / "iid.txt"
        write_sequence(generate(GeneratorSpec.iid(p, 200, seed=3)), sequence)
        out = tmp_path / "trajectory.csv"
        code = main(["analyze", "--system", anchor_system_file, "--battery", battery,
                     "--sequence", str(sequence), "--format", "csv", "--out", str(out)])
        assert code == 3
        assert len(out.read_bytes().splitlines()) == 1 + 201 * 24
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _CSV_GOLDEN_SHA256


class TestEstimateInterval:
    def test_constant_a_report(self, tmp_path):
        gamble = write_json(tmp_path, "g.json",
                            gamble_to_dict(Gamble.indicator(SPACE, "A")))
        seq = tmp_path / "seq.txt"
        write_sequence(generate(GeneratorSpec.iid(
            ProbabilityMassFunction.point_mass(SPACE, "A"), 1500, seed=0)), seq)
        out = tmp_path / "est.json"
        code = main(["estimate-interval", "--gamble", gamble, "--sequence",
                     str(seq), "--selection-moduli", "1", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["hi_accept"] == "1"
        assert Fraction(report["lo_accept"]) >= Fraction(3, 4)
        assert report["lower_grid"][0]["accepted"] is True

    def _interval_digest(self, tmp_path, length, seed):
        # f = (1, -2, 3) on steps that alternate between the vertices
        # (0, 1/2, 1/2) and (1/2, 1/2, 0), with the selections of moduli 1 and 2
        gamble = write_json(tmp_path, "f.json",
                            gamble_to_dict(Gamble(SPACE, ("1", "-2", "3"))))
        half = Fraction(1, 2)
        even = ProbabilityMassFunction(SPACE, (Fraction(0), half, half))
        odd = ProbabilityMassFunction(SPACE, (half, half, Fraction(0)))
        seq = tmp_path / "cyclic.txt"
        write_sequence(generate(GeneratorSpec.cyclic((even, odd), length, seed=seed)), seq)
        out = tmp_path / "interval.json"
        code = main(["estimate-interval", "--gamble", gamble, "--sequence", str(seq),
                     "--selection-moduli", "1,2", "--out", str(out)])
        assert code == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    def test_json_golden(self, tmp_path):
        assert self._interval_digest(tmp_path, 2000, 5) == _INTERVAL_GOLDEN_SHA256

    def test_json_golden_on_20000_steps(self, tmp_path):
        digest = self._interval_digest(tmp_path, 20000, 1)
        assert digest == _INTERVAL_20000_GOLDEN_SHA256

    def _bad_flag(self, tmp_path, capsys, flag, value):
        gamble = write_json(tmp_path, "g.json",
                            gamble_to_dict(Gamble.indicator(SPACE, "A")))
        seq = tmp_path / "seq.txt"
        write_sequence(generate(GeneratorSpec.iid(
            ProbabilityMassFunction.point_mass(SPACE, "A"), 10, seed=0)), seq)
        code = main(["estimate-interval", "--gamble", gamble, "--sequence",
                     str(seq), flag, value])
        assert code == 1
        # the message names the flag
        assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")

    def test_bad_grid_step_exits_one(self, tmp_path, capsys):
        for value in ("0.25", "x"):
            self._bad_flag(tmp_path, capsys, "--grid-step", value)

    def test_non_integer_moduli_flag_exits_one(self, tmp_path, capsys):
        self._bad_flag(tmp_path, capsys, "--selection-moduli", "1,a")

    def test_grid_over_the_budget_exits_two(self, tmp_path, capsys):
        # 3000001 points per side: refused before the grid is built
        gamble = write_json(tmp_path, "g.json",
                            gamble_to_dict(Gamble(SPACE, ("1", "-2", "1"))))
        seq = tmp_path / "seq.txt"
        write_sequence(SequencePrefix(SPACE, (0, 1, 2, 0, 1, 2)), seq)
        out = tmp_path / "est.json"
        code = main(["estimate-interval", "--gamble", gamble, "--sequence", str(seq),
                     "--grid-step", "1/1000000", "--out", str(out)])
        assert code == 2
        assert "[-2, 1] gives 3000001 points per side" in capsys.readouterr().err
        assert not out.exists()

    def test_kernel_over_the_budget_exits_two(self, tmp_path, monkeypatch, capsys):
        # the default moduli 1..4 over 3 symbols: a (40, 36) table and a (36, 7)
        # count view, refused under a budget of 1439 cells
        monkeypatch.setattr(analysis, "_KERNEL_BUDGET", 40 * 36 - 1)
        gamble = write_json(tmp_path, "g.json", gamble_to_dict(Gamble.indicator(SPACE, "A")))
        seq = tmp_path / "seq.txt"
        write_sequence(SequencePrefix(SPACE, (0, 1, 2, 0, 1, 2)), seq)
        out = tmp_path / "est.json"
        assert main(["estimate-interval", "--gamble", gamble, "--sequence", str(seq),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: float kernel with B = 40 strategies, joint period L = 12, K = 3 symbols "
            "and N = 6 steps needs a (B, L*K) table and an (L*K, N+1) count view, over the "
            "budget of 1439 cells each\n")
        assert not out.exists()

    def test_bad_selection_modulus_exits_two(self, tmp_path, iid_sequence_file,
                                             capsys):
        gamble = write_json(tmp_path, "g.json",
                            gamble_to_dict(Gamble.indicator(SPACE, "A")))
        out = tmp_path / "est.json"
        for moduli, named in (("1,-3,0", "-3"), ("1,1", "got 1 twice"),
                              ("1,2,2", "got 2 twice")):
            code = main(["estimate-interval", "--gamble", gamble, "--sequence",
                         iid_sequence_file, "--selection-moduli", moduli,
                         "--out", str(out)])
            assert code == 2
            assert named in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-5"])
@pytest.mark.parametrize("command", ["analyze", "estimate-interval"])
def test_threshold_bits_must_be_positive_and_finite(
        tmp_path, anchor_system_file, iid_sequence_file, command, value, capsys):
    out = tmp_path / "out.json"
    if command == "analyze":
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        args = ["analyze", "--system", anchor_system_file, "--battery", battery]
    else:
        gamble = write_json(tmp_path, "g.json",
                            gamble_to_dict(Gamble.indicator(SPACE, "A")))
        args = ["estimate-interval", "--gamble", gamble]
    code = main(args + ["--sequence", iid_sequence_file, "--out", str(out),
                        f"--threshold-bits={value}"])
    assert code == 1
    assert "--threshold-bits" in capsys.readouterr().err
    assert not out.exists()


class TestGenerate:
    def test_iid_round_trip(self, tmp_path):
        models = write_json(tmp_path, "m.json", {
            "alphabet": ["A", "B", "C"], "kind": "linear",
            "vertices": [["1/2", "1/4", "1/4"]]})
        out = tmp_path / "seq.txt"
        assert main(["generate", "--kind", "iid", "--models", models,
                     "--length", "100", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# alphabet: A B C"
        assert sum(len(l.split()) for l in lines[1:]) == 100

    def test_same_seed_same_output(self, tmp_path):
        models = write_json(tmp_path, "m.json", {
            "alphabet": ["A", "B", "C"], "kind": "linear",
            "vertices": [["1/2", "1/4", "1/4"]]})
        texts = []
        for name in ("s1.txt", "s2.txt"):
            out = tmp_path / name
            main(["generate", "--kind", "iid", "--models", models,
                  "--length", "200", "--seed", "11", "--out", str(out)])
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_cyclic_needs_models(self, tmp_path):
        out = tmp_path / "seq.txt"
        assert main(["generate", "--kind", "cyclic", "--length", "10",
                     "--out", str(out)]) == 1

    def test_adversarial(self, tmp_path, envelope_system_file):
        battery = write_json(tmp_path, "battery.json", HALVING_BATTERY)
        out = tmp_path / "adv.txt"
        code = main(["generate", "--kind", "adversarial", "--system",
                     envelope_system_file, "--battery", battery,
                     "--length", "50", "--out", str(out)])
        assert code == 0
        # greedy play against the halving strategy always picks A (factor 1/2,
        # tied with C but smaller index)
        tokens = " ".join(out.read_text().splitlines()[1:]).split()
        assert tokens == ["A"] * 50

    def test_nonlinear_model_rejected(self, tmp_path, capsys):
        models = write_json(tmp_path, "m.json", ENVELOPE_MODEL)
        assert main(["generate", "--kind", "iid", "--models", models,
                     "--length", "10", "--out", str(tmp_path / "x.txt")]) == 1
        assert f"{models}[0]: generation needs linear models" in capsys.readouterr().err

    def test_one_vertex_envelope_generates_as_its_linear_twin(self, tmp_path):
        # generation reads a model's vertices, not its type: the envelope file
        # of one vertex draws the same symbols as the linear file of it
        p = ProbabilityMassFunction(SPACE, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        texts = []
        for name, model in (("linear", LinearModel(p)), ("envelope", EnvelopeModel((p,)))):
            models = tmp_path / f"{name}.json"
            save_model(model, models)
            assert json.loads(models.read_text())["kind"] == name
            out = tmp_path / f"{name}.txt"
            assert main(["generate", "--kind", "iid", "--models", str(models),
                         "--length", "200", "--seed", "5", "--out", str(out)]) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestVerify:
    def test_coherent_model(self, tmp_path, capsys):
        model = write_json(tmp_path, "m.json", ENVELOPE_MODEL)
        assert main(["verify", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["coherence"]["violations"] == []

    def test_corrupted_model_exits_two(self, tmp_path):
        bad = dict(ENVELOPE_MODEL, vertices=[["1/2", "1/5", "1/5"]])
        model = write_json(tmp_path, "m.json", bad)
        assert main(["verify", "--model", model]) == 2

    def test_supermartingale_battery(self, tmp_path, envelope_system_file, capsys):
        battery = write_json(tmp_path, "battery.json", HALVING_BATTERY)
        code = main(["verify", "--system", envelope_system_file,
                     "--battery", battery, "--depth", "4"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        c = report["classification"][0]
        assert c["test"] is True and c["witnesses"] == []

    def test_growing_battery_exits_two(self, tmp_path, envelope_system_file,
                                       capsys):
        growing = [{"type": "multiplier", "default": ["3/2", "3/2", "3/2"],
                    "rows": []}]
        battery = write_json(tmp_path, "battery.json", growing)
        code = main(["verify", "--system", envelope_system_file,
                     "--battery", battery, "--depth", "3"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["classification"][0]["witnesses"]

    def test_deep_audit_fails_fast(self, tmp_path, envelope_system_file, capsys):
        # the sweep would visit sum_{d<=depth} 3^d situations per strategy;
        # the budget check counts level by level and stops at once
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        start = time.perf_counter()
        code = main(["verify", "--system", envelope_system_file,
                     "--battery", battery, "--depth", "1000000000"])
        assert time.perf_counter() - start < 5
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "K^depth = 3^1000000000" in captured.err
        assert "B = 1 strategies" in captured.err

    def test_needs_some_target(self):
        assert main(["verify"]) == 1

    def test_negative_depth_exits_two(self, tmp_path, envelope_system_file,
                                      all_b_sequence_file, capsys):
        battery = write_json(tmp_path, "battery.json", LLN_BATTERY)
        common = ["--system", envelope_system_file, "--battery", battery]
        for argv in (["verify", *common, "--depth", "-1"],
                     ["analyze", *common, "--sequence", all_b_sequence_file,
                      "--audit-depth", "-1"]):
            assert main(argv) == 2
            assert "depth must be non-negative, got -1" in capsys.readouterr().err


class TestAverage:
    def test_all_selection(self, tmp_path, envelope_system_file,
                           all_b_sequence_file, capsys):
        gamble = write_json(
            tmp_path, "g.json",
            gamble_to_dict(Gamble(SPACE, (Fraction(1), Fraction(-2), Fraction(3)))))
        code = main(["average", "--gamble", gamble, "--system",
                     envelope_system_file, "--sequence", all_b_sequence_file])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["average"] == "-2"
        assert report["selected_count"] == 300
        assert set(report) == {"selected_count", "average", "average_above_lower",
                               "average_below_upper"}

    def test_residue_selection(self, tmp_path, envelope_system_file,
                               all_b_sequence_file, capsys):
        gamble = write_json(tmp_path, "g.json",
                            gamble_to_dict(Gamble.indicator(SPACE, "B")))
        code = main(["average", "--gamble", gamble, "--system",
                     envelope_system_file, "--sequence", all_b_sequence_file,
                     "--selection", "residue:3:0"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["selected_count"] == 100

    def test_bad_selection_exits_one(self, tmp_path, envelope_system_file,
                                     all_b_sequence_file, capsys):
        # the flag is checked before any file is read: a missing gamble file
        # does not hide it
        for gamble in (write_json(tmp_path, "g.json",
                                  gamble_to_dict(Gamble.indicator(SPACE, "B"))),
                       str(tmp_path / "missing.json")):
            assert main(["average", "--gamble", gamble, "--system",
                         envelope_system_file, "--sequence", all_b_sequence_file,
                         "--selection", "every-other"]) == 1
            assert capsys.readouterr().err == (
                "error: argument --selection: must be 'all' or 'residue:m:i', "
                "got 'every-other'\n")

    def test_bad_residue_class_exits_two(self, tmp_path, envelope_system_file,
                                         all_b_sequence_file, capsys):
        gamble = write_json(tmp_path, "g.json",
                            gamble_to_dict(Gamble.indicator(SPACE, "B")))
        assert main(["average", "--gamble", gamble, "--system",
                     envelope_system_file, "--sequence", all_b_sequence_file,
                     "--selection", "residue:0:0"]) == 2
        assert "bad residue class 0 mod 0" in capsys.readouterr().err


@pytest.mark.parametrize("bad, code, message", [
    ("header", 1, ":1: duplicate symbols in ('A', 'A')"),
    ("alphabet", 2, ":1: alphabet ('A', 'B') differs from the other inputs' ('A', 'B', 'C')"),
    ("model", 2, ": pmf weights sum to 9/10, not 1"),
    ("gamble-not-an-object", 1, ": expected a JSON object, got list"),
    ("gamble-without-values", 1, ": missing fields ['values']"),
    ("values-not-a-list", 1, ": values: expected a list of rational strings"),
    ("empty-vertices", 1, ": 'vertices' must be a non-empty list"),
    ("system-without-kind", 1, ": missing 'kind'"),
    ("empty-cycle", 1, ": cyclic system needs a non-empty model list"),
    ("entry-without-type", 1, "[0]: missing 'type'"),
    ("unknown-selection", 1, "[0]: unknown selection kind 'every'"),
])
def test_input_errors_name_the_file(tmp_path, envelope_system_file, all_b_sequence_file,
                                    capsys, bad, code, message):
    # a bad alphabet or a malformed file breaks the file's format (exit 1); a
    # header that differs from the other inputs' alphabet and a model's own
    # invariant are model invariants (exit 2); each names the file (and line or
    # entry) it came from
    inputs = {"gamble": write_json(tmp_path, "g.json",
                                   gamble_to_dict(Gamble.indicator(SPACE, "B"))),
              "system": envelope_system_file, "sequence": all_b_sequence_file}
    # each case's input and the JSON it reads
    files = {
        "model": ("system", {"kind": "stationary", "models": [
            dict(ENVELOPE_MODEL, vertices=[["1/2", "1/5", "1/5"]])]}),
        "gamble-not-an-object": ("gamble", ["1", "0", "0"]),
        "gamble-without-values": ("gamble", {"alphabet": ["A", "B", "C"]}),
        "values-not-a-list": ("gamble", {"alphabet": ["A", "B", "C"], "values": "1"}),
        "empty-vertices": ("system", {"kind": "stationary",
                                      "models": [dict(ENVELOPE_MODEL, vertices=[])]}),
        "system-without-kind": ("system", {"models": [ENVELOPE_MODEL]}),
        "empty-cycle": ("system", {"kind": "cyclic", "models": []}),
        "entry-without-type": ("battery", [
            {k: v for k, v in LLN_BATTERY[0].items() if k != "type"}]),
        "unknown-selection": ("battery", [dict(LLN_BATTERY[0], selection={"kind": "every"})]),
    }
    if bad in ("header", "alphabet"):
        role, target = "sequence", str(tmp_path / "bad.txt")
        header = "A A" if bad == "header" else "A B"
        (tmp_path / "bad.txt").write_text(f"# alphabet: {header}\nA\n")
    else:
        role, content = files[bad]
        target = write_json(tmp_path, f"bad_{role}.json", content)
    inputs[role] = target
    command = "analyze" if role == "battery" else "average"
    roles = ("system", "battery", "sequence") if role == "battery" else (
        "gamble", "system", "sequence")
    argv = [command] + [a for r in roles for a in (f"--{r}", inputs[r])]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {target}{message}\n"


def test_average_checks_the_gamble_against_the_system_first(tmp_path, envelope_system_file,
                                                           all_b_sequence_file, capsys):
    # a valid 3-symbol data file is not blamed for a 2-symbol gamble
    gamble = write_json(tmp_path, "g2.json", gamble_to_dict(
        Gamble.indicator(SampleSpace(("A", "B")), "B")))
    assert main(["average", "--gamble", gamble, "--system", envelope_system_file,
                 "--sequence", all_b_sequence_file]) == 2
    err = capsys.readouterr().err
    assert gamble in err and envelope_system_file in err
    assert all_b_sequence_file not in err


@pytest.mark.parametrize("case", ["iid-two-models", "adversarial-no-battery",
                                  "verify-system-no-battery", "average-bad-residue"])
def test_usage_errors_exit_one(tmp_path, envelope_system_file, all_b_sequence_file,
                               capsys, case):
    vertex = dict(ENVELOPE_MODEL, kind="linear", vertices=[["1/2", "1/4", "1/4"]])
    models = write_json(tmp_path, "models.json", [vertex, vertex])
    gamble = write_json(tmp_path, "g.json", gamble_to_dict(Gamble.indicator(SPACE, "B")))
    out = str(tmp_path / "seq.txt")
    argv, message = {
        "iid-two-models": (
            ["generate", "--kind", "iid", "--models", models, "--length", "5",
             "--out", out], "iid generation takes exactly one mass function"),
        "adversarial-no-battery": (
            ["generate", "--kind", "adversarial", "--system", envelope_system_file,
             "--length", "5", "--out", out],
            "adversarial generation needs --system and --battery"),
        "verify-system-no-battery": (
            ["verify", "--system", envelope_system_file], "verify --system needs --battery"),
        "average-bad-residue": (
            ["average", "--gamble", gamble, "--system", envelope_system_file,
             "--sequence", all_b_sequence_file, "--selection", "residue:a:b"],
            "argument --selection: must be 'all' or 'residue:m:i', got 'residue:a:b'"),
    }[case]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "seq.txt").exists()


def test_unknown_subcommand_exits_one():
    assert main(["frobnicate"]) == 1


def test_missing_required_flag_exits_one():
    assert main(["analyze", "--system", "x.json"]) == 1
