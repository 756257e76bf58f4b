import collections
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from imprand import (
    Gamble,
    GeneratorSpec,
    MultiplierProcess,
    ParseError,
    ProbabilityMassFunction,
    SampleSpace,
    SequencePrefix,
    Situation,
    StationarySystem,
    generate,
    read_sequence,
    write_sequence,
)
from imprand.core import ModelInvariantError, SpaceMismatchError
from imprand.martingale import mixture_weights
from imprand.sequences import _splitmix64_block


class TestPrefix:
    def test_invalid_index_rejected(self, space3):
        for bad in (5, 1.9):
            with pytest.raises(ModelInvariantError):
                SequencePrefix(space3, (bad,))
        p = SequencePrefix(space3, np.array([2, 0], dtype=np.int64))
        assert p.symbols == (2, 0)
        assert all(type(i) is int for i in p.symbols)
        # a depth outside [0, len(prefix)] names no situation of the prefix
        for depth in (-1, 7):
            with pytest.raises(ModelInvariantError, match=f"depth {depth} outside"):
                SequencePrefix(space3, (0, 1, 2)).situation(depth)

    def test_tokens_and_situation(self, space3):
        p = SequencePrefix.from_tokens(space3, ("B", "C", "A"))
        assert p.tokens() == ("B", "C", "A")
        assert p.situation(2).symbols == (1, 2)
        assert len(p) == 3

    @pytest.mark.parametrize("length", [0, 1, 50])
    def test_phase_counts_match_naive_count(self, space3, length):
        rng = random.Random(7)
        p = SequencePrefix(space3, tuple(rng.randrange(3) for _ in range(length)))
        for period in (3, 2, 2):
            counts = p.phase_counts(period)
            assert counts.shape == (period * 3, length + 1)
            assert counts.dtype == np.float64
            assert not counts.flags.writeable
            for n in range(length + 1):
                naive = collections.Counter(
                    j % period * 3 + x for j, x in enumerate(p.symbols[:n]))
                assert list(counts[:, n]) == [naive[r] for r in range(period * 3)]
        assert p.phase_counts(2) is counts  # the last period asked for is kept


class TestPrng:
    def test_counter_stream_is_stateless(self):
        whole = _splitmix64_block(99, 0, 50)
        assert list(whole[10:20]) == list(_splitmix64_block(99, 10, 10))

    def test_known_splitmix_values(self):
        # published splitmix64 test vector: seed 1234567 produces these
        # first three outputs
        got = [int(v) for v in _splitmix64_block(1234567, 0, 3)]
        assert got == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]


class TestGenerate:
    def test_degenerate_point_mass(self, space3):
        p = ProbabilityMassFunction.point_mass(space3, "A")
        assert generate(GeneratorSpec.iid(p, 5, seed=3)).tokens() == ("A",) * 5

    def test_seed_reproducibility(self, space3):
        p = ProbabilityMassFunction(
            space3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        a = generate(GeneratorSpec.iid(p, 500, seed=42))
        b = generate(GeneratorSpec.iid(p, 500, seed=42))
        c = generate(GeneratorSpec.iid(p, 500, seed=43))
        assert a == b
        assert a != c

    def test_cyclic_structural_zeroes(self, space3, vertices3):
        # even steps draw from (0,1/2,1/2), odd steps from (1/2,1/2,0)
        seq = generate(GeneratorSpec.cyclic((vertices3[0], vertices3[2]), 4000, seed=5))
        assert 0 not in seq.symbols[0::2]
        assert 2 not in seq.symbols[1::2]

    def test_zero_weight_symbol_never_emitted(self, space3):
        p = ProbabilityMassFunction(space3, (Fraction(1), Fraction(0), Fraction(0)))
        seq = generate(GeneratorSpec.iid(p, 2000, seed=9))
        assert set(seq.symbols) == {0}

    def test_iid_frequencies(self, space3):
        p = ProbabilityMassFunction(
            space3, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
        hits = 0
        for seed in range(40):
            seq = generate(GeneratorSpec.iid(p, 20000, seed=seed))
            counts = collections.Counter(seq.symbols)
            ok = all(
                abs(counts[i] / 20000 - float(p.weights[i])) < 0.05
                for i in range(3))
            hits += ok
        assert hits >= 38

    def test_adversarial_keeps_mixture_bounded(self, space3, envelope3,
                                               halving_multiplier):
        sys = StationarySystem(envelope3)
        battery = [halving_multiplier]
        seq = generate(GeneratorSpec.adversarial(battery, 200))
        capital = Fraction(1)
        for n in range(len(seq)):
            capital *= halving_multiplier.factor(seq.situation(n))[seq.symbols[n]]
            assert capital <= 1

    def test_adversarial_matches_fraction_greedy(self, space3):
        # members of periods 2, 1 and none, with coprime factor denominators
        rng = random.Random(5)

        def positive_gamble():
            return Gamble(space3, tuple(
                Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 5, 7, 9)))
                for _ in range(3)))

        for _ in range(4):
            pair = [positive_gamble() for _ in range(2)]
            constant = positive_gamble()
            by_sum, by_last = ([positive_gamble() for _ in range(3)] for _ in range(2))
            members = [
                (2, lambda s: pair[s.depth % 2]),
                (1, lambda s: constant),
                (None, lambda s: by_sum[sum(s.symbols) % 3]),
                (None, lambda s: by_last[s.symbols[-1] if s.symbols else 0]),
            ]
            battery = [MultiplierProcess(space3, fn, period) for period, fn in members]
            seq = generate(GeneratorSpec.adversarial(battery, 40))
            fns = [fn for _, fn in members]
            assert seq.symbols == _greedy_fraction_reference(space3, fns, 40)

    def test_adversarial_asks_periodic_members_at_their_phase(self, space3):
        # members of periods 2 and 3 (joint period 6), with coprime factor
        # denominators, at lengths shorter and longer than the joint period
        class Recording(MultiplierProcess):
            def factor(self, s):
                self.asked.append(s)
                return super().factor(s)

        rng = random.Random(11)
        for length in (4, 40):
            rows = [[Gamble(space3, tuple(Fraction(rng.randint(1, 30), rng.choice((2, 3, 5, 7)))
                                          for _ in range(3))) for _ in range(period)]
                    for period in (2, 3)]
            fns = [lambda s, r=r: r[s.depth % len(r)] for r in rows]
            battery = [Recording(space3, fn, len(r)) for fn, r in zip(fns, rows)]
            for member in battery:
                member.asked = []
            seq = generate(GeneratorSpec.adversarial(battery, length))
            assert seq.symbols == _greedy_fraction_reference(space3, fns, length)
            # each member is asked once per joint phase the path reaches, in
            # order, at the path's situation of that depth
            for member in battery:
                assert [s.symbols for s in member.asked] == [
                    seq.symbols[:t] for t in range(min(6, length))]

    def test_adversarial_tie_goes_to_the_lower_symbol(self, space3):
        # with weights 2/3 and 1/3, B and C give the same weighted sum 1/2 at
        # the first step and A gives 1.  The tying sums have common
        # denominators 2 and 4 in one battery and 4 and 2 in the other; in the
        # first, B keeps both capitals in the ratio 2:1, so every step ties.
        half, quarter = Fraction(1, 2), Fraction(1, 4)
        sequences = []
        for first, second in (((1, half, quarter), (1, half, 1)),
                              ((1, quarter, half), (1, 1, half))):
            fns = [lambda s, g=Gamble(space3, first): g,
                   lambda s, g=Gamble(space3, second): g]
            battery = [MultiplierProcess(space3, fn, period=1) for fn in fns]
            seq = generate(GeneratorSpec.adversarial(battery, 12))
            assert seq.symbols == _greedy_fraction_reference(space3, fns, 12)
            sequences.append(seq.symbols)
        assert sequences[0] == (1,) * 12
        assert sequences[1][0] == 1

    def test_adversarial_rejects_non_positive_battery(self, space3, envelope3):
        dead = MultiplierProcess(
            space3, lambda s: Gamble(space3, (Fraction(0), Fraction(1), Fraction(1))))
        spec = GeneratorSpec.adversarial([dead], 5)
        with pytest.raises(ModelInvariantError):
            generate(spec)

    def test_adversarial_rejects_a_zero_the_greedy_would_not_take(self, space3):
        # with weights 2/3 and 1/3, A's sum 1/2 beats C's 2/3, so the greedy
        # takes A at every step although the second member is 0 at C from
        # depth 3 on; the check must still fire there
        first = Gamble(space3, (Fraction(1, 2), Fraction(1), Fraction(1)))
        live = Gamble(space3, (Fraction(1, 2), Fraction(1), Fraction(1)))
        dead_at_c = Gamble(space3, (Fraction(1, 2), Fraction(1), Fraction(0)))
        battery = [MultiplierProcess(space3, lambda s: first, period=1),
                   MultiplierProcess(space3, lambda s: live if s.depth < 3 else dead_at_c)]
        assert generate(GeneratorSpec.adversarial(battery, 3)).symbols == (0, 0, 0)
        with pytest.raises(ModelInvariantError,
                           match=re.escape("battery member not positive at ('A', 'A', 'A')")):
            generate(GeneratorSpec.adversarial(battery, 6))

    def test_adversarial_rejects_a_zero_at_the_first_depth_of_its_phase(self, space3):
        # a period-2 member that is 0 at C on odd depths: the greedy takes A at
        # depth 0, and the check fires at depth 1, the first situation of
        # that phase, before any step repeats a phase
        even = Gamble(space3, (Fraction(1, 2), Fraction(1), Fraction(1)))
        odd = Gamble(space3, (Fraction(1, 2), Fraction(1), Fraction(0)))
        battery = [MultiplierProcess(space3, lambda s: (even, odd)[s.depth % 2], period=2),
                   MultiplierProcess(space3, lambda s: even, period=1)]
        assert generate(GeneratorSpec.adversarial(battery, 1)).symbols == (0,)
        for length in (2, 10):
            with pytest.raises(ModelInvariantError,
                               match=re.escape("battery member not positive at ('A',)")):
                generate(GeneratorSpec.adversarial(battery, length))

    def test_spec_validation(self, space3, vertices3):
        with pytest.raises(ModelInvariantError):
            GeneratorSpec(kind="weird", length=5)
        with pytest.raises(ModelInvariantError):
            GeneratorSpec.iid(vertices3[0], -1)
        with pytest.raises(ModelInvariantError):
            GeneratorSpec(kind="iid", length=5, pmfs=vertices3)
        # every check is made when the spec is built, not in generate
        with pytest.raises(ModelInvariantError, match="needs mass functions"):
            GeneratorSpec.cyclic((), 5)
        with pytest.raises(ModelInvariantError, match="needs a battery"):
            GeneratorSpec.adversarial((), 5)
        space2 = SampleSpace(("A", "B"))
        with pytest.raises(SpaceMismatchError):
            GeneratorSpec.cyclic(
                (vertices3[0], ProbabilityMassFunction(space2, (1, 0))), 5)
        members = [MultiplierProcess.constant(sp, Gamble.constant(sp, 1))
                   for sp in (space3, space2)]
        with pytest.raises(SpaceMismatchError):
            GeneratorSpec.adversarial(members, 5)


def _greedy_fraction_reference(space, fns, length):
    """Greedy descent written with Fraction sums: at each step the symbol of the
    least weighted sum of factor values, the lowest symbol on a tie."""
    weighted = list(mixture_weights(len(fns)))
    s = Situation.root(space)
    for _ in range(length):
        factors = [fn(s) for fn in fns]
        sums = [sum((w * g[x] for w, g in zip(weighted, factors)), start=Fraction(0))
                for x in space]
        x = sums.index(min(sums))
        weighted = [w * g[x] for w, g in zip(weighted, factors)]
        s = s.child(x)
    return s.symbols


class TestSequenceFiles:
    def test_round_trip(self, space3, tmp_path, vertices3):
        seq = generate(GeneratorSpec.iid(vertices3[2], 1000, seed=17))
        path = tmp_path / "data.txt"
        write_sequence(seq, path)
        assert read_sequence(path) == seq
        assert read_sequence(path, space3) == seq

    def test_byte_order_mark_is_ignored(self, space3, tmp_path):
        seq = SequencePrefix(space3, (0, 2, 1, 1))
        path = tmp_path / "data.txt"
        write_sequence(seq, path)
        assert path.read_bytes().startswith(b"# alphabet:")  # written without one
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_sequence(path) == seq
        assert read_sequence(path, space3) == seq
        # headerless, with the mark before the first token
        path.write_bytes(b"\xef\xbb\xbfA C B B\n")
        assert read_sequence(path, space3) == seq

    def test_unknown_token_reports_line(self, space3, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# alphabet: A B C\nA B\nC D\n")
        with pytest.raises(ParseError) as err:
            read_sequence(path)
        assert ":3:" in str(err.value)
        assert "'D'" in str(err.value)

    def test_empty_file_with_header(self, space3, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# alphabet: A B C\n")
        seq = read_sequence(path)
        assert len(seq) == 0
        assert seq.space == space3

    def test_alphabet_mismatch(self, tmp_path):
        # the header disagrees with the other inputs, not with the file's format
        path = tmp_path / "data.txt"
        path.write_text("# alphabet: A B\nA\n")
        with pytest.raises(ModelInvariantError, match=re.escape(f"{path}:1: alphabet")):
            read_sequence(path, SampleSpace(("A", "B", "C")))

    def test_second_alphabet_header_must_agree(self, tmp_path, space3):
        path = tmp_path / "data.txt"
        path.write_text("# alphabet: A B C\nA A\n# alphabet: C B A\nC\n")
        with pytest.raises(ParseError, match=":3:"):
            read_sequence(path)
        # a repeated identical header is fine
        path.write_text("# alphabet: A B C\nA A\n# alphabet: A B C\nC\n")
        assert read_sequence(path).tokens() == ("A", "A", "C")

    def test_symbols_starting_with_hash_rejected(self, tmp_path):
        # data lines starting with '#' would read back as comments
        space = SampleSpace(("#", "A"))
        path = tmp_path / "data.txt"
        with pytest.raises(ParseError, match="'#'"):
            write_sequence(SequencePrefix(space, (0, 1, 0, 0)), path)
        assert not path.exists()
        path.write_text("# alphabet: A B\nA B\n")
        with pytest.raises(ParseError, match="'#x'"):
            read_sequence(path, SampleSpace(("A", "#x")))
        path.write_text("# alphabet: #x A\nA\n")
        with pytest.raises(ParseError, match=":1:.*'#x'"):
            read_sequence(path)

    @pytest.mark.parametrize("header, message", [
        ("# alphabet: A A", "duplicate symbols in ('A', 'A')"),
        ("# alphabet:", "sample space must contain at least one symbol"),
    ], ids=["duplicate", "empty"])
    def test_bad_alphabet_header_names_the_line(self, tmp_path, header, message):
        # a file error (exit 1), not a model invariant: the file and line are named
        path = tmp_path / "data.txt"
        path.write_text(f"# a comment\n{header}\nA\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}:2: {message}") + "$") \
                as err:
            read_sequence(path)
        assert not isinstance(err.value, ModelInvariantError)

    def test_unreadable_files_name_the_path(self, tmp_path, space3):
        # a missing or non-UTF-8 file reads "path: <reason>", as a JSON file does
        path = tmp_path / "data.txt"
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}: ")):
            read_sequence(path, space3)
        path.write_bytes(b"# alphabet: A B C\nA \xff\n")
        with pytest.raises(ParseError, match="^" + re.escape(f"{path}: ") + ".*utf-8"):
            read_sequence(path, space3)

    def test_headerless_needs_space(self, tmp_path, space3):
        path = tmp_path / "data.txt"
        path.write_text("A B C\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}:1: data before")):
            read_sequence(path)
        assert read_sequence(path, space3).tokens() == ("A", "B", "C")
        path.write_text("")
        with pytest.raises(ParseError, match=re.escape(f"{path}: no alphabet header")):
            read_sequence(path)


def test_mixture_weights_renormalize():
    w = mixture_weights(3)
    assert sum(w) == 1
    assert w[0] == 2 * w[1] == 4 * w[2]
