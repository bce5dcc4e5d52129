import contextlib
import hashlib
import importlib.util
import io
import json
import re
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from agcodes import bounds, codes, kernels
from agcodes.cli import (
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    main,
)
from agcodes.curves import build_curve
from agcodes.errors import PreconditionError
from agcodes.field import make_field
from conftest import table_section


def _exit_code(argv) -> int:
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_run(tmp_path, monkeypatch):
    # every command of the README's "Command line" block, in order, from an
    # empty working directory: later lines read what earlier ones wrote
    block = README.read_text().split("## Command line", 1)[1].split("```", 2)[1]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("agcodes ")]
    assert len(lines) == 12
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == EXIT_OK, " ".join(argv)


def test_goppa_build_and_verify(tmp_path):
    out = tmp_path / "g"
    rc = main(["goppa", "build", "--q", "5", "--divisor", "inf:2", "--out", str(out)])
    assert rc == EXIT_OK
    code_file = out / "goppa_code.txt"
    assert code_file.exists() and (out / "manifest.json").exists()
    assert main(["verify", "distance", "--code", str(code_file)]) == EXIT_OK


def test_build_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    argv = ["xing", "build", "--q", "2", "--divisor", "1,1,0,1:1;1,1,1:-1",
            "--m", "1", "--radii", "1", "--strategy", "random", "--seed", "11",
            "--trials", "12"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert (a / "xing_code.txt").read_bytes() == (b / "xing_code.txt").read_bytes()


def test_replay_manifest_byte_identical(tmp_path):
    out = tmp_path / "build"
    argv = ["combined", "build", "--q", "4", "--h", "2", "--s0", "1", "--d0", "2",
            "--strategy", "exhaustive", "--out", str(out)]
    assert main(argv) == EXIT_OK
    replay_out = tmp_path / "replay"
    rc = main(["replay", "manifest", str(out / "manifest.json"), "--out", str(replay_out)])
    assert rc == EXIT_OK
    assert (out / "combined_code.txt").read_bytes() == (replay_out / "combined_code.txt").read_bytes()


def test_replay_detects_divergence(tmp_path):
    out = tmp_path / "build"
    argv = ["goppa", "build", "--q", "5", "--divisor", "inf:2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    doc = json.loads((out / "manifest.json").read_text())
    doc["artifact_sha256"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(doc))
    rc = main(["replay", "manifest", str(out / "manifest.json"),
               "--out", str(tmp_path / "r")])
    assert rc == EXIT_VERIFICATION


@pytest.mark.parametrize("command", ["replay manifest {path}", "verify distance --code x"])
def test_replay_refuses_commands_that_write_no_manifest(tmp_path, capsys, command):
    # a manifest naming itself used to recurse until RecursionError
    path = tmp_path / "manifest.json"
    doc = {"command": command.format(path=path), "params": {},
           "artifact": "manifest.json", "artifact_sha256": "0" * 64}
    path.write_text(json.dumps(doc))
    rc = main(["replay", "manifest", str(path), "--out", str(tmp_path / "r")])
    assert rc == EXIT_PRECONDITION
    assert repr(doc["command"]) in capsys.readouterr().err


def test_verify_distance_catches_false_claim(tmp_path):
    out = tmp_path / "g"
    assert main(["goppa", "build", "--q", "5", "--divisor", "inf:2", "--out", str(out)]) == EXIT_OK
    text = (out / "goppa_code.txt").read_text()
    tampered = text.replace("claimed_distance: 3", "claimed_distance: 4")
    bad = tmp_path / "bad.txt"
    bad.write_text(tampered)
    assert main(["verify", "distance", "--code", str(bad)]) == EXIT_VERIFICATION


def test_verify_distance_names_witness_pair(tmp_path, capsys):
    # words 1 and 2 differ in one position; the claim of 2 is too high
    bad = tmp_path / "hand.txt"
    bad.write_text(
        "agcodes-code v1\nalphabet: field\nq: 3\nlength: 4\n"
        "claimed_distance: 2\nmeasured_distance: none\nwords: 4\n"
        "0,0,0,0\n0,1,1,1\n0,1,2,1\n2,2,0,2\n"
    )
    assert main(["verify", "distance", "--code", str(bad)]) == EXIT_VERIFICATION
    out = capsys.readouterr().out
    measured = int(re.search(r"measured=(\d+)", out)[1])
    witnesses = re.findall(r"witness word (\d+): ([\d,]+)", out)
    assert measured == 1 and [int(k) for k, _ in witnesses] == [1, 2]
    (_, a), (_, b) = witnesses
    assert sum(x != y for x, y in zip(a.split(","), b.split(","))) == measured


@pytest.mark.parametrize("argv", [
    ["goppa", "build", "--q", "5", "--divisor", "inf:2", "--points", "0,0,1,2,3"],
    ["xing", "build", "--q", "2", "--divisor", "1,1,0,1:1;1,1,1:-1", "--m", "1",
     "--radii", "1", "--points", "0,1,1"],
    ["combined", "build", "--q", "3", "--h", "1", "--s0", "1", "--d0", "2",
     "--points", "0,1,2,2"],
])
def test_repeated_points_exit_precondition(tmp_path, argv):
    out = tmp_path / "r"
    assert main(argv + ["--out", str(out)]) == EXIT_PRECONDITION
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["goppa", "build", "--q", "5", "--divisor", "inf:2"],
    ["xing", "build", "--q", "2", "--divisor", "1,1,0,1:1;1,1,1:-1", "--m", "1", "--radii", "1"],
    ["combined", "build", "--q", "3", "--h", "1", "--s0", "1", "--d0", "2"],
])
def test_empty_point_list_exits_precondition(tmp_path, capsys, argv):
    out = tmp_path / "r"
    assert main(argv + ["--points", ",", "--out", str(out)]) == EXIT_PRECONDITION
    assert "need at least one evaluation point" in capsys.readouterr().err
    assert not out.exists()


_SMALL_EXHAUSTIVE_BUILDS = {
    "xing": ["xing", "build", "--q", "3", "--divisor", "inf:1", "--m", "1", "--radii", "0"],
    "combined": ["combined", "build", "--q", "3", "--h", "1", "--s0", "0", "--d0", "2"],
}


@pytest.mark.parametrize("kind", sorted(_SMALL_EXHAUSTIVE_BUILDS))
def test_builders_recount_the_survivors(tmp_path, capsys, monkeypatch, kind):
    # a search whose count is one above what its center keeps: the xing
    # build counts coset representatives, the combined build ball points
    if kind == "xing":
        real = kernels.CosetSpace.count
        monkeypatch.setattr(kernels.CosetSpace, "count",
                            lambda self: (real(self)[0], real(self)[1] + 1))
    else:
        real = kernels._histogram_search
        monkeypatch.setattr(kernels, "_histogram_search",
                            lambda *args: (real(*args)[0] + 1, real(*args)[1]))
    out = tmp_path / "b"
    assert main(_SMALL_EXHAUSTIVE_BUILDS[kind] + ["--out", str(out)]) == EXIT_VERIFICATION
    err = capsys.readouterr().err
    assert re.search(r"(\d+) words lie within the radii of center [\d,|]+, "
                     r"but the exhaustive search counted (\d+)", err)
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(_SMALL_EXHAUSTIVE_BUILDS))
def test_maximum_below_average_names_the_center(tmp_path, capsys, monkeypatch, kind):
    # a search that returns the least center keeping no word; the exact
    # average of both instances is below 1, so its ceiling is 1
    found = {}

    def least_empty_center(word_arrays, radii, q):
        n = word_arrays[0].shape[1]
        total = len(word_arrays) * n
        for index in range(q ** total):
            digits = np.unravel_index(index, (q,) * total)
            if not kernels._survivor_mask(word_arrays, radii, digits, n).any():
                found["center"] = ",".join(str(int(d)) for d in digits)
                return index, digits

    def empty_center(word_arrays, radii, q):
        return 0, least_empty_center(word_arrays, radii, q)[0]

    def empty_coset(space):
        # the span's words from the basis, and the empty center as the one
        # counted representative, with no ball vector in its coset
        k, total = space.basis.shape
        digits = np.indices((space.q,) * k).reshape(k, -1).T
        words = kernels._combine(space.add, space.mul, space.basis, digits)
        arrays = [words[:, r : r + space.n] for r in range(0, total, space.n)]
        center = least_empty_center(arrays, space.radii, space.q)[1]
        return kernels.row_keys(np.array([center], dtype=np.uint8)), np.zeros(1, dtype=np.int64)

    if kind == "xing":
        monkeypatch.setattr(kernels.CosetSpace, "count", empty_coset)
    else:
        monkeypatch.setattr(kernels, "_histogram_search", empty_center)
    out = tmp_path / "b"
    assert main(_SMALL_EXHAUSTIVE_BUILDS[kind] + ["--out", str(out)]) == EXIT_VERIFICATION
    err = capsys.readouterr().err
    assert (f"exhaustive maximum fell below the exact average: center {found['center']} "
            "keeps 0 words, ceil(average) = 1") in err
    assert not out.exists()


def test_verify_averaging_both_kinds():
    assert main(["verify", "averaging", "--kind", "xing", "--q", "2",
                 "--divisor", "1,1,0,1:1;1,1,1:-1", "--m", "1", "--radii", "1"]) == EXIT_OK
    assert main(["verify", "averaging", "--kind", "combined", "--q", "2",
                 "--h", "1", "--s0", "1"]) == EXIT_OK


def test_precondition_exit_code(tmp_path):
    rc = main(["goppa", "build", "--q", "5", "--divisor", "inf:7",
               "--out", str(tmp_path / "x")])
    assert rc == EXIT_PRECONDITION


def test_goppa_build_on_a_sextic_place_over_gf16(tmp_path, capsys):
    # an irreducible sextic: checked on the irreducibles of degree <= 3,
    # although a sieve of degree 6 over GF(16) is past the size cap
    argv = ["goppa", "build", "--q", "16", "--divisor", "14,0,10,2,9,11,1:1;inf:-6",
            "--out", str(tmp_path / "s")]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    for line in ("n: 16", "dim: 1", "claimed_distance: 16", "measured_distance: 16"):
        assert f"  {line}\n" in printed


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["goppa", "demolish"])
    assert exc.value.code == 2


def test_bounds_table_matches_library(tmp_path):
    out = tmp_path / "b"
    assert main(["bounds", "table", "--q", "49", "--grid", "99", "--out", str(out)]) == EXIT_OK
    assert (out / "frontier_q49.csv").read_text() == bounds.frontier_csv(49, 99)


def test_bounds_crossing_runs(capsys):
    assert main(["bounds", "crossing", "--q", "25"]) == EXIT_OK
    assert "crossing=false" in capsys.readouterr().out


@pytest.mark.parametrize("line", [
    "q=4 crossing=false peak=0.403677461 at delta=0.428571429",
    "q=25 crossing=false peak=0.209061955 at delta=0.489795918",
    "q=49 crossing=true peak=0.175468194 at delta=0.494845361",
    "q=81 crossing=true peak=0.156323395 at delta=0.496894410",
])
def test_bounds_crossing_output_pinned(line, capsys):
    q = line.split()[0].removeprefix("q=")
    assert main(["bounds", "crossing", "--q", q]) == EXIT_OK
    assert capsys.readouterr().out == line + "\n"


@pytest.mark.parametrize("q", ["0", "1", "2", "8"])
def test_bounds_crossing_non_square_exits_precondition(q, capsys):
    assert main(["bounds", "crossing", "--q", q]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("precondition violated: ")


def test_bounds_negative_q_exits_precondition(tmp_path, capsys):
    # a negative q is no square alphabet size, and math.isqrt must not see it
    for argv in (["crossing"], ["table", "--out", str(tmp_path / "o")]):
        assert main(["bounds", *argv, "--q", "-4"]) == EXIT_PRECONDITION
        assert capsys.readouterr().err.startswith("precondition violated: ")
    assert not (tmp_path / "o").exists()


def test_field_selftest():
    assert main(["field", "selftest", "--q", "4", "--q", "9"]) == EXIT_OK


class _FieldWithWrongOp:
    """A field whose named operations are replaced by the given functions."""

    def __init__(self, field, **ops):
        self._field, self._ops = field, ops

    def __getattr__(self, name):
        return self._ops.get(name) or getattr(self._field, name)


def test_field_selftest_names_failing_triple(monkeypatch, capsys):
    import agcodes.cli as cli

    real = cli.make_field_q

    def wrong(q):
        F = real(q)
        return _FieldWithWrongOp(F, mul=lambda a, b: 0 if a == b else F.mul(a, b))

    monkeypatch.setattr(cli, "make_field_q", wrong)
    assert main(["field", "selftest", "--q", "4"]) == EXIT_VERIFICATION
    out = capsys.readouterr().out
    m = re.fullmatch(r"distributivity failed in GF\(4\) at \(a, b, c\) = \((\d), (\d), (\d)\)\n", out)
    assert m
    a, b, c = map(int, m.groups())
    F = wrong(4)
    assert F.add(F.mul(a, b), F.mul(a, c)) != F.mul(a, F.add(b, c))


def test_field_selftest_names_failing_element(monkeypatch, capsys):
    import agcodes.cli as cli

    real = cli.make_field_q

    def wrong(q):
        F = real(q)
        return _FieldWithWrongOp(F, pow=lambda a, e: 0 if a == 2 else F.pow(a, e))

    monkeypatch.setattr(cli, "make_field_q", wrong)
    assert main(["field", "selftest", "--q", "4"]) == EXIT_VERIFICATION
    assert capsys.readouterr().out == "Frobenius fixed-point failed in GF(4) at a = 2\n"


@pytest.mark.parametrize("key,message", [("m", "multiplicity total"), ("mu", "pole-count identity failed")])
def test_sections_proposition_names_witness(monkeypatch, capsys, key, message):
    import agcodes.cli as cli

    real = cli.multiplicity_census
    seen = []

    def wrong_census(sections, pairs):
        census = real(sections, pairs)
        getattr(census, key)[0] += 1  # the first place of the block's first pair
        seen.append((table_section(sections, pairs[0][0]), table_section(sections, pairs[0][1]),
                     np.sum(census.pair == 0)))
        return census

    monkeypatch.setattr(cli, "multiplicity_census", wrong_census)
    argv = ["sections", "proposition", "--q", "3", "--pairs", "5", "--seed", "1"]
    assert main(argv) == EXIT_VERIFICATION
    out = capsys.readouterr().out
    (a, b, n_rows), = seen
    assert out.startswith(message)
    assert f"witness section a: {a.f.serialize()} height {a.height}\n" in out
    assert f"witness section b: {b.f.serialize()} height {b.height}\n" in out
    assert sum(line.startswith("census ") for line in out.splitlines()) == n_rows


def test_sections_proposition_names_the_first_failing_pair_in_draw_order(monkeypatch, capsys):
    # two pairs of one block fail: the later one the first identity, the
    # earlier one only the second, and the earlier one is named
    import random

    import agcodes.cli as cli

    real = cli.multiplicity_census
    blocks = []

    def wrong_census(sections, pairs):
        census = real(sections, pairs)
        census.m[np.flatnonzero(census.pair == 3)[0]] += 1
        census.mu[np.flatnonzero(census.pair == 1)[-1]] += 1
        blocks.append((sections, pairs))
        return census

    monkeypatch.setattr(cli, "multiplicity_census", wrong_census)
    argv = ["sections", "proposition", "--q", "3", "--pairs", "5", "--seed", "1"]
    assert main(argv) == EXIT_VERIFICATION
    (sections, pairs), = blocks
    rng, drawn = random.Random(1), []
    while len(drawn) < 5:
        i, j = rng.randrange(len(sections)), rng.randrange(len(sections))
        if i != j:
            drawn.append((i, j))
    assert pairs == drawn
    a, b = table_section(sections, pairs[1][0]), table_section(sections, pairs[1][1])
    rows = real(sections, pairs[1:2]).rows(0)
    assert capsys.readouterr().out.splitlines() == [
        "pole-count identity failed",
        f"witness section a: {a.f.serialize()} height {a.height}",
        f"witness section b: {b.f.serialize()} height {b.height}",
        *(f"census {r['place'].serialize()}: m={r['m']} mu={r['mu'] + (r is rows[-1])} "
          f"mu2={r['mu2']} v_diff={r['v_diff']}" for r in rows),
    ]


@pytest.mark.parametrize("argv,out", [
    (["--q", "3", "--pairs", "0"], "proposition verified on 0 pairs (q=3, h<= 3 each)"),
    (["--q", "257", "--h-max", "0"], "proposition verified on 50 pairs (q=257, h<= 0 each)"),
    # GF(1031) has no lookup tables; its height-0 sections are constants
    (["--q", "1031", "--h-max", "0"], "proposition verified on 50 pairs (q=1031, h<= 0 each)"),
])
def test_sections_proposition_edge_cases(capsys, argv, out):
    assert main(["sections", "proposition", *argv]) == EXIT_OK
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize("cells", [1, 10000, 1 << 22])
def test_sections_proposition_is_independent_of_the_block_size(monkeypatch, capsys, cells):
    # a pair costs 40 * 9^2 = 3240 cells here, so 1 cell gives blocks of one
    # pair and 10000 of three; the lines match those of the default block,
    # passing and failing (first at pair 5, then 8, 9 and 10) alike
    import agcodes.cli as cli

    argv = ["sections", "proposition", "--q", "3", "--h-max", "4", "--pairs", "12",
            "--divisor", "1,0,1:1;inf:-2", "--seed", "3"]
    real = cli.multiplicity_census

    def wrong_census(sections, pairs):
        census = real(sections, pairs)
        census.m[np.isin(census.pair, [k for k, p in enumerate(pairs) if sum(p) % 3 == 0])] += 1
        return census

    outputs = []
    for size in (kernels._CHUNK_CELLS, cells):
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", size)
        assert main(argv) == EXIT_OK
        monkeypatch.setattr(cli, "multiplicity_census", wrong_census)
        assert main(argv) == EXIT_VERIFICATION
        monkeypatch.setattr(cli, "multiplicity_census", real)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_curve_info(capsys):
    assert main(["curve", "info", "--q", "4", "--curve", "hermitian"]) == EXIT_OK
    info = json.loads(capsys.readouterr().out)
    assert info["n_points"] == 9 and info["genus"] == 1
    assert info["reference_ratio"] == 1


def test_xing_hermitian_gf9_inf10_builds_past_the_span_cap(tmp_path, capsys):
    # a cap-lift pin, not a distance check: 9^8 functions on 27 points, a
    # span of 1.2e9 symbols past the span cap, but a ball product of 217
    # vectors. The order-0 code has distance at least 27 - 10 = 17, so no two
    # ball vectors share a coset, and the best center keeps one function: a
    # one-word code, with no pair to measure against the floor of 40.
    out = tmp_path / "h"
    argv = ["xing", "build", "--q", "9", "--curve", "hermitian", "--divisor", "inf:10",
            "--m", "1", "--radii", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    for line in ("functions: 43046721", "survivors: 1", "claimed_distance: 40",
                 "measured_distance: None"):
        assert f"  {line}\n" in printed
    assert hashlib.sha256((out / "xing_code.txt").read_bytes()).hexdigest() == (
        "03774295668027c5a5961ca851d4dc21bf7547457c88a6203f3a8539e7d99128"
    )


@pytest.mark.parametrize("strategy", ["exhaustive", "random", "greedy"])
def test_xing_refuses_a_ball_product_past_its_cap(tmp_path, monkeypatch, strategy):
    # m = 2 on 27 points at radii (1, 2): 217 * 22681 ball vectors of 54
    # symbols are past the coset search's cap, and the 9^8-word span past the
    # span cap, so the build is refused before either is formed
    def refuse(*args):
        raise AssertionError("a ball was built")

    monkeypatch.setattr(kernels, "_ball_offsets", refuse)
    out = tmp_path / "h"
    argv = ["xing", "build", "--q", "9", "--curve", "hermitian", "--divisor", "inf:10",
            "--m", "2", "--radii", "1,2", "--strategy", strategy, "--out", str(out)]
    assert main(argv) == EXIT_PRECONDITION
    assert not out.exists()


@pytest.mark.parametrize("divisor", ["inf:4", "inf:5"])
def test_xing_refuses_an_exhaustive_center_space_past_the_coset_cap(
        tmp_path, capsys, monkeypatch, divisor):
    # radius 4 on the 16 affine points of GF(16) is past the coset search's
    # cap, and the word scan's 16^16 centers past the exhaustive center cap:
    # the build is refused before the span of 16^4 or 16^5 words is formed
    def refuse(*args):
        raise AssertionError("a span was formed")

    monkeypatch.setattr(kernels, "linear_span_words", refuse)
    out = tmp_path / "x"
    argv = ["xing", "build", "--q", "16", "--divisor", divisor, "--m", "1", "--radii", "4",
            "--out", str(out)]
    assert main(argv) == EXIT_PRECONDITION
    assert f"exhaustive center space {16 ** 16} exceeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["random", "greedy"])
def test_xing_scans_the_span_past_the_coset_cap(tmp_path, monkeypatch, strategy):
    # radius 4 on the 16 affine points of GF(16): about 1.5e9 ball-product
    # symbols are past the coset search's cap, so the search scans the
    # 256-word span of L(P_inf) instead, and builds no ball
    assert kernels.ball_product_cells(16, (4,), 16) > kernels.SPAN_CELL_CAP
    real, spans = kernels.linear_span_words, []

    def span(*args):
        spans.append(real(*args))
        return spans[-1]

    def refuse(*args):
        raise AssertionError("a ball was built")

    monkeypatch.setattr(kernels, "linear_span_words", span)
    monkeypatch.setattr(kernels, "_ball_offsets", refuse)
    argv = ["xing", "build", "--q", "16", "--divisor", "inf:1", "--m", "1", "--radii", "4",
            "--strategy", strategy, "--out", str(tmp_path / "x")]
    assert main(argv) == EXIT_OK
    assert [s.shape for s in spans] == [(256, 16)]


def test_goppa_hermitian_constant_code_pinned(tmp_path, capsys):
    # L(0) is the constants, the only path that evaluates Hermitian
    # functions at P_inf: the repetition code of length 9 over GF(4)
    out = tmp_path / "h"
    argv = ["goppa", "build", "--q", "4", "--curve", "hermitian", "--divisor", "0", "--out", str(out)]
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert "  n: 9\n" in printed and "  words: 4\n" in printed
    assert "  measured_distance: 9\n" in printed
    artifact = (out / "goppa_code.txt").read_bytes()
    assert hashlib.sha256(artifact).hexdigest() == (
        "ab97a848d990b4ff709f9e005f3285ce766866ad8f96a2c4682d93aea4b96561"
    )
    assert artifact.decode().endswith("words: 4\n" + "".join(",".join([str(c)] * 9) + "\n"
                                                             for c in range(4)))


def test_sections_enumerate(tmp_path):
    out = tmp_path / "s"
    assert main(["sections", "enumerate", "--q", "2", "--h", "1", "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["results"]["count"] == 8


def test_sections_proposition():
    assert main(["sections", "proposition", "--q", "3", "--pairs", "10",
                 "--seed", "1"]) == EXIT_OK


def test_points_index_selection(tmp_path):
    out = tmp_path / "p"
    rc = main(["goppa", "build", "--q", "5", "--divisor", "inf:2",
               "--points", "0,1,2,4", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["results"]["n"] == 4


@pytest.mark.parametrize("points,index", [("0,1,99", "99"), ("0,1,-1", "-1")])
def test_points_index_out_of_range(tmp_path, capsys, points, index):
    out = tmp_path / "p"
    rc = main(["goppa", "build", "--q", "5", "--divisor", "inf:2",
               "--points", points, "--out", str(out)])
    assert rc == EXIT_PRECONDITION
    assert f"point index {index} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case,expected", [
    ("divisor-syntax", EXIT_USAGE),
    ("empty-manifest", EXIT_PRECONDITION),
    ("missing-code-file", EXIT_PRECONDITION),
    ("negative-trials", EXIT_USAGE),
    ("reducible-place-enumerate", EXIT_PRECONDITION),
    ("reducible-place-goppa", EXIT_PRECONDITION),
    ("reducible-place-proposition", EXIT_PRECONDITION),
    ("empty-basis-xing-build", EXIT_PRECONDITION),
    ("empty-basis-averaging", EXIT_PRECONDITION),
    ("negative-pairs", EXIT_USAGE),
])
def test_bad_inputs_exit_with_documented_code(tmp_path, capsys, case, expected):
    out = str(tmp_path / "out")
    empty = tmp_path / "manifest.json"
    empty.write_text("{}")
    argv = {
        "divisor-syntax": ["goppa", "build", "--q", "5", "--divisor", "abc", "--out", out],
        "empty-manifest": ["replay", "manifest", str(empty), "--out", out],
        "missing-code-file": ["verify", "distance", "--code", str(tmp_path / "missing.txt")],
        "negative-trials": ["combined", "build", "--q", "3", "--h", "1", "--s0", "1",
                            "--d0", "2", "--strategy", "random", "--trials", "-5",
                            "--out", out],
        # x^2 + 1 = (x - 2)(x - 3) over GF(5), x^2 + x + 1 = (x - 1)^2 over GF(3)
        "reducible-place-proposition": ["sections", "proposition", "--q", "5", "--h-max", "2",
                                        "--divisor", "1,0,1:1;inf:-2", "--pairs", "20"],
        "reducible-place-enumerate": ["sections", "enumerate", "--q", "3", "--h", "1",
                                      "--divisor", "1,1,1:1;inf:-2", "--out", out],
        "reducible-place-goppa": ["goppa", "build", "--q", "3", "--divisor", "1,1,1:1",
                                  "--out", out],
        "empty-basis-xing-build": ["xing", "build", "--q", "3", "--divisor", "inf:-1", "--m", "1",
                                   "--radii", "0", "--out", out],
        "empty-basis-averaging": ["verify", "averaging", "--kind", "xing", "--q", "3",
                                  "--divisor", "inf:-1", "--radii", "0"],
        "negative-pairs": ["sections", "proposition", "--q", "3", "--pairs", "-1"],
    }[case]
    assert _exit_code(argv) == expected
    err = capsys.readouterr().err
    assert err and "Traceback" not in err


def test_parser_is_built_once_and_keeps_no_state(capsys):
    from agcodes import cli

    assert cli._parser() is cli._parser()
    for _ in range(2):
        assert main(["field", "selftest", "--q", "2", "--q", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["GF(2)", "GF(3)"]
        assert main(["curve", "info", "--q", "4", "--curve", "hermitian"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["n_points"] == 9
        assert main(["curve", "info", "--q", "4"]) == EXIT_OK  # default curve again
        assert json.loads(capsys.readouterr().out)["n_points"] == 5
        assert main(["field", "selftest"]) == EXIT_OK  # default field list again
        assert len(capsys.readouterr().out.splitlines()) == 9


_GOOD_HEADER = ("agcodes-code v1\nalphabet: field\nq: 3\np: 3\nalpha: 1\nmodulus: 0,1\n"
                "length: 3\nclaimed_distance: 2\nmeasured_distance: none\n")


# malformed code files, by id; every one exits 3 from verify distance
_MALFORMED = {
    "count-not-int": _GOOD_HEADER + "words: x\n0,0,0\n",
    "count-above-lines": _GOOD_HEADER + "words: 3\n0,0,0\n1,1,1\n",
    "missing-length": _GOOD_HEADER.replace("length: 3\n", "") + "words: 1\n0,0,0\n",
    "header-no-separator": _GOOD_HEADER.replace("q: 3\n", "q 3\n") + "words: 1\n0,0,0\n",
    "symbol-not-int": _GOOD_HEADER + "words: 2\n0,0,0\n1,x,1\n",
    "row-short": _GOOD_HEADER + "words: 2\n0,0,0\n1,1\n",
    "row-long": _GOOD_HEADER + "words: 2\n0,0,0\n1,1,1,1\n",
    "rows-compensate": _GOOD_HEADER + "words: 2\n0,0,0,0\n1,1\n",
    "symbol-fraction": _GOOD_HEADER + "words: 2\n0,0,0\n1,1.5,1\n",
    "symbol-empty": _GOOD_HEADER + "words: 2\n0,0,0\n1,1,\n",
    "symbol-huge": _GOOD_HEADER + "words: 2\n0,0,0\n1,99999999999999999999,1\n",
    "symbol-oversize": _GOOD_HEADER + "words: 2\n0,0,0\n1,3,1\n",
    "symbol-negative": _GOOD_HEADER + "words: 2\n0,0,0\n1,-1,1\n",
    "missing-alphabet": _GOOD_HEADER.replace("alphabet: field\n", "") + "words: 1\n0,0,0\n",
    "missing-q": _GOOD_HEADER.replace("q: 3\n", "") + "words: 1\n0,0,0\n",
    "p-not-prime": _GOOD_HEADER.replace("p: 3\n", "p: 4\n") + "words: 1\n0,0,0\n",
    "alpha-not-int": _GOOD_HEADER.replace("alpha: 1\n", "alpha: one\n") + "words: 1\n0,0,0\n",
    "q-not-field-order": _GOOD_HEADER.replace("q: 3\n", "q: 5\n") + "words: 1\n0,0,0\n",
    "claim-not-int": (_GOOD_HEADER.replace("claimed_distance: 2", "claimed_distance: two")
                      + "words: 1\n0,0,0\n"),
    "length-negative": _GOOD_HEADER.replace("length: 3", "length: -1") + "words: 0\n",
    "count-negative": _GOOD_HEADER + "words: -1\n",
    # a repeated line would make a code of fewer words than the file lists
    "rows-repeated": _GOOD_HEADER + "words: 2\n1,1,1\n1,1,1\n",
    "rows-beyond-count": _GOOD_HEADER + "words: 2\n0,0,0\n1,1,1\n2,2,2\n",
    "symbol-space": _GOOD_HEADER + "words: 2\n0,0,0\n1, 1,1\n",
    "symbol-plus": _GOOD_HEADER + "words: 2\n0,0,0\n1,+1,1\n",
    "row-crlf": _GOOD_HEADER + "words: 2\n0,0,0\r\n1,1,1\r\n",
}


@pytest.mark.parametrize("text", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_code_file_exits_precondition(tmp_path, capsys, text):
    path = tmp_path / "code.txt"
    path.write_text(text)
    assert _exit_code(["verify", "distance", "--code", str(path)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition violated: ") and "Traceback" not in err


def test_well_formed_hand_written_code_file_verifies(tmp_path):
    # the control for the malformed cases above: the same header is accepted
    path = tmp_path / "code.txt"
    path.write_text(_GOOD_HEADER + "words: 2\n0,0,0\n1,1,1\n")
    assert main(["verify", "distance", "--code", str(path)]) == EXIT_OK


def _read(text):
    """The words code_from_text reads from a text, or its error message."""
    try:
        return codes.code_from_text(text).words.tolist()
    except PreconditionError as err:
        return str(err)


def test_code_file_reader_does_not_depend_on_its_block_size(monkeypatch):
    # a 729-word file (two ~32 KiB blocks) with a defect on one of its lines,
    # read block-wise and one line at a time: the same words, or the same
    # error naming the same line
    curve = build_curve("hermitian", make_field(3, 2))
    code = codes.build_goppa(curve, curve.one_point_divisor(5))
    text = codes.code_to_text(code)
    head, _, block = text.partition("\nwords: 729\n")
    lines = block.splitlines()
    cases = {text: code.words.tolist(), text.rstrip("\n"): code.words.tolist(),
             _GOOD_HEADER + "words: 2\n00,0,0\n1,01,001\n": [[0, 0, 0], [1, 1, 1]],
             _GOOD_HEADER + "words: 2\n1,1,1\n0,0,0\n": [[0, 0, 0], [1, 1, 1]],
             text + "\n": "word count 729 does not match the 730 word lines"}
    for row in (0, 400, 728):
        at = f"word line {row + 1}: "
        for bad, error in (("x" + lines[row][1:], at + "word symbols must be decimal digits"),
                           (":" + lines[row][1:], at + "word symbols must be decimal digits"),
                           (" " + lines[row], at + "word symbols must be decimal digits"),
                           (lines[row] + "\r", at + "word symbols must be decimal digits"),
                           (lines[row] + ",1", at + "word length mismatch"),
                           (lines[row][2:], at + "word length mismatch"),
                           ("0" * 10 + lines[row], at + "word symbols must have 1 to 9 digits"),
                           (lines[row - 1], "729 word lines hold only 728 distinct words")):
            body = "\n".join(lines[:row] + [bad] + lines[row + 1 :])
            cases[f"{head}\nwords: 729\n{body}\n"] = error
    texts = list(_MALFORMED.values()) + list(cases)
    default = [_read(t) for t in texts]
    assert default[len(_MALFORMED) :] == list(cases.values())
    assert all(isinstance(error, str) for error in default[: len(_MALFORMED)])
    monkeypatch.setattr(codes, "_READ_BLOCK_BYTES", 1)
    assert [_read(t) for t in texts] == default


def test_verify_workload_goppa_artifacts_round_trip(tmp_path, monkeypatch):
    # the verify benchmark's eight Goppa set-up builds at seed 1, through the
    # CLI: each artifact reads back and writes the same bytes, and verifies
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    setup = workloads.generate("verify", 1).setup
    assert len(setup) == 8 and all(op.kind == "goppa build" for op in setup)
    for op in setup:
        argv = op.resolve(str(tmp_path), str(tmp_path / "unused"))
        assert main(argv) == EXIT_OK
        artifact = Path(argv[argv.index("--out") + 1]) / "goppa_code.txt"
        text = artifact.read_text()
        assert codes.code_to_text(codes.code_from_text(text)) == text
        assert main(["verify", "distance", "--code", str(artifact)]) == EXIT_OK


# ---------------------------------------------------------------------------
# argv fuzz: every subcommand with valid and invalid option values, missing
# options and stray tokens. Heights, radii, grids and m stay small and q
# stays at most 5, so no example starts a long scan.

# each option's (valid, invalid) values; a valid value parses and is in range
_Q = (["2", "3", "4", "5"], ["0", "1", "6", "-3", "x"])
_DIVISOR = (["0", "inf:1", "inf:2", "inf:4", "inf:-1", "1,1,1:1", "1,0,1:1;inf:-2",
             "1,1,0,1:1;1,1,1:-1"], ["abc", "inf:", ""])
_SMALL = (["0", "1", "2"], ["-1", "x"])
_RADII = (["0", "1", "2", "1,1", "0,1"], ["-1", "x", ""])
_STRATEGY = (["exhaustive", "random", "greedy"], ["best"])
_CURVE = (["p1", "hermitian"], ["line"])
_POINTS = (["0,1,2,3"], ["0,0,1", "0,99", "x", ""])
_SEED = (["0", "3"], ["x"])
_COUNT = (["0", "4"], ["-1"])
_FUZZ = {
    "field selftest": {"--q": _Q, "--seed": _SEED},
    "curve info": {"--q": _Q, "--curve": _CURVE},
    "goppa build": {"--q": _Q, "--curve": _CURVE, "--divisor": _DIVISOR, "--points": _POINTS},
    "xing build": {"--q": _Q, "--curve": _CURVE, "--divisor": _DIVISOR, "--m": _SMALL,
                   "--radii": _RADII, "--strategy": _STRATEGY, "--seed": _SEED,
                   "--trials": _COUNT, "--points": _POINTS},
    "sections enumerate": {"--q": _Q, "--divisor": _DIVISOR, "--h": _SMALL},
    "sections proposition": {"--q": _Q, "--divisor": _DIVISOR, "--h-max": _SMALL,
                             "--pairs": _COUNT, "--seed": _SEED},
    "combined build": {"--q": _Q, "--divisor": _DIVISOR, "--h": _SMALL, "--s0": _SMALL,
                       "--d0": _SMALL, "--strategy": _STRATEGY, "--seed": _SEED,
                       "--trials": _COUNT, "--points": _POINTS},
    "bounds table": {"--q": (["4", "9", "2"], ["0", "-4", "x"]), "--grid": (["3", "10"], ["0", "-1"]),
                     "--m": _SMALL},
    "bounds crossing": {"--q": (["4", "9", "25", "2"], ["0", "-4", "x"])},
    "verify distance": {"--code": (["{code}", "{tampered}"], ["{garbage}", "{missing}", "{dir}"])},
    "verify averaging": {"--kind": (["xing", "combined"], ["goppa"]), "--q": _Q,
                         "--divisor": _DIVISOR, "--m": (["0", "1"], ["-1", "x"]),
                         "--radii": _RADII, "--h": _SMALL, "--s0": _SMALL},
    "replay manifest": {"": (["{manifest}", "{diverged}"], ["{garbage}", "{empty}", "{missing}"])},
}
# options present in every example, so that a default never sets the size
_ALWAYS = {"sections proposition": ("--h-max",), "bounds table": ("--grid",)}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Paths the fuzzed argv may name: good and bad code files and manifests."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["goppa", "build", "--q", "3", "--divisor", "inf:1",
                 "--out", str(root / "g")]) == EXIT_OK
    code = (root / "g" / "goppa_code.txt").read_text()
    doc = json.loads((root / "g" / "manifest.json").read_text())
    files = {
        "tampered": code.replace("claimed_distance: 2", "claimed_distance: 3"),
        "garbage": "not a code file\n",
        "empty": "{}",
        "diverged": json.dumps(dict(doc, artifact_sha256="0" * 64)),
    }
    for name, text in files.items():
        (root / name).write_text(text)
    paths = {name: str(root / name) for name in files}
    paths.update(code=str(root / "g" / "goppa_code.txt"), dir=str(root), out=str(root / "out"),
                 manifest=str(root / "g" / "manifest.json"), missing=str(root / "nothing"))
    return paths


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ)))
    options = _FUZZ[command]
    argv = command.split()
    for option in sorted(options):
        if option in _ALWAYS.get(command, ()) or draw(st.integers(0, 5)):
            valid, invalid = options[option]
            value = draw(st.sampled_from(valid if draw(st.integers(0, 4)) else invalid))
            argv += ([option] if option else []) + [value]
    if draw(st.integers(0, 9)) == 0:
        stray = draw(st.sampled_from(["--bogus", "extra", "--q", "", "-h"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


@settings(max_examples=150, deadline=None)
@given(_fuzz_argv())
# one run that succeeds per subcommand, so the fuzz starts from working argv
@example(["goppa", "build", "--q", "4", "--curve", "hermitian", "--divisor", "inf:4"])
@example(["xing", "build", "--q", "2", "--divisor", "1,1,0,1:1;1,1,1:-1", "--m", "1",
          "--radii", "1", "--strategy", "random", "--seed", "3", "--trials", "4"])
@example(["combined", "build", "--q", "4", "--h", "2", "--s0", "1", "--d0", "2"])
@example(["sections", "enumerate", "--q", "3", "--h", "1"])
@example(["sections", "proposition", "--q", "3", "--h-max", "2", "--pairs", "5"])
@example(["bounds", "table", "--q", "9", "--grid", "10"])
@example(["verify", "averaging", "--kind", "xing", "--q", "3", "--divisor", "inf:1",
          "--radii", "1"])
@example(["verify", "averaging", "--kind", "combined", "--q", "3", "--h", "1", "--s0", "1"])
@example(["verify", "distance", "--code", "{code}"])
@example(["replay", "manifest", "{manifest}"])
def test_cli_fuzz_exits_with_a_documented_code(fuzz_files, argv):
    argv = [token.format(**fuzz_files) for token in argv] + ["--out", fuzz_files["out"]]
    if argv[:2] in (["field", "selftest"], ["curve", "info"], ["bounds", "crossing"],
                    ["verify", "distance"], ["verify", "averaging"], ["sections", "proposition"]):
        argv = argv[:-2]  # these take no --out
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        rc = _exit_code(argv)
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_PRECONDITION, EXIT_VERIFICATION), (argv, rc)
    assert "Traceback" not in captured.getvalue(), argv
