"""The benchmark's output checks accept the program's real outputs and reject
corrupted ones.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import pytest  # noqa: E402

import oracles  # noqa: E402
from workloads import parse  # noqa: E402


@pytest.fixture(scope="module")
def groups():
    from cayleyauto.presentations import bs1n, heisenberg

    return {"bs1n": bs1n(2), "heisenberg": heisenberg()}


def rep_names(P, text):
    from cayleyauto import decision
    from cayleyauto.presentations import GroupWord

    return decision.canonical_rep(P, GroupWord.parse(text)).names()


def change_one_digit(names, track):
    """Flip the first binary digit of a track."""
    out = list(names)
    for i, name in enumerate(out):
        parts = name.split(oracles.SEP)
        if parts[track] in ("0", "1"):
            parts[track] = "1" if parts[track] == "0" else "0"
            out[i] = oracles.SEP.join(parts)
            return out
    raise AssertionError("no binary digit on that track")


def test_bs_representative_check(groups):
    text = "a b a b^-1 a^-1 b b a^-1 a^-1"
    names = rep_names(groups["bs1n"], text)
    assert oracles.check_bs_rep(2, parse(text), names)
    assert not oracles.check_bs_rep(2, parse(text), change_one_digit(names, 0))
    assert not oracles.check_bs_rep(2, parse(text + " b"), names)


def test_bs_m_digit_change_is_rejected(groups):
    text = "b b b a^-1 b"
    names = rep_names(groups["bs1n"], text)
    assert oracles.check_bs_rep(2, parse(text), names)
    assert not oracles.check_bs_rep(2, parse(text), change_one_digit(names, 1))


def test_heisenberg_representative_check(groups):
    text = "A A C B^-1 A^-1 C C B"
    names = rep_names(groups["heisenberg"], text)
    assert oracles.check_heis_rep(parse(text), names)
    for track in range(3):
        assert not oracles.check_heis_rep(parse(text), change_one_digit(names, track))


def test_conjugacy_check(groups):
    from cayleyauto import decision
    from cayleyauto.presentations import GroupWord

    P = groups["heisenberg"]
    p, q = "A", "C A C^-1"
    verdict, witness = decision.conjugate(P, GroupWord.parse(p), GroupWord.parse(q))
    names = witness.names()
    assert oracles.check_conjugacy(parse(p), parse(q), verdict, names)
    # an inverted verdict
    assert not oracles.check_conjugacy(parse(p), parse(q), not verdict, None)
    # a witness that does not conjugate: w = A commutes with p = A, and
    # A p A^-1 = A is not q
    not_witness = rep_names(P, "A")
    assert not oracles.check_conjugacy(parse(p), parse(q), True, not_witness)
    # a non-conjugate pair answered "conjugate"
    assert not oracles.check_conjugacy(parse("B"), parse("B B"), True, names)
    assert oracles.check_conjugacy(parse("B"), parse("B B"), False, None)


def test_ball_check():
    good = "sizes: 1 5 13 25 41 61 85\n"
    assert oracles.check_ball_output("zn", 6, good)
    assert not oracles.check_ball_output("zn", 6, "sizes: 1 5 13 25 41 61 86\n")
    assert not oracles.check_ball_output("zn", 6, "sizes: 1 5 13 25 41 61\n")
    assert not oracles.check_ball_output("zn", 6, "")


@pytest.mark.parametrize("name", sorted(oracles.CLOSED_FORM_BALLS))
def test_closed_forms_match_model_bfs(name):
    closed = oracles.ball_sizes(name, 6)
    form = oracles.CLOSED_FORM_BALLS.pop(name)
    try:
        assert oracles.ball_sizes(name, 6) == closed
    finally:
        oracles.CLOSED_FORM_BALLS[name] = form


def test_verdict_check():
    assert oracles.check_verdict(True, "true\n", 0)
    assert oracles.check_verdict(False, "false\n", 1)
    assert not oracles.check_verdict(True, "false\n", 1)
    assert not oracles.check_verdict(False, "true\n", 0)
    assert not oracles.check_verdict(True, "true\n", 2)


@pytest.mark.parametrize("group", ["heisenberg", "bs1n", "bs1n-3", "wreath"])
def test_defining_relators_are_identities(group):
    from workloads import RELATORS

    for r in RELATORS[group]:
        assert oracles.is_identity(group, parse(r))
        assert not oracles.is_identity(group, parse(r)[1:])


def test_nilpotent_model_is_a_group():
    g = oracles.NIL2
    els = {(a, b, c) for a in range(2) for b in range(2) for c in range(2)}
    for x in els:
        assert g.mul(x, g.inverse(x)) == g.identity
        for y in els:
            for z in els:
                assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
    # a2 a1 = a1 a2 a3
    a1, a2 = g.gen("a1", 1), g.gen("a2", 1)
    assert g.mul(a2, a1) == g.mul(g.mul(a1, a2), g.gen("a3", 1))
