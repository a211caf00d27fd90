import json
import os
import subprocess
import sys
import time

import pytest

from cayleyauto import cli, decision as dec, fa
from cayleyauto.relations import (
    MAX_TEXT_ARITY,
    equality_relation,
    rel_from_text,
    rel_to_text,
)
from cayleyauto.presentations import GraphAutomaticPresentation, GroupWord, zn

from helpers import broken_zn1


@pytest.fixture
def zn1_path(tmp_path):
    path = str(tmp_path / "zn1.json")
    assert cli.main(["build", "zn", "-n", "1", "--out", path]) == 0
    return path


@pytest.fixture
def heis_path(tmp_path):
    path = str(tmp_path / "heis.json")
    assert cli.main(["build", "heisenberg", "--no-check", "--out", path]) == 0
    return path


def test_build_writes_loadable_presentation(tmp_path, capsys):
    zn1_path = str(tmp_path / "zn1.json")
    assert cli.main(["build", "zn", "-n", "1", "--out", zn1_path]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "1 generators" in out
    P = GraphAutomaticPresentation.load(zn1_path)
    Q = zn(1)
    assert fa.language_equal(P.domain, Q.domain)
    for name in Q.generators:
        assert fa.language_equal(P.relation(name).dfa, Q.relation(name).dfa)


def test_build_is_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert cli.main(["build", "abelian", "-n", "1", "--torsion", "2",
                     "--out", p1]) == 0
    assert cli.main(["build", "abelian", "-n", "1", "--torsion", "2",
                     "--out", p2]) == 0
    assert open(p1).read() == open(p2).read()


def test_build_rejects_invalid_parameters(tmp_path):
    out = str(tmp_path / "x.json")
    assert cli.main(["build", "zn", "-n", "0", "--out", out]) == 2
    assert not os.path.exists(out)
    assert cli.main(["build", "nope", "--out", out]) == 3
    assert cli.main(["build", "zn"]) == 3  # missing --out


@pytest.mark.parametrize("builder, option, value", [
    ("abelian", "--torsion", "a"),
    ("nilpotent2", "--orders", "2,a"),
    ("semidirect-zn-z", "--matrix", "1,0;0,a"),
    ("nilpotent2", "--comm", "0,1=a"),
    ("nilpotent2", "--comm", "0=1"),
])
def test_build_rejects_non_integer_options_naming_them(tmp_path, capsys, builder,
                                                       option, value):
    out = str(tmp_path / "x.json")
    assert cli.main(["build", builder, "-n", "2", option, value, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: argument {option}: ")
    assert repr(value) in err
    assert not os.path.exists(out)


def test_build_respects_max_states(tmp_path):
    out = str(tmp_path / "x.json")
    assert cli.main(["--max-states", "2", "build", "zn", "-n", "1",
                     "--out", out]) == 2


def test_relator_and_conj_respect_max_states(heis_path, tmp_path):
    # every command that loads a file; own processes, so that an uncaught
    # exception would show as a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for args in (["relator", heis_path, "A C A^-1 C^-1 B^-1"],
                 ["conj", heis_path, "A", "A B"],
                 ["equal", heis_path, "A", "A"],
                 ["ball", heis_path, "-r", "1"],
                 ["check", heis_path],
                 ["fo", heis_path, "E u (u = u)"],
                 ["export", heis_path, "--dot", str(tmp_path / "dot")]):
        proc = subprocess.run(
            [sys.executable, "-m", "cayleyauto.cli", "--max-states", "2"] + args,
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, (args, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert "--max-states" in proc.stderr
        assert proc.stdout == ""


@pytest.mark.parametrize("args, named", [
    (["direct-product"], "--first"),
    (["free-product", "--first", "Z"], "--second"),
    (["semidirect", "--second", "Z"], "--first"),
    (["semidirect", "--first", "Z", "--second", "Z", "--action", "e1"],
     "--action"),
    (["restrict", "--pres", "Z"], "--sub"),
    (["restrict", "--pres", "Z", "--sub", "sub.txt"], "--gens"),
    (["extend-gen", "--pres", "Z", "--name", "g"], "--word"),
    (["extend-gen", "--pres", "Z", "--word", "e1"], "--name"),
    (["finite-extension"], "--data"),
])
def test_combinator_build_without_a_required_option_exits_usage(
        zn1_path, tmp_path, args, named):
    # own process, so that an uncaught exception would show as a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    args = [zn1_path if a == "Z" else a for a in args]
    proc = subprocess.run(
        [sys.executable, "-m", "cayleyauto.cli", "build", *args,
         "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert named in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eval_rejects_a_missing_exponent(zn1_path, capsys):
    assert cli.main(["eval", zn1_path, "e1^"]) == 2
    assert capsys.readouterr().err == "error: bad exponent in 'e1^'\n"


def test_eval_rejects_a_word_past_the_letter_bound(zn1_path, capsys):
    assert cli.main(["eval", zn1_path, "e1^999999999999"]) == 2
    assert capsys.readouterr().err == (
        "error: group-word token 'e1^999999999999' takes the word past "
        "1000000 letters\n")


def test_eval_prints_representative(zn1_path, capsys):
    assert cli.main(["eval", zn1_path, "e1 e1 e1^-1"]) == 0
    got = capsys.readouterr().out.strip()
    lib = dec.canonical_rep(zn(1), GroupWord.parse("e1 e1 e1^-1"))
    assert got == " ".join(lib.names())


def test_equal_exit_codes(zn1_path, capsys):
    assert cli.main(["equal", zn1_path, "e1 e1^-1", ""]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli.main(["equal", zn1_path, "e1", "e1^-1"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_relator_exit_codes(heis_path, capsys):
    assert cli.main(["relator", heis_path, "A C A^-1 C^-1 B^-1"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli.main(["relator", heis_path, "A C A^-1 C^-1"]) == 1


def test_ball_sizes_and_listing(heis_path, zn1_path, capsys):
    assert cli.main(["ball", heis_path, "-r", "2"]) == 0
    assert capsys.readouterr().out.strip() == "sizes: 1 7 29"
    assert cli.main(["ball", zn1_path, "-r", "2", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sizes: 1 3 5"
    assert len(lines) == 6  # header plus five representatives


def test_ball_rejects_a_negative_radius(zn1_path, capsys):
    assert cli.main(["ball", zn1_path, "-r", "-1"]) == 2
    assert "radius must be nonnegative" in capsys.readouterr().err
    for run in (dec.ball, dec.growth_profile):
        with pytest.raises(ValueError):
            run(zn(1), -1)


def test_package_runs_as_a_module(zn1_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cayleyauto", "ball", zn1_path, "-r", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "sizes: 1 3\n"), proc.stderr


def test_cold_start_imports_only_what_a_command_uses(zn1_path, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = str(tmp_path / "zn2.json")
    dot = str(tmp_path / "dot")
    # no command loads dataclasses; a ball loads neither fo nor the
    # builders, a group build neither fo nor the combinators, and fo and
    # export never load decision.  -S keeps site hooks from preloading.
    for args, lazy, stdout in (
        (["ball", zn1_path, "-r", "2"],
         ("cayleyauto.fo", "cayleyauto.presentations.builders"),
         "sizes: 1 3 5\n"),
        (["build", "zn", "-n", "2", "--out", out],
         ("cayleyauto.fo", "cayleyauto.presentations.combinators"),
         f"wrote {out}: 2 generators\n"),
        (["fo", zn1_path, "A u (E v (Ee1(u,v)))"],
         ("cayleyauto.decision", "cayleyauto.presentations.builders"),
         "true\n"),
        (["export", zn1_path, "--dot", dot],
         ("cayleyauto.decision", "cayleyauto.fo"),
         None),
    ):
        lazy += ("dataclasses",)
        code = (
            "import sys\n"
            "import cayleyauto.cli as cli\n"
            f"lazy = {lazy!r}\n"
            "assert not [m for m in lazy if m in sys.modules], 'on import'\n"
            f"status = cli.main({args!r})\n"
            "loaded = [m for m in lazy if m in sys.modules]\n"
            "assert not loaded, f'after main: {loaded}'\n"
            "sys.exit(status)\n"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        if stdout is not None:
            assert proc.stdout == stdout
    assert sorted(os.listdir(dot)) == ["domain.dot", "e1.dot", "left_e1.dot"]
    # a formula error in a cold process still exits 3
    proc = subprocess.run(
        [sys.executable, "-m", "cayleyauto", "fo", zn1_path, "E u ("],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("formula error:")


def test_conj_exit_codes(heis_path, capsys):
    assert cli.main(["conj", heis_path, "A", "A B"]) == 0
    assert capsys.readouterr().out.startswith("conjugate, witness:")
    assert cli.main(["conj", heis_path, "B", "B B"]) == 1
    assert capsys.readouterr().out.strip() == "not conjugate"


def test_conj_matches_the_readme_example(heis_path, capsys):
    assert cli.main(["conj", heis_path, "A", "A B"]) == 0
    assert capsys.readouterr().out == "conjugate, witness: 0,0,1\n"


@pytest.fixture
def zn2_path(tmp_path):
    path = str(tmp_path / "zn2.json")
    assert cli.main(["build", "zn", "-n", "2", "--out", path]) == 0
    return path


# stdout and exit code of `conj`, byte for byte as when every conjugator set
# was built in full
_CONJ_OUTPUTS = [
    ("heis", "A", "A B", 0, "conjugate, witness: 0,0,1\n"),
    ("heis", "B", "B B", 1, "not conjugate\n"),
    ("heis", "C", "A C A^-1", 0, "conjugate, witness: 1,0,0 0,1,1\n"),
    ("heis", "A C", "B A C B^-1", 0, "conjugate, witness: 0,0,0\n"),
    ("heis", "B^-1", "A^-1 A^-1 A", 1, "not conjugate\n"),
    ("heis", "A B^-1 C", "C A B^-1", 0, "conjugate, witness: 1,0,0\n"),
    ("heis", "", "", 0, "conjugate, witness: 0,0,0\n"),
    ("zn1", "e1", "e1", 0, "conjugate, witness: 0\n"),
    ("zn1", "e1 e1", "e1^-1 e1^-1", 1, "not conjugate\n"),
    ("zn2", "e1 e2^-1", "e2^-1 e1", 0, "conjugate, witness: 0,0\n"),
    ("zn2", "e1", "e2", 1, "not conjugate\n"),
]


def test_conj_output_is_unchanged(heis_path, zn1_path, zn2_path, capsys):
    paths = {"heis": heis_path, "zn1": zn1_path, "zn2": zn2_path}
    capsys.readouterr()
    for group, p, q, code, out in _CONJ_OUTPUTS:
        assert cli.main(["conj", paths[group], p, q]) == code, (group, p, q)
        assert capsys.readouterr() == (out, ""), (group, p, q)


def _rewrite_left(path, tmp_path, left_of):
    """A copy of a presentation file whose left relations are replaced:
    left_of(doc's generators, name) gives the new text of name's."""
    doc = json.load(open(path))
    gens = doc["generators"]
    texts = {name: left_of(gens, name) for name in gens}
    for name, text in texts.items():
        gens[name]["left"] = text
    out = tmp_path / "left.json"
    out.write_text(json.dumps(doc))
    return str(out)


def test_conj_refuses_left_relations_that_are_not_left_multiplication(
        heis_path, zn2_path, tmp_path, capsys):
    # both files pass `check`, whose flags certify only bijections
    message = "error: relation left:{} fails the left multiplication check: {}\n"
    swapped = _rewrite_left(zn2_path, tmp_path, lambda gens, name: gens[
        {"e1": "e2", "e2": "e1"}[name]]["left"])
    assert cli.main(["check", swapped]) == 0
    for p, q, named in (("e1", "e1", "e1"), ("e1", "e2", "e2")):
        capsys.readouterr()
        assert cli.main(["conj", swapped, p, q]) == 2
        assert capsys.readouterr() == ("", message.format(
            named, "image of the identity"))
    right = _rewrite_left(heis_path, tmp_path, lambda gens, name: gens[name]["relation"])
    for p, q in (("A", "A B"), ("A C", "A C B")):
        capsys.readouterr()
        assert cli.main(["conj", right, p, q]) == 2
        assert capsys.readouterr() == ("", message.format("A", "commutation with C"))


def test_conj_with_an_unknown_name_in_stripped_letters_exits_invalid(heis_path):
    # own process, so that an uncaught exception would show as a traceback
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for words, message in (
        (["A", "A Z Z^-1 A^-1"], "no left relation for generator 'Z'"),
        (["A", "Z"], "no left relation for generator 'Z'"),
        (["Z A Z^-1", "A"], "unknown generator 'Z'"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "cayleyauto", "conj", heis_path] + words,
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, (words, proc.stderr)
        assert proc.stderr == f"error: {message}\n", words


def test_presentation_without_generators_names_the_field(heis_path, tmp_path, capsys):
    doc = json.load(open(heis_path))
    del doc["generators"]
    bad = tmp_path / "nogen.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["conj", str(bad), "A", "A"]) == 2
    assert capsys.readouterr().err == "error: presentation has no 'generators' field\n"
    doc = json.load(open(heis_path))
    del doc["generators"]["B"]["relation"]
    bad.write_text(json.dumps(doc))
    assert cli.main(["eval", str(bad), "A"]) == 2
    assert capsys.readouterr().err == "error: generator 'B' has no 'relation' field\n"


_BAD_FIELDS = {
    "list": (lambda doc: [], "does not hold a JSON object"),
    "identity": (lambda doc: dict(doc, identity=5), "'identity'"),
    "generators": (lambda doc: dict(doc, generators=[]), "'generators'"),
    "domain": (lambda doc: dict(doc, domain=None), "'domain'"),
}


@pytest.mark.parametrize("command", ["ball", "check", "fo"])
@pytest.mark.parametrize("bad", sorted(_BAD_FIELDS))
def test_mistyped_field_exits_invalid_naming_it(zn1_path, tmp_path, capsys,
                                                bad, command):
    corrupt, named = _BAD_FIELDS[bad]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(corrupt(json.load(open(zn1_path)))))
    extra = {"ball": ["-r", "1"], "check": [], "fo": ["E u (Ee1(u,u))"]}
    capsys.readouterr()
    assert cli.main([command, str(path)] + extra[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err


def test_check_command(zn1_path, capsys):
    assert cli.main(["check", zn1_path]) == 0
    out = capsys.readouterr().out
    assert "identity in domain: True" in out
    assert out.strip().endswith("ok")


def test_check_reports_a_hole(tmp_path, capsys):
    path = str(tmp_path / "hole.json")
    broken_zn1()["hole"].save(path)
    assert cli.main(["check", path]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("e1: FAIL (total surjective) C=")
    assert out[-1] == "FAILED"


_BROKEN_FLAGS = {
    "hole": "total surjective",
    "extra_pair": "functional injective",
    "non_injective": "injective surjective",
    "outside": "in_domain functional",
    "outside_and_hole": "in_domain total functional surjective",
    "outside_loop": "in_domain functional injective",
}


@pytest.mark.parametrize("name", sorted(_BROKEN_FLAGS))
def test_relator_refuses_a_broken_edge(tmp_path, capsys, name):
    # "e1 e1^-1" reduces to the empty word, so only the certificate of the
    # cancelled letter's relation can see the damage
    path = str(tmp_path / f"{name}.json")
    broken_zn1()[name].save(path)
    capsys.readouterr()
    assert cli.main(["relator", path, "e1 e1^-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: relation e1 fails the presentation check: "
                   f"{_BROKEN_FLAGS[name]}\n")


def test_conj_refuses_a_broken_edge(tmp_path, capsys):
    P = broken_zn1()["hole"]
    e1 = P.relation("e1")
    both = GraphAutomaticPresentation(P.base, P.domain, P.identity,
                                      {"e1": e1}, {"e1": e1})
    path = str(tmp_path / "hole2.json")
    both.save(path)
    capsys.readouterr()
    for words, named in ((["e1", "e1"], "e1"), (["", "e1"], "left:e1")):
        assert cli.main(["conj", path] + words) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: relation {named} fails the presentation check: "
                       "total surjective\n")


def test_check_ignores_invalid_convolutions_in_a_file(zn1_path, capsys):
    # the appended edge lets a padded track resume; the tuples are unchanged.
    # State 5 is entered on a ◇, and column 0, named 0,0 in the older text,
    # is (0, 0)
    doc = json.load(open(zn1_path))
    text = doc["generators"]["e1"]["relation"]
    legacy = text.split("\n", 1)[0] + "\n" + fa.to_text(zn(1).relation("e1").dfa)
    for dirty in (text + "5 0 5\n", legacy + "5 0,0 5\n"):
        doc["generators"]["e1"]["relation"] = dirty
        with open(zn1_path, "w") as f:
            json.dump(doc, f)
        assert cli.main(["check", zn1_path]) == 0
        assert capsys.readouterr().out.strip().endswith("ok")


def test_fo_decide_and_compile(zn1_path, tmp_path, capsys):
    assert cli.main(["fo", zn1_path, "A u (E v (Ee1(u,v)))"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert cli.main(["fo", zn1_path, "E u (Ee1(u,u))"]) == 1
    out = str(tmp_path / "rel.txt")
    assert cli.main(["fo", zn1_path, "Ee1(u,v) | Ee1(v,u)",
                     "--compile", out, "--vars", "u,v"]) == 0
    text = open(out).read()
    assert text.startswith("relation 2 ")
    # an empty relation is written with no accepting state and reads back
    capsys.readouterr()
    assert cli.main(["fo", zn1_path, "Ee1(u,v) & Ee1(v,u)",
                     "--compile", out, "--vars", "u,v"]) == 0
    empty = rel_from_text(open(out).read())
    assert not empty.dfa.accepting and rel_to_text(empty) == open(out).read()


def test_fo_formula_file_and_errors(zn1_path, tmp_path):
    f = tmp_path / "phi.txt"
    f.write_text("A u (E v (Ee1(u,v)))\n")
    assert cli.main(["fo", zn1_path, "--formula-file", str(f)]) == 0
    # parse error
    assert cli.main(["fo", zn1_path, "E u ("]) == 3
    # free variables cannot be decided
    assert cli.main(["fo", zn1_path, "Ee1(u,v)"]) == 3
    # no formula given
    assert cli.main(["fo", zn1_path]) == 3


def test_fo_on_structure(tmp_path, capsys):
    path = str(tmp_path / "pres.json")
    assert cli.main(["build", "fa-abelian", "-n", "1", "--out", path]) == 0
    capsys.readouterr()
    assert cli.main(["fo", path, "E z (A x (Mult(x,z,x)))"]) == 0


def test_fo_rejects_a_relation_text_of_huge_arity(tmp_path, capsys):
    # the header's arity is refused before a column alphabet of
    # radix**arity − 1 columns is made: at 10**8 tracks that takes minutes
    path = str(tmp_path / "struct.json")
    assert cli.main(["build", "fa-abelian", "-n", "1", "--out", path]) == 0
    capsys.readouterr()
    with open(path) as f:
        doc = json.load(f)
    name, text = next(iter(doc["relations"].items()))
    head, _, rest = text.partition("\n")
    head = " ".join(["relation", "100000000"] + head.split()[2:])
    doc["relations"][name] = head + "\n" + rest
    with open(path, "w") as f:
        json.dump(doc, f)
    start = time.perf_counter()
    assert cli.main(["fo", path, "E z (z = z)"]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: relation arity 100000000 above the bound {MAX_TEXT_ARITY}"]


def test_export_writes_dot_files(zn1_path, tmp_path, capsys):
    outdir = str(tmp_path / "dots")
    assert cli.main(["export", zn1_path, "--dot", outdir]) == 0
    files = sorted(os.listdir(outdir))
    assert "domain.dot" in files and "e1.dot" in files
    assert any(f.startswith("left_") for f in files)
    first = {f: open(os.path.join(outdir, f)).read() for f in files}
    assert cli.main(["export", zn1_path, "--dot", outdir]) == 0
    again = {f: open(os.path.join(outdir, f)).read() for f in files}
    assert first == again


@pytest.mark.parametrize("name, clash", [
    ("domain", "domain and domain"),
    ("left_e1", "left_e1 and left:e1"),
    ("e1.x", "e1.x and e1_x"),
])
def test_export_refuses_two_automata_for_one_file(zn1_path, tmp_path, capsys,
                                                  name, clash):
    # a generator whose name cleans up like another automaton's: nothing is
    # written and both are named, instead of one file overwriting the other
    path = zn1_path
    if name == "e1.x":
        path = str(tmp_path / "one.json")
        assert cli.main(["build", "extend-gen", "--pres", zn1_path, "--name",
                         "e1_x", "--word", "e1", "--out", path]) == 0
    ext = str(tmp_path / "ext.json")
    assert cli.main(["build", "extend-gen", "--pres", path, "--name", name,
                     "--word", "e1 e1", "--out", ext]) == 0
    outdir = tmp_path / "dots"
    capsys.readouterr()
    assert cli.main(["export", ext, "--dot", str(outdir)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not outdir.exists()
    stem = clash.rsplit(" ", 1)[-1].replace(":", "_").replace(".", "_")
    assert err == f"error: automata {clash} would both be written to {stem}.dot\n"


def test_missing_or_corrupt_files(tmp_path):
    assert cli.main(["eval", str(tmp_path / "missing.json"), "e1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["eval", str(bad), "e1"]) == 2
    notpres = tmp_path / "notpres.json"
    notpres.write_text(json.dumps({"hello": 1}))
    assert cli.main(["eval", str(notpres), "e1"]) == 2


def test_cut_automaton_text_exits_invalid(tmp_path):
    # run as its own process so that an uncaught exception shows as a
    # traceback on stderr, the way a user would see it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    path = str(tmp_path / "zn2.json")
    assert cli.main(["build", "zn", "-n", "2", "--out", path]) == 0
    doc = json.load(open(path))
    cuts = {
        "domain": lambda d: d.update(domain=d["domain"].splitlines()[0]),
        "relation": lambda d: d["generators"]["e1"].update(
            relation=d["generators"]["e1"]["relation"].splitlines()[0]
        ),
    }
    for name, cut in cuts.items():
        broken = json.loads(json.dumps(doc))
        cut(broken)
        bad = tmp_path / f"cut-{name}.json"
        bad.write_text(json.dumps(broken))
        proc = subprocess.run(
            [sys.executable, "-m", "cayleyauto.cli", "eval", str(bad), "e1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, (name, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")


def test_relation_file_with_bad_references_exits_invalid(zn1_path, tmp_path):
    good = tmp_path / "good.txt"
    good.write_text(rel_to_text(equality_relation(zn(1).domain)))
    out = str(tmp_path / "semi.json")
    args = ["build", "semidirect", "--first", zn1_path, "--second", zn1_path,
            "--no-check", "--out", out]
    assert cli.main(args + ["--action", f"e1={good}"]) == 0
    text = good.read_text()
    n_states = int(text.splitlines()[1].split()[-1])
    # a target and a column out of range, and a column by name
    for line in (f"0 0 {n_states}", "0 8 1", "0 z,0 1"):
        bad = tmp_path / "bad.txt"
        bad.write_text(text + line + "\n")
        assert cli.main(args + ["--action", f"e1={bad}"]) == 2


def test_usage_errors(capsys):
    assert cli.main([]) == 3
    assert cli.main(["ball"]) == 3
    assert cli.main(["frobnicate"]) == 3


def test_build_check_catches_broken_presentation(tmp_path, zn1_path):
    # corrupt a stored relation so the default build-time check fails when
    # the file is used to extend a generator
    doc = json.load(open(zn1_path))
    out = str(tmp_path / "ext.json")
    assert cli.main(["build", "extend-gen", "--pres", zn1_path,
                     "--name", "g", "--word", "e1 e1", "--out", out]) == 0
    P = GraphAutomaticPresentation.load(out)
    assert set(P.generators) == {"e1", "g"}


_DIHEDRAL = {
    "mult": [[0, 1], [1, 0]],
    "correction": [["", ""], ["", ""]],
    "conjugation": {"1 e1": "e1^-1"},
}
_BAD_EXTENSION_DATA = {
    "base": ({"base": 0}, "'base'"),
    "mult": ({"mult": 5}, "'mult'"),
    "mult-cells": ({"mult": [[0, "1"], [1, 0]]}, "'mult'"),
    "correction": ({"correction": None}, "'correction'"),
    "conjugation": ({"conjugation": []}, "'conjugation'"),
    "conjugation-key": ({"conjugation": {"1e1": "e1^-1"}}, "'conjugation'"),
    "conjugation-word": ({"conjugation": {"1 e1": ["e1"]}}, "'conjugation'"),
}


@pytest.mark.parametrize("bad", [None, "no-correction", *sorted(_BAD_EXTENSION_DATA)])
def test_finite_extension_data_is_checked(zn1_path, tmp_path, capsys, bad):
    doc = dict(_DIHEDRAL, base=zn1_path)
    named = "'correction'"
    if bad == "no-correction":
        del doc["correction"]
    elif bad is not None:
        change, named = _BAD_EXTENSION_DATA[bad]
        doc.update(change)
    data = tmp_path / "data.json"
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    code = cli.main(["build", "finite-extension", "--data", str(data),
                     "--out", str(tmp_path / "ext.json")])
    err = capsys.readouterr().err
    if bad is None:
        assert code == 0, err
        return
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert named in err


def test_out_of_memory_exits_invalid_in_one_line(tmp_path, capsys, monkeypatch):
    from cayleyauto.presentations import builders

    def exhausted(n):
        raise MemoryError

    monkeypatch.setattr(builders, "zn", exhausted)
    capsys.readouterr()
    assert cli.main(["build", "zn", "-n", "1", "--out", str(tmp_path / "z.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1, err
    assert "Traceback" not in err
