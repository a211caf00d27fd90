"""Command-line interface: build presentations and structures, run the
decision procedures, compile formulas, and export automata.

Exit codes: 0 success or true, 1 false, 2 validation failure, 3 usage or
parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fa, relations as rel
from .presentations import (
    FiniteExtensionData,
    FiniteGroupTable,
    GraphAutomaticPresentation,
    GroupWord,
    Nilpotent2Spec,
)
from .presentations.core import json_fields

# decision, fo and the builders are imported inside the commands that use
# them, so that a cold process loads only what its command runs

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _ints(text):
    """argparse type: '1,2,3' as [1, 2, 3], the empty text as []."""
    try:
        return [int(x) for x in text.split(",")] if text.strip() else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer list {text!r}") from None


def _matrix(text):
    """argparse type: '1,1;0,1' as [[1, 1], [0, 1]], the empty text as []."""
    try:
        return ([[int(x) for x in row.split(",")] for row in text.split(";")]
                if text.strip() else [])
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer matrix {text!r}") from None


def _commutator(text):
    """argparse type: 'i,j=c,..' as ((i, j), (c, ..))."""
    head, _, tail = text.partition("=")
    try:
        i, j = (int(x) for x in head.split(","))
        coeffs = tuple(int(x) for x in tail.split(",")) if tail.strip() else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid commutator {text!r}") from None
    return (i, j), coeffs


def _load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return doc


def _load_presentation(path, limit):
    doc = _load_doc(path)
    return _guard_states(GraphAutomaticPresentation.from_json(doc), limit)


def _load_any(path, limit):
    doc = _load_doc(path)
    if doc.get("structure"):
        from . import fo

        return _guard_states(fo.structure_from_json(doc), limit)
    return _guard_states(GraphAutomaticPresentation.from_json(doc), limit)


def _automata(obj):
    """(name, automaton) for the domain of a presentation or structure, then
    a presentation's edge relations (left ones named `left:<generator>`) or
    a structure's relations."""
    yield "domain", obj.domain
    if isinstance(obj, GraphAutomaticPresentation):
        yield from ((name, r.dfa) for name, r in obj.generators.items())
        yield from ((f"left:{name}", r.dfa) for name, r in obj.left.items())
    else:
        yield from ((name, r.dfa) for name, r in obj.relations.items())


def _guard_states(obj, limit):
    """obj itself, once none of its automata has more than limit states."""
    worst = max(a.n_states for _, a in _automata(obj))
    if worst > limit:
        raise ValueError(
            f"automaton has {worst} states, over the --max-states limit {limit}"
        )
    return obj


def _extension_data(path, limit):
    """The `--data` file of `build finite-extension`; a missing or mistyped
    field raises a ValueError that names it."""
    doc = _load_doc(path)
    base, conj = json_fields(doc, "extension data", {"base": str, "conjugation": dict},
                             optional=("conjugation",))
    for key, cell in (("mult", int), ("correction", str)):
        rows = doc.get(key)
        if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(type(x) is cell for x in row)
                for row in rows):
            raise ValueError(f"extension data needs a field {key!r} holding "
                             f"a list of lists of {cell.__name__}")
    conjugation = {}
    for key, w in (conj or {}).items():
        i, _, gen = key.partition(" ")
        if not (i.isdecimal() and gen and isinstance(w, str)):
            raise ValueError("extension data field 'conjugation' needs words keyed "
                             f"by '<coset> <generator>', not {key!r}: {w!r}")
        conjugation[(int(i), gen)] = GroupWord.parse(w)
    correction = [[GroupWord.parse(w) for w in row] for row in doc["correction"]]
    base = _load_presentation(base, limit)
    return FiniteExtensionData(base, doc["mult"], correction, conjugation)


def _required(args, *names):
    """The values of the named build options; a UsageError names the first
    one that was not given."""
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"build {args.builder} needs --{name}")
    return [getattr(args, name) for name in names]


def _build(args):
    # the builders are imported only by the command that builds, and the
    # combinators only by the builds that combine presentations
    from .presentations import builders as b

    name = args.builder
    if name == "zn":
        return b.zn(args.n)
    if name == "abelian":
        return b.fg_abelian(args.n, args.torsion)
    if name == "heisenberg":
        return b.heisenberg(args.n if args.n else 3)
    if name == "ut":
        return b.ut(args.n) if args.step == 1 else b.ut_m(args.n, args.step)
    if name == "bs1n":
        return b.bs1n(args.p)
    if name == "free":
        return b.free_group(args.rank)
    if name == "gamma-free":
        return b.gamma_free(args.rank)
    if name == "wreath":
        return b.wreath_finite_by_z(FiniteGroupTable.cyclic(args.t))
    if name == "nilpotent2":
        spec = Nilpotent2Spec(
            args.n, args.split, tuple(args.orders), dict(args.comm or ())
        )
        return b.nilpotent2(spec)
    if name == "semidirect-zn-z":
        return b.semidirect_zn_z(args.matrix)
    if name == "fa-abelian":
        return b.fa_abelian_multiplication(args.n, args.torsion)
    from .presentations import combinators as c

    if name in ("direct-product", "free-product", "semidirect"):
        first, second = _required(args, "first", "second")
        P = _load_presentation(first, args.max_states)
        Q = _load_presentation(second, args.max_states)
        if name == "direct-product":
            return c.direct_product(P, Q)
        if name == "free-product":
            return c.free_product(P, Q)
        action = {}
        for item in args.action or []:
            gen, eq, path = item.partition("=")
            if not (gen and eq and path):
                raise UsageError(f"--action takes GEN=PATH, not {item!r}")
            with open(path) as f:
                action[gen] = rel.rel_from_text(f.read())
        return c.semidirect(P, Q, action)
    if name == "finite-extension":
        (data,) = _required(args, "data")
        return c.finite_extension(_extension_data(data, args.max_states))
    if name == "restrict":
        pres, sub_path, gens = _required(args, "pres", "sub", "gens")
        P = _load_presentation(pres, args.max_states)
        with open(sub_path) as f:
            sub = fa.from_text(f.read(), alphabet=P.base)
        return c.restrict_to_regular_subgroup(P, sub, gens.split(","))
    if name == "extend-gen":
        pres, gen, word = _required(args, "pres", "name", "word")
        P = _load_presentation(pres, args.max_states)
        return c.extend_generator(P, gen, GroupWord.parse(word))
    raise UsageError(f"unknown builder {name!r}")


def cmd_build(args):
    obj = _guard_states(_build(args), args.max_states)
    if isinstance(obj, GraphAutomaticPresentation):
        if not args.no_check:
            from . import decision as dec

            report = dec.check_presentation(obj)
            if not report["ok"]:
                bad = [k for k, v in report["relations"].items() if not v["ok"]]
                print(f"presentation check failed: {', '.join(bad)}", file=sys.stderr)
                return EXIT_INVALID
        doc = obj.to_json()
        kind = f"{len(obj.generators)} generators"
    else:
        from . import fo

        doc = fo.structure_to_json(obj)
        kind = f"{len(obj.relations)} relations"
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}: {kind}")
    return EXIT_TRUE


def cmd_eval(args):
    from . import decision as dec

    P = _load_presentation(args.path, args.max_states)
    w = dec.canonical_rep(P, GroupWord.parse(args.word))
    print(" ".join(w.names()))
    return EXIT_TRUE


def cmd_equal(args):
    from . import decision as dec

    P = _load_presentation(args.path, args.max_states)
    same = dec.words_equal(P, GroupWord.parse(args.word1), GroupWord.parse(args.word2))
    print("true" if same else "false")
    return EXIT_TRUE if same else EXIT_FALSE


def _certify(P, edges):
    """Raise a ValueError naming the first edge of the {name: relation} map
    that fails `decision.check_relation` against P's domain, and its failed
    flags."""
    from . import decision as dec

    for name, r in edges.items():
        flags = dec.check_relation(r, P.domain)
        failed = " ".join(k for k, ok in flags.items() if not ok)
        if failed:
            raise ValueError(f"relation {name} fails the presentation check: {failed}")


def _certify_left(P, names):
    """Raise a ValueError naming the first left relation L_b, for b in
    names, that is not left multiplication u -> b·u, and the parts that
    fail.  A bijection L_b of the representatives is left multiplication
    by b exactly when it agrees with b's right relation R_b at the identity
    (the transducer search) and commutes with every right relation R_a:
    both L_b∘R_a and R_a∘L_b are then bijections, so one `fa.is_subset`
    decides each equality."""
    from . import decision as dec

    e = [P.identity]
    for b in dict.fromkeys(names):
        left = P.left_relation(b)
        failed = []
        if dec.eval_function(left, e) != dec.eval_function(P.relation(b), e):
            failed.append("image of the identity")
        failed += [f"commutation with {a}" for a, r in P.generators.items()
                   if not fa.is_subset(rel.compose(left, r).dfa, rel.compose(r, left).dfa)]
        if failed:
            raise ValueError(f"relation left:{b} fails the left multiplication "
                             f"check: {', '.join(failed)}")


def cmd_relator(args):
    from . import decision as dec

    P = _load_presentation(args.path, args.max_states)
    w = GroupWord.parse(args.word)
    # the decision assumes that each edge it follows is a bijection of the
    # representatives: certify those the word names, cancelled ones too
    _certify(P, {name: P.relation(name) for name, _ in w})
    holds = dec.relator_holds(P, w)
    print("true" if holds else "false")
    return EXIT_TRUE if holds else EXIT_FALSE


def cmd_ball(args):
    from . import decision as dec

    P = _load_presentation(args.path, args.max_states)
    report = dec.growth_profile(P, args.radius)
    print("sizes: " + " ".join(str(s) for s in report.sizes))
    if args.list:
        for w in report.ball:
            print(" ".join(w.names()))
    return EXIT_TRUE


def cmd_conj(args):
    from . import decision as dec

    P = _load_presentation(args.path, args.max_states)
    p, q = GroupWord.parse(args.word1), GroupWord.parse(args.word2)
    # certify the right relations p names and the left ones q names, as in
    # `cmd_relator`, and the left ones as left multiplication; names
    # resolve in `conjugate`'s order, so its errors come first
    if P.is_biautomatic():
        edges = {name: P.relation(name) for name, _ in p}
        edges.update((f"left:{name}", P.left_relation(name)) for name, _ in q)
        _certify(P, edges)
        _certify_left(P, [name for name, _ in q])
    ok, witness = dec.conjugate(P, p, q)
    if ok:
        print("conjugate, witness: " + " ".join(witness.names()))
        return EXIT_TRUE
    print("not conjugate")
    return EXIT_FALSE


def cmd_check(args):
    from . import decision as dec

    P = _load_presentation(args.path, args.max_states)
    report = dec.check_presentation(P)
    print(f"identity in domain: {report['identity_in_domain']}")
    for name, entry in report["relations"].items():
        failed = " ".join(k for k in dec.CHECK_FLAGS if not entry[k])
        verdict = f"FAIL ({failed})" if failed else "ok"
        print(f"{name}: {verdict} C={entry['growth_constant']}")
    print("ok" if report["ok"] else "FAILED")
    return EXIT_TRUE if report["ok"] else EXIT_INVALID


def cmd_fo(args):
    from . import fo

    obj = _load_any(args.path, args.max_states)
    if isinstance(obj, GraphAutomaticPresentation):
        struct = fo.AutomaticStructure(
            obj.domain, {f"E{n}": r for n, r in obj.generators.items()}
        )
    else:
        struct = obj
    if args.formula_file:
        with open(args.formula_file) as f:
            text = f.read()
    else:
        text = args.formula
    if text is None:
        raise UsageError("pass a formula or --formula-file")
    if args.compile:
        order = args.vars.split(",") if args.vars else None
        _, r = fo.compile(struct, text, order)
        if isinstance(r, bool):
            raise UsageError("--compile needs a formula with free variables")
        with open(args.compile, "w") as f:
            f.write(rel.rel_to_text(r))
        print(f"wrote {args.compile}: arity {r.arity}, {r.dfa.n_states} states")
        return EXIT_TRUE
    result = fo.decide(struct, text)
    print("true" if result else "false")
    return EXIT_TRUE if result else EXIT_FALSE


def cmd_export(args):
    obj = _load_any(args.path, args.max_states)
    # every file name first: two automata whose names clean up alike would
    # otherwise write one file, the second over the first
    named = {}
    for name, automaton in _automata(obj):
        stem = "".join(c if c.isalnum() or c in "-_" else "_" for c in name)
        if stem in named:
            raise ValueError(f"automata {named[stem][0]} and {name} would both "
                             f"be written to {stem}.dot")
        named[stem] = name, automaton
    os.makedirs(args.dot, exist_ok=True)
    for stem, (_, automaton) in named.items():
        path = os.path.join(args.dot, stem + ".dot")
        with open(path, "w") as f:
            f.write(fa.to_dot(fa.minimize(automaton), name=stem))
        print(path)
    return EXIT_TRUE


def make_parser():
    parser = _Parser(prog="cayleyauto", description=__doc__)
    parser.add_argument("--max-states", type=int, default=10**6)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a presentation or structure")
    b.add_argument("builder")
    b.add_argument("--out", required=True)
    b.add_argument("--no-check", action="store_true")
    b.add_argument("-n", type=int, default=0)
    b.add_argument("-p", type=int, default=2)
    b.add_argument("-t", type=int, default=2)
    b.add_argument("--rank", type=int, default=2)
    b.add_argument("--step", type=int, default=1)
    b.add_argument("--split", type=int, default=0)
    b.add_argument("--torsion", type=_ints, default="")
    b.add_argument("--orders", type=_ints, default="")
    b.add_argument("--comm", type=_commutator, action="append")
    b.add_argument("--matrix", type=_matrix, default="")
    b.add_argument("--first")
    b.add_argument("--second")
    b.add_argument("--action", action="append")
    b.add_argument("--data")
    b.add_argument("--pres")
    b.add_argument("--sub")
    b.add_argument("--gens")
    b.add_argument("--name")
    b.add_argument("--word")
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("eval", help="canonical representative of a word")
    e.add_argument("path")
    e.add_argument("word")
    e.set_defaults(func=cmd_eval)

    q = sub.add_parser("equal", help="whether two words name the same element")
    q.add_argument("path")
    q.add_argument("word1")
    q.add_argument("word2")
    q.set_defaults(func=cmd_equal)

    r = sub.add_parser("relator", help="whether a word is a global relator")
    r.add_argument("path")
    r.add_argument("word")
    r.set_defaults(func=cmd_relator)

    l = sub.add_parser("ball", help="ball sizes around the identity")
    l.add_argument("path")
    l.add_argument("-r", "--radius", type=int, required=True)
    l.add_argument("--list", action="store_true")
    l.set_defaults(func=cmd_ball)

    c = sub.add_parser("conj", help="conjugacy of two words")
    c.add_argument("path")
    c.add_argument("word1")
    c.add_argument("word2")
    c.set_defaults(func=cmd_conj)

    k = sub.add_parser("check", help="validate a presentation")
    k.add_argument("path")
    k.set_defaults(func=cmd_check)

    f = sub.add_parser("fo", help="decide or compile a first-order formula")
    f.add_argument("path")
    f.add_argument("formula", nargs="?")
    f.add_argument("--formula-file")
    f.add_argument("--compile", metavar="OUT")
    f.add_argument("--vars")
    f.set_defaults(func=cmd_fo)

    x = sub.add_parser("export", help="write DOT files for the automata")
    x.add_argument("path")
    x.add_argument("--dot", required=True, metavar="DIR")
    x.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; try smaller parameters", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        # fo is imported only by the commands that use it; its FormulaError
        # is a ValueError
        from . import fo

        if isinstance(exc, fo.FormulaError):
            print(f"formula error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # str() of a KeyError is the repr of its message
        if isinstance(exc, KeyError) and exc.args:
            exc = exc.args[0]
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
