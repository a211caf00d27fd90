"""Checks over the package source.

- No `dataclasses`: importing it pulls in `inspect`, `ast`, `dis` and
  `tokenize`, and each decorated class execs generated methods, in every
  cold CLI process.
- No nested function that names itself: its closure cell refers back to
  the function, so each call of the enclosing function leaves a reference
  cycle that keeps everything the closure holds alive until the next full
  garbage collection.
- No leftover: every module-level function and class of the package is
  named somewhere outside its own definition, in the package, the
  benchmark or the README.  The tests do not count: code that only tests
  reach is dead weight, and library API the package does not call is
  documented in the README.
- No hand-filled column tables in the builders, the combinators or the
  formula compiler: they write automata as edge lists
  (`relations.relation_from_edges`) or build them from the kernel's
  relations, so none names `index_of` or `nfa_to_dfa`, and `fo.py` names
  no column alphabet at all.
- One domain walker: in `relations.py` only `_restrict_tracks` steps the
  per-track domain automata (`_track_step`), and only it and `_TrackMoves`
  itself name `_TrackMoves`.  Restriction, the validity filter and the
  in-domain check are that one walk; a second walk over the same tracks
  would be a second implementation to keep in step with it.
- One per-track index: in `relations.py` only `_TrackIndex` indexes a
  relation's moves by the digits on some of its tracks, and besides it
  only `_Columns` and `_TrackMoves` fill a dict on lookup (`__missing__`).
  Only `RegularRelation.input_rows` (the transducer search),
  `_composition_rows`, `is_functional` and `join` name `_TrackIndex`, and
  no other module names it; `decision` names none of the three.  Each
  caller differs only in its spec (key and part weights, target weight,
  repeated positions), so a second index would be a second decode of the
  same columns to keep in step.
- One composition product: only `_composition_rows` builds composition
  rows, and both `compose` (determinized in full) and
  `composition_chain` (on demand) call it; `decision` names neither it
  nor `fa.determinize`: conjugacy chains its stripped letters after the
  meet through `composition_chain`, and a second product in either
  module would be another one to keep in step.
- One projection product: only `_projection_rows` builds projection rows,
  and only `project` (determinized in full) and `projection_view` (on
  demand) name it.
- Conjugacy on demand: `conjugate` and `_core_conjugators` decide and find
  the witness by `fa.search` over on-demand automata, so neither names
  `explore`, `join`, `project`, `minimize` or `determinize`.
- One search: a worklist loop (a `while` or `for` that pops a stack or
  queue, swaps in the next level of a frontier, or runs over a list its
  body appends to) appears only in the functions that build, search or
  enumerate: `fa.explore` (the one builder), `fa.search` (the one
  early-stopping search), `fa._reachable` and `fa.minimize` (minimize's
  own passes), `fa.enumerate_words` (which lists words and does not
  search), `decision._search` (the transducer search) and
  `decision._shells` (the ball BFS), and `relations._tail_saturation`
  (the padding tails of projection and composition).  Inclusion,
  equality, emptiness and functionality are `fa.search` over on-demand
  rows, so a decision procedure has one place to stop early and one to
  return its witness.
- Acceptance from the index: `decision._search` names neither
  `accepting` nor `ended`.  Its one map of runs reads where a word ends
  from the end entries of `RegularRelation.input_rows`, which hold every
  accepting state, so a second test of the automaton's accepting set, or
  a second map for runs whose output has ended, would be another place
  to keep in step with the index.
"""

import ast
import collections
import pathlib
import re

import cayleyauto

SOURCES = sorted(pathlib.Path(cayleyauto.__file__).parent.rglob("*.py"))
REPO = pathlib.Path(__file__).resolve().parents[1]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees():
    for path in SOURCES:
        yield path.name, ast.parse(path.read_text(), str(path))


def test_sources_are_found():
    assert {"cli.py", "fa.py", "fo.py", "relations.py"} <= {p.name for p in SOURCES}


def test_no_dataclasses():
    bad = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                bad.append(f"{name}:{node.lineno}")
    assert not bad


def test_no_nested_function_names_itself():
    bad = []
    for name, tree in _trees():
        for outer in ast.walk(tree):
            if not isinstance(outer, FUNCTIONS):
                continue
            for inner in ast.walk(outer):
                if inner is outer or not isinstance(inner, FUNCTIONS):
                    continue
                if any(isinstance(n, ast.Name) and n.id == inner.name
                       for stmt in inner.body for n in ast.walk(stmt)):
                    bad.append(f"{name}:{inner.lineno} {inner.name}")
    assert not bad


def _names(node):
    """The identifiers a tree names: variables, attributes, imported names,
    and the dotted parts of strings that spell a name (the package's lazy
    imports and the benchmark's traced functions list them as strings)."""
    out = collections.Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if re.fullmatch(r"[A-Za-z_][\w.]*", n.value):
                out.update(n.value.split("."))
    return out


def test_every_module_level_definition_is_used():
    files = set(SOURCES) | set((REPO / "bench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    everywhere = collections.Counter(
        re.findall(r"[A-Za-z_]\w*", (REPO / "README.md").read_text()))
    for tree in trees.values():
        everywhere.update(_names(tree))
    unused = []
    for path in SOURCES:
        for node in trees[path].body:
            if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] - _names(node)[name] < 1:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused


def test_no_hand_filled_column_tables():
    forbidden = {
        "builders.py": {"index_of", "nfa_to_dfa"},
        "combinators.py": {"index_of", "nfa_to_dfa"},
        "fo.py": {"index_of", "nfa_to_dfa", "conv_alphabet", "tuple_of"},
    }
    bad = []
    for name, tree in _trees():
        bad += [f"{name} names {n}" for n in sorted(forbidden.get(name, ()))
                if _names(tree)[n]]
    assert not bad


def _named_outside(tree, allowed):
    """'<owner> names <name>' for each top-level definition (or statement)
    of tree that names one of allowed's names without being among its
    allowed owners."""
    bad = []
    for node in tree.body:
        names = _names(node)
        owner = getattr(node, "name", f"line {node.lineno}")
        bad += [f"{owner} names {n}" for n, owners in allowed.items()
                if names[n] and owner not in owners]
    return bad


def test_one_domain_walker():
    allowed = {
        "_track_step": {"_restrict_tracks"},
        "_TrackMoves": {"_restrict_tracks", "_TrackMoves"},
    }
    assert not _named_outside(dict(_trees())["relations.py"], allowed)


def test_one_track_index():
    trees = dict(_trees())
    indexes = {"_Columns", "_TrackMoves", "_TrackIndex"}
    bad = [f"{node.name} defines __missing__"
           for node in ast.walk(trees["relations.py"])
           if isinstance(node, ast.ClassDef) and node.name not in indexes
           and any(isinstance(n, FUNCTIONS) and n.name == "__missing__"
                   for n in node.body)]
    # the owners are the top-level definitions, a class's methods each
    # counted as one
    readers = {"_TrackIndex", "input_rows", "_composition_rows", "is_functional",
               "join"}
    for node in trees["relations.py"].body:
        parts = [node]
        if isinstance(node, ast.ClassDef) and node.name != "_TrackIndex":
            parts = node.bases + node.body
        for part in parts:
            owner = getattr(part, "name", f"line {part.lineno}")
            if _names(part)["_TrackIndex"] and owner not in readers:
                bad.append(f"{owner} names _TrackIndex")
    for name, tree in trees.items():
        if name != "relations.py":
            forbidden = indexes if name == "decision.py" else {"_TrackIndex"}
            bad += [f"{name} names {n}" for n in sorted(forbidden) if _names(tree)[n]]
    assert not bad


def test_one_composition_product():
    trees = dict(_trees())
    allowed = {
        "_composition_rows": {"_composition_rows", "compose", "composition_chain"},
    }
    bad = _named_outside(trees["relations.py"], allowed)
    callers = {node.name: _names(node)["_composition_rows"]
               for node in trees["relations.py"].body
               if isinstance(node, FUNCTIONS)}
    bad += [f"{f} does not build on _composition_rows"
            for f in ("compose", "composition_chain") if not callers.get(f)]
    for name, tree in trees.items():
        if name != "relations.py":
            forbidden = set(allowed)
            if name == "decision.py":
                forbidden.add("determinize")
            bad += [f"{name} names {n}" for n in sorted(forbidden) if _names(tree)[n]]
    assert not bad


def test_one_projection_product():
    trees = dict(_trees())
    owners = {"project", "projection_view"}
    bad = _named_outside(trees["relations.py"], {"_projection_rows": owners | {
        "_projection_rows"}})
    callers = {getattr(node, "name", None) for node in trees["relations.py"].body
               if _names(node)["_projection_rows"]}
    bad += [f"{f} does not build on _projection_rows" for f in sorted(owners - callers)]
    bad += [f"{name} names _projection_rows" for name, tree in trees.items()
            if name != "relations.py" and _names(tree)["_projection_rows"]]
    assert not bad


def test_conjugacy_builds_nothing_in_full():
    functions = {node.name: _names(node) for node in dict(_trees())["decision.py"].body
                 if isinstance(node, FUNCTIONS)}
    bad = [f"{f} names {n}" for f in ("conjugate", "_core_conjugators")
           for n in ("explore", "join", "project", "minimize", "determinize")
           if functions[f][n]]
    assert not bad


_CONTAINERS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _worklist_loops(tree):
    """The loops of a tree that work through a worklist: a `while` whose
    test names a stack or queue its body pops; a loop that swaps in the
    next level of a frontier, rebinding a name its `while` test names, or
    an inner `for` runs over, to a fresh list or dict its body built; and
    a `for` over a list, or its `enumerate`, that its body appends to."""
    out = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.While, ast.For)):
            continue
        body = [n for stmt in loop.body for n in ast.walk(stmt)]
        called = {(n.func.value.id, n.func.attr) for n in body
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and isinstance(n.func.value, ast.Name)}
        fresh = {n.targets[0].id for n in body
                 if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name)
                 and isinstance(n.value, _CONTAINERS)}
        swapped = set()
        for n in body:
            if isinstance(n, ast.Assign) and len(n.targets) == 1:
                target, value = n.targets[0], n.value
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                swapped.update(t.id for t, v in pairs if isinstance(t, ast.Name)
                               and isinstance(v, ast.Name) and v.id in fresh)
        walked = {n.iter.id for n in body
                  if isinstance(n, ast.For) and isinstance(n.iter, ast.Name)}
        if isinstance(loop, ast.While):
            tested = {n.id for n in ast.walk(loop.test) if isinstance(n, ast.Name)}
            if any((x, m) in called for x in tested for m in ("pop", "popleft")):
                out.append(loop)
                continue
            walked |= tested
        if swapped & walked:
            out.append(loop)
            continue
        it = loop.iter if isinstance(loop, ast.For) else None
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "enumerate" and it.args):
            it = it.args[0]
        if isinstance(it, ast.Name) and (it.id, "append") in called:
            out.append(loop)
    return out


def test_one_search():
    allowed = {
        "fa.explore", "fa.search", "fa._reachable", "fa.minimize",
        "fa.enumerate_words", "decision._search", "decision._shells",
        "relations._tail_saturation",
    }
    found = set()
    for name, tree in _trees():
        module = name[:-len(".py")]
        for node in tree.body:
            if _worklist_loops(node):
                found.add(f"{module}.{getattr(node, 'name', node.lineno)}")
    # every allowed function still holds its loop, so the rule sees them
    assert found == allowed, sorted(found ^ allowed)


def test_search_reads_acceptance_from_its_index():
    search = next(node for node in dict(_trees())["decision.py"].body
                  if isinstance(node, FUNCTIONS) and node.name == "_search")
    names = _names(search)
    assert not [n for n in ("accepting", "ended") if names[n]]
