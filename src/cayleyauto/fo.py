"""First-order formulas over an automatic structure, compiled to relations.

A structure is a regular domain plus finitely many named regular relations.
Every formula with free variables compiles to a regular relation whose tracks
are the free variables in sorted name order, relativized to the domain;
sentences compile to booleans.

Formula syntax::

    phi := 'E' var phi | 'A' var phi | '!' phi
         | phi '&' phi | phi '|' phi | phi '->' phi
         | name '(' var (',' var)* ')' | var '=' var | '(' phi ')'

Precedence (tightest first): '!', '&', '|', '->' (right associative).
'E' and 'A' are reserved for the quantifiers and scope over the smallest
following formula, so quantified bodies are usually parenthesized.
"""

from __future__ import annotations

from . import fa, relations as rel
from .fa import Alphabet, Frozen
from .presentations.core import json_fields


# ---------------------------------------------------------------------------
# abstract syntax


class Atom(Frozen):
    __slots__ = _fields = ("name", "args")

    def __str__(self):
        return f"{self.name}({', '.join(self.args)})"


class VarEqual(Frozen):
    __slots__ = _fields = ("left", "right")

    def __str__(self):
        return f"{self.left} = {self.right}"


class Not(Frozen):
    __slots__ = _fields = ("body",)

    def __str__(self):
        return f"!({self.body})"


class And(Frozen):
    __slots__ = _fields = ("left", "right")

    def __str__(self):
        return f"({self.left} & {self.right})"


class Or(Frozen):
    __slots__ = _fields = ("left", "right")

    def __str__(self):
        return f"({self.left} | {self.right})"


class Implies(Frozen):
    __slots__ = _fields = ("left", "right")

    def __str__(self):
        return f"({self.left} -> {self.right})"


class Exists(Frozen):
    __slots__ = _fields = ("var", "body")

    def __str__(self):
        return f"E {self.var} ({self.body})"


class Forall(Frozen):
    __slots__ = _fields = ("var", "body")

    def __str__(self):
        return f"A {self.var} ({self.body})"


# ---------------------------------------------------------------------------
# parser


class FormulaError(ValueError):
    pass


_PUNCT = ("->", "(", ")", ",", "=", "&", "|", "!")


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append("->")
            i += 2
            continue
        if c in "(),=&|!":
            tokens.append(c)
            i += 1
            continue
        if c.isalnum() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise FormulaError(f"unexpected character {c!r}")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise FormulaError("unexpected end of formula")
        if expected is not None and tok != expected:
            raise FormulaError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.implies()
        if self.peek() is not None:
            raise FormulaError(f"trailing input at {self.peek()!r}")
        return node

    def implies(self):
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek() == "|":
            self.take()
            node = Or(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.peek() == "&":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok in ("E", "A"):
            self.take()
            var = self._ident()
            body = self.unary()
            return Exists(var, body) if tok == "E" else Forall(var, body)
        return self.primary()

    def _ident(self):
        tok = self.take()
        if tok in _PUNCT or tok in ("E", "A"):
            raise FormulaError(f"expected a name, found {tok!r}")
        return tok

    def primary(self):
        if self.peek() == "(":
            self.take()
            node = self.implies()
            self.take(")")
            return node
        name = self._ident()
        if self.peek() == "(":
            self.take()
            args = [self._ident()]
            while self.peek() == ",":
                self.take()
                args.append(self._ident())
            self.take(")")
            return Atom(name, tuple(args))
        if self.peek() == "=":
            self.take()
            return VarEqual(name, self._ident())
        raise FormulaError(f"expected '(' or '=' after {name!r}")


def parse_formula(text):
    """Parse formula text into an AST node."""
    return _Parser(_tokenize(text)).parse()


def free_variables(node):
    if isinstance(node, Atom):
        return set(node.args)
    if isinstance(node, VarEqual):
        return {node.left, node.right}
    if isinstance(node, Not):
        return free_variables(node.body)
    if isinstance(node, (And, Or, Implies)):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, (Exists, Forall)):
        return free_variables(node.body) - {node.var}
    raise FormulaError(f"not a formula node: {node!r}")


# ---------------------------------------------------------------------------
# structures and compilation


class AutomaticStructure:
    """A regular domain with named regular relations over the same alphabet."""

    def __init__(self, domain, relations=None):
        self.domain = fa.minimize(domain)
        self.base = self.domain.alphabet
        self.relations = {}
        self._restricted = {}
        self._powers = {}
        for name, r in (relations or {}).items():
            self.add_relation(name, r)

    def add_relation(self, name, r):
        if r.base != self.base:
            raise ValueError(f"relation {name!r} uses a different alphabet")
        self.relations[name] = r

    def restricted(self, name):
        """The named relation intersected with Lⁿ, computed once for each
        relation stored under the name (`relations` may be reassigned)."""
        r = self.relations[name]
        hit = self._restricted.get(name)
        if hit is None or hit[0] is not r:
            hit = (r, rel.restrict_relation_to_domain(r, self.domain))
            self._restricted[name] = hit
        return hit[1]

    def complement(self, r):
        """Lⁿ minus the arity-n relation r; Lⁿ is built once for each arity."""
        power = self._powers.get(r.arity)
        if power is None:
            power = rel.RegularRelation(
                self.base, r.arity, rel.domain_power(self.domain, r.arity))
            self._powers[r.arity] = power
        return rel.rel_difference(power, r)

    def domain_nonempty(self):
        empty, _ = fa.is_empty(self.domain)
        return not empty

    def domain_as_relation(self):
        return rel.language_relation(self.domain)


def _expand(struct, r, vars_, target):
    """Widen a compiled relation from its sorted variable tuple to a sorted
    superset, in one join that places each new variable on the domain."""
    if vars_ == target:
        return r
    dom = struct.domain_as_relation()
    parts = [(r, tuple(target.index(v) for v in vars_))]
    parts += [(dom, (k,)) for k, v in enumerate(target) if v not in vars_]
    return rel.join(parts, len(target))


def _compile(struct, node):
    """Returns (vars tuple, relation) or a bare bool for closed subformulas."""
    if isinstance(node, Atom):
        if node.name not in struct.relations:
            raise FormulaError(f"unknown relation {node.name!r}")
        arity = struct.relations[node.name].arity
        if arity != len(node.args):
            raise FormulaError(
                f"{node.name} expects {arity} arguments, got {len(node.args)}"
            )
        # restricted to Lⁿ first: joining and permuting tracks stay in it
        r = struct.restricted(node.name)
        args = node.args
        order = sorted(set(args))
        if len(order) < len(args):
            # a repeated variable: one join reads its tracks as one word
            r = rel.join([(r, tuple(order.index(v) for v in args))], len(order))
        elif list(args) != order:
            r = rel.permute_tracks(r, [order.index(v) for v in args])
        return tuple(order), r
    if isinstance(node, VarEqual):
        if node.left == node.right:
            return (node.left,), struct.domain_as_relation()
        eq = rel.equality_relation(struct.domain)
        return tuple(sorted((node.left, node.right))), eq
    if isinstance(node, Not):
        body = _compile(struct, node.body)
        if isinstance(body, bool):
            return not body
        vars_, r = body
        return vars_, struct.complement(r)
    if isinstance(node, (And, Or, Implies)):
        left = _compile(struct, node.left)
        right = _compile(struct, node.right)
        if isinstance(node, Implies):
            # a -> b is !a | b
            if isinstance(left, bool):
                return True if not left else right
            lv, lr = left
            left = (lv, struct.complement(lr))
            node_op = Or
        else:
            node_op = type(node)
        if isinstance(left, bool) or isinstance(right, bool):
            if node_op is And:
                if left is False or right is False:
                    return False
                return right if isinstance(left, bool) else left
            if left is True or right is True:
                return True
            return right if isinstance(left, bool) else left
        lv, lr = left
        rv, rr = right
        target = tuple(sorted(set(lv) | set(rv)))
        if node_op is And:
            # conjunction as one synchronized product over the shared tracks
            joined = rel.join(
                [
                    (lr, tuple(target.index(v) for v in lv)),
                    (rr, tuple(target.index(v) for v in rv)),
                ],
                len(target),
            )
            return target, joined
        lr = _expand(struct, lr, lv, target)
        rr = _expand(struct, rr, rv, target)
        return target, rel.rel_union(lr, rr)
    if isinstance(node, (Exists, Forall)):
        if isinstance(node, Forall):
            return _compile(struct, Not(Exists(node.var, Not(node.body))))
        body = _compile(struct, node.body)
        if isinstance(body, bool):
            # E x phi with x not free: phi and the domain being inhabited
            return body and struct.domain_nonempty()
        vars_, r = body
        if node.var not in vars_:
            return (vars_, r) if struct.domain_nonempty() else False
        if len(vars_) == 1:
            empty, _ = fa.is_empty(r.dfa)
            return not empty
        idx = vars_.index(node.var)
        # projecting a domain-restricted relation leaves the remaining tracks
        # restricted, so no further relativization is needed
        out = rel.project(r, idx)
        return tuple(v for v in vars_ if v != node.var), out
    raise FormulaError(f"not a formula node: {node!r}")


def compile(struct, formula, order=None):
    """Compile to (variable order, relation); track k of the relation carries
    variable order[k].  Defaults to the free variables in sorted name order.
    Sentences come back as ((), bool).
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    result = _compile(struct, formula)
    if isinstance(result, bool):
        if order:
            raise FormulaError("a sentence has no free variables to order")
        return (), result
    vars_, r = result
    if order is None:
        return vars_, r
    order = tuple(order)
    if sorted(order) != list(vars_) or len(set(order)) != len(order):
        raise FormulaError(
            f"order {order!r} does not cover the free variables {vars_!r}"
        )
    if order != vars_:
        r = rel.permute_tracks(r, [order.index(v) for v in vars_])
    return order, r


def decide(struct, formula):
    """Truth value of a sentence over the structure."""
    if isinstance(formula, str):
        formula = parse_formula(formula)
    fv = free_variables(formula)
    if fv:
        raise FormulaError(f"formula has free variables: {', '.join(sorted(fv))}")
    _, result = compile(struct, formula)
    return result


def define_relation(struct, name, formula, order=None):
    """Compile a formula and return a new structure with it added under
    `name`; the original structure is unchanged."""
    if name in struct.relations:
        raise FormulaError(f"relation {name!r} already defined")
    _, r = compile(struct, formula, order)
    if not isinstance(r, rel.RegularRelation):
        raise FormulaError("cannot define a relation from a sentence")
    out = AutomaticStructure(struct.domain, struct.relations)
    out.add_relation(name, r)
    return out


# ---------------------------------------------------------------------------
# serialization


def structure_to_json(struct):
    """JSON document for an automatic structure."""
    return {
        "structure": True,
        "alphabet": list(struct.base.symbols),
        "domain": fa.to_text(struct.domain),
        "relations": {
            name: rel.rel_to_text(r) for name, r in struct.relations.items()
        },
    }


def structure_from_json(doc):
    alphabet, domain, texts = json_fields(
        doc, "structure", {"alphabet": list, "domain": str, "relations": dict},
    )
    base = Alphabet(alphabet)
    domain = fa.from_text(domain, alphabet=base)
    checked = json_fields(texts, "structure relations", dict.fromkeys(texts, str))
    relations = {name: rel.rel_from_text(t) for name, t in zip(texts, checked)}
    return AutomaticStructure(domain, relations)
