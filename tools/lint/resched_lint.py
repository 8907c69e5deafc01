#!/usr/bin/env python3
"""resched-lint: project-invariant static analyzer for the resched codebase.

The repo's headline guarantees -- exact 64-bit tick arithmetic, bit-identical
schedules across thread counts and ~0 allocations per decision on the service
hot path -- are enforced dynamically by differential fuzz, golden hashes and
the alloc-budget gate. This tool
encodes them as *source-level* rules so the class of bug is caught before it
compiles:

  R1 time-arith   raw '+', '-', '*' (and '+=', '-=', '*=') on expressions in
                  the 64-bit tick domain (Time, ProcCount, std::int64_t and
                  project aliases/fields/getters of those types) outside the
                  audited allowlist (util/checked.hpp). Route the arithmetic
                  through checked_add / checked_sub / checked_mul /
                  saturating-style helpers, or annotate:
                      // resched-lint: time-arith-audited(<why it cannot overflow>)

  R2 determinism  iteration over std::unordered_{map,set,multimap,multiset}
                  (range-for or .begin()) feeding anything -- schedules,
                  aggregates and serialized output must never depend on hash
                  order; pointer-keyed std::{map,set} (pointer values are not
                  deterministic across runs); and unseeded entropy / wall
                  clocks (rand, srand, random_device, system_clock,
                  steady_clock, high_resolution_clock, gettimeofday,
                  clock_gettime, bare time()) outside the seeded PRNG module
                  (util/prng.*). Annotate deliberate uses:
                      // resched-lint: determinism-audited(<why it never feeds results>)

  R3 hot-path     functions statically reachable from the service dispatch
     allocation   roots (ServiceLoop::*, Scheduler::schedule, Scheduler::replan
                  and overrides) must not contain definite allocation sites:
                  non-placement `new`, malloc/calloc/realloc/strdup/
                  aligned_alloc, make_unique/make_shared, std::function,
                  std::stable_sort / std::inplace_merge / std::stable_partition
                  (libstdc++ heap-allocates their merge buffer -- the PR 8
                  discovery), or a local owning container declaration
                  (std::vector/string/map/... constructed per call; ScratchVec
                  and arena-backed types are exempt). This ties the dynamic
                  alloc_count() budget (bench/alloc_budget.json) to a static
                  reachability check. Annotate amortized/cold sites:
                      // resched-lint: hot-path-alloc-audited(<why the budget holds>)

Annotation grammar (also documented in BUILDING.md):

    // resched-lint: <rule>-audited(<reason>)              line-scoped
    // resched-lint: <rule>-audited(<reason>) [function]   whole function

with <rule> in {time-arith, determinism, hot-path-alloc}. A line-scoped
annotation on its own line applies to the next code line; a trailing one to
its own line. The <reason> is mandatory and non-empty. A [function]
annotation must sit directly above the function's signature.

Engine
------
The analyzer is self-contained and textual: a C++ tokenizer plus a
project-wide symbol harvest (typedef aliases, struct fields and function
return types in the tick domain) that classifies operand atoms by spelled
type. It needs nothing beyond python3, so its verdicts are the same on every
machine. An exported compile_commands.json, when given, only selects which
translation units under src/ are analyzed.

Baseline policy
---------------
`tools/lint/baseline.json` holds the accepted findings, each with a mandatory
human-written justification. The gate fails on (a) any finding not in the
baseline, (b) any stale baseline entry -- the baseline must only shrink; prune
entries whose findings were fixed -- and (c) any entry whose justification is
empty or still starts with "TODO". `--update-baseline` rewrites the file:
it prunes stale entries and adds new findings with a "TODO: justify" marker
that the gate will refuse until a human replaces it. Baseline keys are
line-number independent: rule : file : function : normalized source line :
occurrence index.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Rule registry and project configuration
# --------------------------------------------------------------------------

RULES = ("R1", "R2", "R3")

ANNOTATION_NAMES = {
    "time-arith": "R1",
    "determinism": "R2",
    "hot-path-alloc": "R3",
}

# Spelled types that live in the 64-bit tick domain. Project aliases of these
# (discovered via `using X = Time;` etc.) are added during the harvest.
TICK_TYPE_SEEDS = {"Time", "ProcCount", "std::int64_t", "int64_t"}

# Files whose raw arithmetic IS the audited implementation of the checked
# helpers; R1 does not fire inside them.
R1_FILE_ALLOWLIST = {"src/util/checked.hpp"}

# The seeded-PRNG module: the one place entropy primitives are legitimate.
R2_FILE_ALLOWLIST = {"src/util/prng.hpp", "src/util/prng.cpp"}

# Service dispatch roots for R3 reachability (qualified-name regexes).
R3_ROOT_PATTERNS = (
    r"^ServiceLoop::",
    r"(^|::)schedule$",
    r"(^|::)replan$",
)

ALLOC_CALLS = {
    "malloc", "calloc", "realloc", "strdup", "aligned_alloc",
    "make_unique", "make_shared",
}
ALLOC_ALGOS = {"stable_sort", "inplace_merge", "stable_partition"}
OWNING_CONTAINERS = {
    "vector", "string", "basic_string", "map", "multimap", "set", "multiset",
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "deque", "list", "forward_list", "function",
    "ostringstream", "istringstream", "stringstream",
}
# Arena-backed / non-owning types exempt from the local-container rule.
R3_EXEMPT_TYPES = {"ScratchVec", "string_view", "span", "ArenaAlloc"}

ENTROPY_IDENTS = {
    "rand", "srand", "random_device", "gettimeofday", "clock_gettime",
}
WALL_CLOCKS = {"system_clock", "steady_clock", "high_resolution_clock"}

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "do", "else", "try", "catch", "return",
    "case", "default", "goto", "new", "delete", "throw", "sizeof", "alignof",
    "static_assert", "co_return", "co_await", "co_yield",
}

DECL_QUALIFIERS = {"const", "constexpr", "static", "inline", "mutable",
                   "volatile", "register", "thread_local", "typename"}


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

@dataclass
class Tok:
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct'
    text: str
    line: int
    col: int


@dataclass
class Comment:
    text: str
    line: int
    own_line: bool  # nothing but whitespace before it on its line


PUNCT3 = {"<<=", ">>=", "...", "->*"}
PUNCT2 = {"::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&",
          "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "##"}


def tokenize(text: str):
    """Returns (tokens, comments, pp_lines). Preprocessor lines are skipped
    (recorded by line number) so macro bodies never confuse the scanner."""
    toks, comments, pp_lines = [], [], set()
    i, n = 0, len(text)
    line, col = 1, 1
    line_has_code = False

    def advance(k):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c == "\n":
            line_has_code = False
            advance(1)
            continue
        if c in " \t\r\f\v":
            advance(1)
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j == -1:
                j = n
            comments.append(Comment(text[i:j], line, not line_has_code))
            advance(j - i)
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comments.append(Comment(text[i:j], line, not line_has_code))
            advance(j - i)
            continue
        if c == "#" and not line_has_code:
            # Preprocessor directive: consume to end of line, honoring
            # backslash continuations; record the covered lines.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k == -1:
                    k = n
                stripped = text[j:k].rstrip()
                if stripped.endswith("\\"):
                    j = k + 1
                else:
                    j = k
                    break
            start = line
            advance(j - i)
            for ln in range(start, line + 1):
                pp_lines.add(ln)
            continue
        line_has_code = True
        # Raw strings.
        m = re.match(r'(?:u8|u|U|L)?R"([^ ()\\\t\v\f\n]*)\(', text[i:])
        if m:
            term = ")" + m.group(1) + '"'
            j = text.find(term, i + m.end())
            j = n if j == -1 else j + len(term)
            toks.append(Tok("str", text[i:j], line, col))
            advance(j - i)
            continue
        if c == '"' or (c in "uUL" and i + 1 < n and
                        re.match(r'(?:u8|u|U|L)"', text[i:])):
            m = re.match(r'(?:u8|u|U|L)?"(?:[^"\\\n]|\\.)*"', text[i:])
            if m:
                toks.append(Tok("str", m.group(0), line, col))
                advance(m.end())
                continue
        if c == "'" or (c in "uUL" and re.match(r"(?:u8|u|U|L)'", text[i:])):
            m = re.match(r"(?:u8|u|U|L)?'(?:[^'\\\n]|\\.)+'", text[i:])
            if m:
                toks.append(Tok("chr", m.group(0), line, col))
                advance(m.end())
                continue
        if c.isalpha() or c == "_":
            m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[i:])
            toks.append(Tok("id", m.group(0), line, col))
            advance(m.end())
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = re.match(r"(?:0[xX][0-9a-fA-F']+|\.?[0-9][0-9a-fA-F'.eEpPxX+-]*)",
                         text[i:])
            # Trim trailing +/- that belong to the next token unless preceded
            # by an exponent marker.
            lit = m.group(0)
            while lit and lit[-1] in "+-" and lit[-2] not in "eEpP":
                lit = lit[:-1]
            m2 = re.match(r"[uUlLzZ]*", text[i + len(lit):])
            lit += m2.group(0)
            toks.append(Tok("num", lit, line, col))
            advance(len(lit))
            continue
        for group in (PUNCT3, PUNCT2):
            p = text[i:i + len(next(iter(group)))]
            if p in group:
                toks.append(Tok("punct", p, line, col))
                advance(len(p))
                break
        else:
            toks.append(Tok("punct", c, line, col))
            advance(1)
        continue
    return toks, comments, pp_lines


# --------------------------------------------------------------------------
# Annotations
# --------------------------------------------------------------------------

ANNOTATION_RE = re.compile(
    r"resched-lint:\s*([a-z-]+)-audited\(([^)]*)\)(\s*\[function\])?")


@dataclass
class Annotation:
    rule: str
    reason: str
    function_scope: bool
    line: int        # line of the comment itself
    target_line: int  # line the annotation applies to


class AnnotationSet:
    def __init__(self, comments, code_lines):
        self.by_line: dict[int, set[str]] = {}
        self.function_anns: list[Annotation] = []
        self.problems: list[tuple[int, str]] = []
        for comment in comments:
            for m in ANNOTATION_RE.finditer(comment.text):
                name, reason, fn_scope = m.group(1), m.group(2).strip(), m.group(3)
                rule = ANNOTATION_NAMES.get(name)
                if rule is None:
                    self.problems.append(
                        (comment.line,
                         f"unknown resched-lint annotation '{name}-audited'"))
                    continue
                if not reason:
                    self.problems.append(
                        (comment.line,
                         f"resched-lint {name}-audited() needs a reason"))
                    continue
                target = comment.line
                if comment.own_line:
                    target = next((ln for ln in code_lines
                                   if ln > comment.line), comment.line)
                ann = Annotation(rule, reason, bool(fn_scope), comment.line,
                                 target)
                if fn_scope:
                    self.function_anns.append(ann)
                else:
                    self.by_line.setdefault(target, set()).add(rule)

    def suppressed(self, rule, line):
        return rule in self.by_line.get(line, set())


# --------------------------------------------------------------------------
# Symbol harvest (project-wide, textual engine)
# --------------------------------------------------------------------------

class Symbols:
    def __init__(self):
        self.tick_types = set(TICK_TYPE_SEEDS)
        self.tick_fields: set[str] = set()      # struct fields of tick type
        self.tick_funcs: set[str] = set()       # functions returning tick type
        self.unordered_names: set[str] = set()  # fields of unordered type

    def is_tick_type_tokens(self, type_tokens):
        s = type_str(type_tokens)
        base = s.replace("const ", "").replace("&", "").strip()
        return base in self.tick_types


def type_str(tokens):
    out = []
    for t in tokens:
        if out and t.kind == "id" and out[-1] not in ("::",):
            out.append(" ")
        out.append(t.text if t.kind != "id" else t.text)
    # Canonical-ish: collapse "std :: int64_t" to "std::int64_t".
    s = "".join(out).replace(" ::", "::").replace(":: ", "::")
    return s


def harvest_aliases(files_tokens, symbols):
    """`using NAME = TYPE;` where TYPE is (or becomes) a tick type."""
    changed = True
    while changed:
        changed = False
        for _, toks in files_tokens.items():
            for i, t in enumerate(toks):
                if t.kind == "id" and t.text == "using" and i + 2 < len(toks):
                    name_tok = toks[i + 1]
                    if name_tok.kind != "id" or toks[i + 2].text != "=":
                        continue
                    j = i + 3
                    ty = []
                    while j < len(toks) and toks[j].text != ";":
                        ty.append(toks[j])
                        j += 1
                    base = type_str(ty).replace("const ", "").strip()
                    if base in symbols.tick_types and \
                            name_tok.text not in symbols.tick_types:
                        symbols.tick_types.add(name_tok.text)
                        changed = True


def split_statements(tokens, start, end):
    """Yields token index ranges for statements at one brace depth, skipping
    nested brace blocks."""
    depth = 0
    stmt_start = start
    i = start
    while i < end:
        t = tokens[i].text
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if depth == 0:
                stmt_start = i + 1
        elif t == ";" and depth == 0:
            yield (stmt_start, i)
            stmt_start = i + 1
        i += 1


def harvest_class_members(toks, symbols):
    """Record tick-typed and unordered-typed fields plus tick-returning
    method declarations from struct/class bodies."""
    i = 0
    n = len(toks)
    while i < n:
        if toks[i].kind == "id" and toks[i].text in ("struct", "class"):
            # Find the opening brace of the class body (skip fwd decls).
            j = i + 1
            while j < n and toks[j].text not in ("{", ";"):
                j += 1
            if j >= n or toks[j].text == ";":
                i = j + 1
                continue
            # Matching close brace.
            depth = 0
            k = j
            while k < n:
                if toks[k].text == "{":
                    depth += 1
                elif toks[k].text == "}":
                    depth -= 1
                    if depth == 0:
                        break
                k += 1
            for (s, e) in split_statements(toks, j + 1, k):
                harvest_member_statement(toks, s, e, symbols)
            i = j + 1  # descend into nested classes too
            continue
        i += 1


def harvest_member_statement(toks, s, e, symbols):
    # Strip qualifiers and access specifiers.
    while s < e and toks[s].kind == "id" and (
            toks[s].text in DECL_QUALIFIERS or
            toks[s].text in ("public", "private", "protected", "friend",
                             "virtual", "explicit")):
        s += 1
    if s < e and toks[s].text == ":":
        s += 1
    if s >= e or toks[s].kind != "id":
        return
    # Collect the type: identifier chain plus optional template args.
    ty, i = read_type(toks, s, e)
    if not ty or i >= e:
        return
    tys = type_str(ty)
    base = tys.replace("const ", "").replace("&", "").strip()
    is_tick = base in symbols.tick_types
    is_unordered = "unordered_" in tys
    # Method declaration: ident '(' ...
    if toks[i].kind == "id" and i + 1 < e and toks[i + 1].text == "(":
        if is_tick:
            symbols.tick_funcs.add(toks[i].text)
        return
    # Field(s): ident [= init] [, ident ...]
    while i < e and toks[i].kind == "id":
        name = toks[i].text
        if is_tick:
            symbols.tick_fields.add(name)
        if is_unordered:
            symbols.unordered_names.add(name)
        i += 1
        depth = 0
        while i < e:
            t = toks[i].text
            if t in ("(", "[", "{", "<"):
                depth += 1
            elif t in (")", "]", "}", ">"):
                depth -= 1
            elif t == "," and depth == 0:
                i += 1
                break
            i += 1


def read_type(toks, s, e):
    """Reads a type at toks[s:e]: qualified id chain with optional <...> and
    trailing const/&/*. Returns (type_tokens, next_index)."""
    ty = []
    i = s
    while i < e and toks[i].kind == "id" and toks[i].text in DECL_QUALIFIERS:
        ty.append(toks[i])
        i += 1
    if i >= e or toks[i].kind != "id" or toks[i].text in CONTROL_KEYWORDS:
        return [], s
    ty.append(toks[i])
    i += 1
    while i + 1 < e and toks[i].text == "::" and toks[i + 1].kind == "id":
        ty.append(toks[i])
        ty.append(toks[i + 1])
        i += 2
    if i < e and toks[i].text == "<":
        depth = 0
        while i < e:
            if toks[i].text == "<":
                depth += 1
            elif toks[i].text == ">":
                depth -= 1
                ty.append(toks[i])
                i += 1
                if depth == 0:
                    break
                continue
            elif toks[i].text == ">>":
                depth -= 2
                ty.append(toks[i])
                i += 1
                if depth <= 0:
                    break
                continue
            ty.append(toks[i])
            i += 1
    while i < e and toks[i].text in ("const", "&", "&&", "*"):
        ty.append(toks[i])
        i += 1
    return ty, i


# --------------------------------------------------------------------------
# Function extraction
# --------------------------------------------------------------------------

@dataclass
class Func:
    qualified: str
    name: str
    return_type: str
    sig_line: int
    body_start: int  # token index of '{'
    body_end: int    # token index of matching '}'
    param_range: tuple[int, int]  # token indices of '(' and ')' of params
    file: str = ""
    locals_tick: set = field(default_factory=set)
    locals_other: set = field(default_factory=set)  # non-tick decls (shadowing)
    locals_unordered: set = field(default_factory=set)
    calls: set = field(default_factory=set)
    annotations: set = field(default_factory=set)


def extract_functions(toks, path):
    funcs = []
    ctx = []  # stack of ('ns'|'class'|'brace', name)
    pending_start = 0
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == ";":
            pending_start = i + 1
            i += 1
            continue
        if t == "}":
            if ctx:
                ctx.pop()
            pending_start = i + 1
            i += 1
            continue
        if t == "{":
            pend = toks[pending_start:i]
            kind, name = classify_block(pend)
            if kind == "fn":
                close = match_brace(toks, i)
                fn = make_func(toks, pend, pending_start, i, close, ctx, path)
                if fn is not None:
                    funcs.append(fn)
                    i = close + 1
                    pending_start = i
                    continue
                ctx.append(("brace", ""))
            else:
                ctx.append((kind, name))
            pending_start = i + 1
            i += 1
            continue
        i += 1
    return funcs


def classify_block(pend):
    """What does this '{' open? Returns (kind, name)."""
    idx = 0
    # Skip template<...> prefix.
    while idx < len(pend) and pend[idx].text == "template":
        idx += 1
        if idx < len(pend) and pend[idx].text == "<":
            depth = 0
            while idx < len(pend):
                if pend[idx].text == "<":
                    depth += 1
                elif pend[idx].text == ">":
                    depth -= 1
                    idx += 1
                    if depth == 0:
                        break
                    continue
                idx += 1
    if idx >= len(pend):
        return ("brace", "")
    head = pend[idx].text
    if head == "namespace":
        name = pend[idx + 1].text if idx + 1 < len(pend) and \
            pend[idx + 1].kind == "id" else ""
        return ("ns", name)
    if head in ("class", "struct", "union"):
        j = idx + 1
        name = ""
        while j < len(pend):
            if pend[j].kind == "id" and pend[j].text not in ("final",
                                                             "alignas"):
                name = pend[j].text
            if pend[j].text in (":", "<"):
                break
            j += 1
        return ("class", name)
    if head in ("enum",):
        return ("brace", "")
    if head in CONTROL_KEYWORDS or head in ("do", "else", "try"):
        return ("brace", "")
    if pend and pend[-1].text in ("=", ",", "(", "[", "return"):
        return ("brace", "")  # braced initializer / lambda body fragment
    # Function definition: needs a top-level parenthesized group.
    depth = 0
    has_parens = False
    for t in pend[idx:]:
        if t.text == "(":
            has_parens = True
            break
    return ("fn", "") if has_parens else ("brace", "")


def match_brace(toks, i):
    depth = 0
    n = len(toks)
    while i < n:
        if toks[i].text == "{":
            depth += 1
        elif toks[i].text == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n - 1


def make_func(toks, pend, pend_start, body_open, body_close, ctx, path):
    # Name = identifier chain immediately before the first '(' in pend.
    first_paren = None
    for k, t in enumerate(pend):
        if t.text == "(":
            first_paren = k
            break
    if first_paren is None or first_paren == 0:
        return None
    # Walk back over the name chain (possibly qualified, operators, dtors).
    k = first_paren - 1
    name_parts = []
    if pend[k].kind != "id" and pend[k].text not in (">",):
        # e.g. operator+, operator(), operator[]
        j = k
        while j >= 0 and pend[j].text != "operator":
            j -= 1
        if j >= 0:
            name_parts = [t.text for t in pend[j:first_paren]]
            k = j - 1
        else:
            return None
    else:
        # Skip a template argument list on the name (Foo<T>::bar handled
        # via the :: walk below; name itself rarely templated here).
        name_parts = [pend[k].text]
        k -= 1
    while k >= 1 and pend[k].text == "::" and pend[k - 1].kind == "id":
        name_parts = [pend[k - 1].text, "::"] + name_parts
        k -= 2
    if k >= 0 and pend[k].text == "~":
        name_parts = ["~"] + name_parts
        k -= 1
    name = "".join(name_parts)
    bare = name.split("::")[-1]
    if bare in CONTROL_KEYWORDS:
        return None
    ret = type_str(pend[:k + 1]) if k >= 0 else ""
    classes = [nm for (kind, nm) in ctx if kind == "class" and nm]
    qualified = "::".join(classes + [name]) if classes and "::" not in name \
        else name
    # Parameter token range: first '(' in the ORIGINAL token stream.
    popen = pend_start + (len(pend) - len(pend)) + 0
    # Locate the matching ')' for the parameter list.
    p0 = pend_start
    while toks[p0].text != "(":
        p0 += 1
    depth = 0
    p1 = p0
    while p1 < body_open:
        if toks[p1].text == "(":
            depth += 1
        elif toks[p1].text == ")":
            depth -= 1
            if depth == 0:
                break
        p1 += 1
    return Func(qualified=qualified, name=bare, return_type=ret,
                sig_line=pend[0].line if pend else toks[body_open].line,
                body_start=body_open, body_end=body_close,
                param_range=(p0, p1), file=path)


def scan_function_locals(toks, fn, symbols):
    """Populate fn.locals_tick / locals_unordered from params and body, and
    fn.calls from identifier( sites."""
    # Parameters.
    p0, p1 = fn.param_range
    start = p0 + 1
    depth = 0
    i = start
    while i <= p1:
        t = toks[i].text
        if t in ("(", "<", "[", "{"):
            depth += 1
        elif t in (")", ">", "]", "}"):
            depth -= 1
        if (t == "," and depth == 0) or i == p1:
            scan_decl(toks, start, i, fn, symbols)
            start = i + 1
        i += 1
    # Body statements at any depth: declarations appear after ; { } ( or ,
    # boundaries; we scan windows conservatively.
    i = fn.body_start + 1
    while i < fn.body_end:
        t = toks[i]
        if t.kind == "id" and t.text not in CONTROL_KEYWORDS:
            if i + 1 < fn.body_end and toks[i + 1].text == "(" and \
                    (i == 0 or toks[i - 1].text not in (".", "->")):
                # Skip std::-qualified calls: they never resolve to project
                # functions (kills the std::to_string -> Table::to_string
                # false call-graph edge).
                qualifier = ""
                if i >= 2 and toks[i - 1].text == "::" and \
                        toks[i - 2].kind == "id":
                    qualifier = toks[i - 2].text
                if qualifier not in ("std", "chrono", "ranges"):
                    fn.calls.add(t.text)
            prev = toks[i - 1].text if i > fn.body_start else "{"
            if prev in (";", "{", "}", "(", ",") or prev in ("for",):
                ty, j = read_type(toks, i, fn.body_end)
                if ty and j < fn.body_end and toks[j].kind == "id" and \
                        j + 1 < fn.body_end and \
                        toks[j + 1].text in ("=", ";", ",", ")", "{", "("):
                    tys = type_str(ty)
                    base = tys.replace("const ", "").replace("&", "").strip()
                    if base in symbols.tick_types:
                        fn.locals_tick.add(toks[j].text)
                    else:
                        fn.locals_other.add(toks[j].text)
                    if "unordered_" in tys:
                        fn.locals_unordered.add(toks[j].text)
            # auto x = <tick expr>
            if t.text == "auto" and i + 2 < fn.body_end and \
                    toks[i + 1].kind == "id" and toks[i + 2].text == "=":
                rhs = toks[i + 3] if i + 3 < fn.body_end else None
                if rhs is not None and rhs.kind == "id":
                    if rhs.text in fn.locals_tick or \
                            rhs.text in symbols.tick_fields or \
                            rhs.text in symbols.tick_funcs or \
                            rhs.text.startswith("checked_"):
                        fn.locals_tick.add(toks[i + 1].text)
        i += 1


def scan_decl(toks, s, e, fn, symbols):
    ty, i = read_type(toks, s, e)
    if not ty or i > e or i >= len(toks):
        return
    if toks[i].kind == "id":
        tys = type_str(ty)
        base = tys.replace("const ", "").replace("&", "").strip()
        if base in symbols.tick_types:
            fn.locals_tick.add(toks[i].text)
        else:
            fn.locals_other.add(toks[i].text)
        if "unordered_" in tys:
            fn.locals_unordered.add(toks[i].text)


# --------------------------------------------------------------------------
# Findings
# --------------------------------------------------------------------------

@dataclass
class Finding:
    rule: str
    file: str
    line: int
    col: int
    function: str
    message: str
    snippet: str
    key: str = ""


def normalize_snippet(line_text):
    return re.sub(r"\s+", " ", line_text.strip())[:120]


def finalize_keys(findings, file_lines):
    ordered = sorted(findings, key=lambda f: (f.file, f.line, f.col, f.rule))
    seen = {}
    for f in ordered:
        text = ""
        lines = file_lines.get(f.file)
        if lines and 1 <= f.line <= len(lines):
            text = lines[f.line - 1]
        f.snippet = normalize_snippet(text)
        base = f"{f.rule}:{f.file}:{f.function}:{f.snippet}"
        idx = seen.get(base, 0)
        seen[base] = idx + 1
        f.key = f"{base}#{idx}"
    return ordered


# --------------------------------------------------------------------------
# R1: raw time arithmetic
# --------------------------------------------------------------------------

BINARY_PREV = ("id", "num")  # plus ')' and ']' punct


def prev_is_value(toks, i, lo):
    if i <= lo:
        return False
    p = toks[i - 1]
    if p.kind == "id" and p.text in CONTROL_KEYWORDS:
        return False  # `return -x`, `case -1` ...: unary context
    return p.kind in BINARY_PREV or p.text in (")", "]")


def classify_atom_left(toks, i, lo, fn, symbols):
    """Classify the expression ending at token i (inclusive). Returns
    (is_tick, atom_desc)."""
    t = toks[i]
    if t.text in (")", "]"):
        opener = "(" if t.text == ")" else "["
        depth = 0
        j = i
        while j > lo:
            if toks[j].text == t.text:
                depth += 1
            elif toks[j].text == opener:
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        if j > lo and toks[j - 1].text == ">":
            # `xxx_cast<T>(expr)`: the cast target decides the domain.
            target = cast_target_type(toks, j - 1, lo)
            if target is not None:
                return target, "cast"
        if j > lo and toks[j - 1].kind == "id":
            # call or subscript on a name chain
            return classify_chain(toks, j - 1, lo, fn, symbols,
                                  is_call=(t.text == ")"))
        # Parenthesized subexpression: tick if any identifier inside is.
        for k in range(j + 1, i):
            if toks[k].kind == "id" and ident_is_tick(toks, k, fn, symbols):
                return True, toks[k].text
        return False, "(...)"
    if t.kind == "num":
        return False, t.text
    if t.kind == "id":
        return classify_chain(toks, i, lo, fn, symbols, is_call=False)
    return False, t.text


CAST_KEYWORDS = {"static_cast", "const_cast", "reinterpret_cast"}


def cast_target_type(toks, close_angle, lo):
    """toks[close_angle] is '>'. If this closes an `xxx_cast<T>` target,
    returns True/False for T in the tick domain, else None."""
    depth = 0
    j = close_angle
    while j > lo:
        t = toks[j].text
        if t in (">", ">>"):
            depth += len(t)
        elif t == "<":
            depth -= 1
            if depth == 0:
                break
        j -= 1
    if j <= lo or toks[j - 1].text not in CAST_KEYWORDS:
        return None
    ty = type_str(toks[j + 1:close_angle])
    base = ty.replace("const ", "").replace("&", "").strip()
    return base in ("Time", "ProcCount", "std::int64_t", "int64_t")


def classify_chain(toks, i, lo, fn, symbols, is_call):
    """Classify a name chain ending at identifier index i."""
    name = toks[i].text
    has_member_access = i >= 2 and toks[i - 1].text in (".", "->")
    if is_call:
        return name in symbols.tick_funcs or name.startswith("checked_"), \
            name + "()"
    if not has_member_access:
        if name in fn.locals_tick:
            return True, name
        if name in fn.locals_other:  # a local shadows any same-named field
            return False, name
        if name in symbols.tick_fields:  # implicit this-> member
            return True, name
        return False, name
    return name in symbols.tick_fields, "." + name


def ident_is_tick(toks, i, fn, symbols):
    name = toks[i].text
    nxt = toks[i + 1].text if i + 1 < len(toks) else ""
    if nxt == "(":
        return name in symbols.tick_funcs or name.startswith("checked_")
    if name in fn.locals_tick:
        return True
    if name in fn.locals_other:
        return False
    return name in symbols.tick_fields


def classify_atom_right(toks, i, hi, fn, symbols):
    """Classify the expression starting at token i."""
    # Skip unary prefixes.
    while i < hi and toks[i].text in ("-", "+", "!", "~", "*", "&"):
        i += 1
    if i >= hi:
        return False, ""
    t = toks[i]
    if t.text == "(":
        depth = 0
        j = i
        while j < hi:
            if toks[j].text == "(":
                depth += 1
            elif toks[j].text == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        for k in range(i + 1, j):
            if toks[k].kind == "id" and ident_is_tick(toks, k, fn, symbols):
                return True, toks[k].text
        return False, "(...)"
    if t.kind == "num":
        return False, t.text
    if t.kind == "id":
        if t.text in CAST_KEYWORDS and i + 1 < hi and \
                toks[i + 1].text == "<":
            depth = 0
            j = i + 1
            while j < hi:
                x = toks[j].text
                if x == "<":
                    depth += 1
                elif x in (">", ">>"):
                    depth -= len(x)
                    if depth <= 0:
                        break
                j += 1
            ty = type_str(toks[i + 2:j])
            base = ty.replace("const ", "").replace("&", "").strip()
            return base in ("Time", "ProcCount", "std::int64_t",
                            "int64_t"), "cast"
        # Walk the chain forward to its last member.
        j = i
        while j + 2 < hi and toks[j + 1].text in (".", "->", "::") and \
                toks[j + 2].kind == "id":
            j += 2
        name = toks[j].text
        nxt = toks[j + 1].text if j + 1 < hi else ""
        if nxt == "(":
            return name in symbols.tick_funcs or \
                name.startswith("checked_"), name + "()"
        if j == i and toks[j - 1].text not in (".", "->"):
            if name in fn.locals_tick:
                return True, name
            if name in fn.locals_other:
                return False, name
            if name in symbols.tick_fields:
                return True, name
            return False, name
        return name in symbols.tick_fields, "." + name
    return False, t.text


TYPE_NAME_HINTS = None  # filled per run: union of tick types + common types


def rule_r1(toks, fn, symbols, ann, relpath, findings):
    if relpath in R1_FILE_ALLOWLIST:
        return
    lo, hi = fn.body_start, fn.body_end
    i = lo + 1
    while i < hi:
        t = toks[i]
        if t.kind != "punct" or t.text not in ("+", "-", "*", "+=", "-=",
                                               "*="):
            i += 1
            continue
        if t.text in ("+", "-", "*"):
            if not prev_is_value(toks, i, lo):
                i += 1
                continue
            if t.text == "*":
                nxt = toks[i + 1] if i + 1 < hi else None
                if nxt is None or (nxt.kind not in ("id", "num") and
                                   nxt.text != "("):
                    i += 1
                    continue
                # `Time* p` style declarations: prev ident is a known type.
                if toks[i - 1].kind == "id" and \
                        toks[i - 1].text in symbols.tick_types:
                    i += 1
                    continue
            # operator+ / operator- definitions or calls
            if toks[i - 1].kind == "id" and toks[i - 1].text == "operator":
                i += 1
                continue
        left_tick, left_desc = classify_atom_left(toks, i - 1, lo, fn,
                                                  symbols)
        right_tick, right_desc = classify_atom_right(toks, i + 1, hi, fn,
                                                     symbols)
        if not (left_tick or right_tick):
            i += 1
            continue
        if ann.suppressed("R1", t.line) or "R1" in fn.annotations:
            i += 1
            continue
        which = left_desc if left_tick else right_desc
        findings.append(Finding(
            "R1", relpath, t.line, t.col, fn.qualified,
            f"raw '{t.text}' on tick-domain operand '{which}'; route through "
            f"checked_add/checked_sub/checked_mul or annotate "
            f"time-arith-audited(...)", ""))
        i += 1


# --------------------------------------------------------------------------
# R2: determinism
# --------------------------------------------------------------------------

def rule_r2(toks, funcs, symbols, ann, relpath, findings):
    if relpath in R2_FILE_ALLOWLIST:
        return
    n = len(toks)

    def fn_at(line):
        for f in funcs:
            if toks[f.body_start].line <= line <= toks[f.body_end].line:
                return f
        return None

    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        f = fn_at(t.line)
        suppressed = ann.suppressed("R2", t.line) or \
            (f is not None and "R2" in f.annotations)
        # Entropy / wall-clock primitives.
        if t.text in ENTROPY_IDENTS:
            prev = toks[i - 1].text if i > 0 else ""
            nxt = toks[i + 1].text if i + 1 < n else ""
            if prev in (".", "->"):
                continue  # member named rand? not the libc one
            if t.text in ("rand", "srand") and nxt != "(":
                continue
            if not suppressed:
                findings.append(Finding(
                    "R2", relpath, t.line, t.col,
                    f.qualified if f else "<file scope>",
                    f"unseeded entropy source '{t.text}' outside util/prng; "
                    f"all randomness must flow through the seeded Prng",
                    ""))
            continue
        if t.text in WALL_CLOCKS:
            if not suppressed:
                findings.append(Finding(
                    "R2", relpath, t.line, t.col,
                    f.qualified if f else "<file scope>",
                    f"wall clock '{t.text}' in deterministic code; timing "
                    f"belongs to the audited latency modules "
                    f"(determinism-audited) or the bench layer", ""))
            continue
        if t.text == "time" and i + 1 < n and toks[i + 1].text == "(" and \
                (i == 0 or toks[i - 1].text not in (".", "->", "::")):
            # bare time(...) libc call; `Time` the type differs by case.
            inner = toks[i + 2].text if i + 2 < n else ""
            if inner in ("nullptr", "NULL", "0", ")"):
                if not suppressed:
                    findings.append(Finding(
                        "R2", relpath, t.line, t.col,
                        f.qualified if f else "<file scope>",
                        "libc time() is a wall clock; deterministic code "
                        "must not read it", ""))
            continue

    # Unordered-container iteration + pointer-keyed ordered containers.
    for f in funcs:
        body = range(f.body_start + 1, f.body_end)
        for i in body:
            t = toks[i]
            if t.kind != "id":
                continue
            unordered = t.text in f.locals_unordered or \
                t.text in symbols.unordered_names
            if not unordered:
                continue
            suppressed = ann.suppressed("R2", t.line) or \
                "R2" in f.annotations
            nxt1 = toks[i + 1].text if i + 1 < f.body_end else ""
            nxt2 = toks[i + 2].text if i + 2 < f.body_end else ""
            # range-for: `for (decl : name)` -- previous non-chain token ':'
            prev = toks[i - 1].text if i > 0 else ""
            if prev == ":" and not suppressed:
                findings.append(Finding(
                    "R2", relpath, t.line, t.col, f.qualified,
                    f"range-for over unordered container '{t.text}': hash "
                    f"order must not feed schedules/aggregates/output; use "
                    f"a sorted container or sort the keys first", ""))
                continue
            if nxt1 == "." and nxt2 in ("begin", "cbegin", "rbegin") and \
                    not suppressed:
                findings.append(Finding(
                    "R2", relpath, t.line, t.col, f.qualified,
                    f"iteration over unordered container '{t.text}' "
                    f"(.{nxt2}): hash order is not deterministic", ""))

    # Pointer-keyed map/set declarations anywhere in the file.
    text_lines = {}
    i = 0
    while i < n - 1:
        t = toks[i]
        if t.kind == "id" and t.text in ("map", "set", "multimap",
                                         "multiset") and \
                toks[i + 1].text == "<":
            # key type = tokens up to first top-level ',' or '>'
            j = i + 2
            depth = 1
            key_has_ptr = False
            while j < n and depth > 0:
                x = toks[j].text
                if x == "<":
                    depth += 1
                elif x in (">", ">>"):
                    depth -= len(x)
                elif x == "," and depth == 1:
                    break
                elif x == "*" and depth == 1:
                    key_has_ptr = True
                j += 1
            if key_has_ptr and not ann.suppressed("R2", t.line):
                f = None
                for fx in funcs:
                    if toks[fx.body_start].line <= t.line <= \
                            toks[fx.body_end].line:
                        f = fx
                        break
                if f is None or "R2" not in f.annotations:
                    findings.append(Finding(
                        "R2", relpath, t.line, t.col,
                        f.qualified if f else "<file scope>",
                        f"pointer-keyed std::{t.text}: pointer order is not "
                        f"deterministic across runs; key by a stable id",
                        ""))
        i += 1


# --------------------------------------------------------------------------
# R3: hot-path allocation
# --------------------------------------------------------------------------

def build_call_graph(all_funcs):
    by_name: dict[str, list[Func]] = {}
    for f in all_funcs:
        by_name.setdefault(f.name, []).append(f)
    edges: dict[int, set[int]] = {}
    index = {id(f): k for k, f in enumerate(all_funcs)}
    for f in all_funcs:
        outs = set()
        for callee in f.calls:
            for g in by_name.get(callee, ()):
                outs.add(index[id(g)])
        edges[index[id(f)]] = outs
    return edges, index


def r3_roots(all_funcs):
    roots = []
    for k, f in enumerate(all_funcs):
        for pat in R3_ROOT_PATTERNS:
            if re.search(pat, f.qualified):
                roots.append(k)
                break
    return roots


def reachable_from(edges, roots):
    seen = {}
    stack = [(r, None) for r in roots]
    while stack:
        node, parent = stack.pop()
        if node in seen:
            continue
        seen[node] = parent
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                stack.append((nxt, node))
    return seen


def witness_path(seen, node, all_funcs):
    chain = []
    cur = node
    while cur is not None and len(chain) < 12:
        chain.append(all_funcs[cur].qualified)
        cur = seen.get(cur)
    return " <- ".join(chain)


def rule_r3(file_tokens, funcs_by_file, all_funcs, ann_by_file, findings):
    edges, index = build_call_graph(all_funcs)
    roots = r3_roots(all_funcs)
    seen = reachable_from(edges, roots)
    for relpath, funcs in funcs_by_file.items():
        toks = file_tokens[relpath]
        ann = ann_by_file[relpath]
        for f in funcs:
            k = index[id(f)]
            if k not in seen:
                continue
            if "R3" in f.annotations:
                continue
            path = witness_path(seen, k, all_funcs)
            scan_r3_body(toks, f, ann, relpath, path, findings)


def scan_r3_body(toks, f, ann, relpath, path, findings):
    lo, hi = f.body_start, f.body_end
    i = lo + 1
    while i < hi:
        t = toks[i]
        if t.kind != "id":
            i += 1
            continue
        if ann.suppressed("R3", t.line):
            i += 1
            continue
        nxt = toks[i + 1].text if i + 1 < hi else ""
        if t.text == "new":
            # Placement new (`new (arena) T`) targets pre-owned storage.
            if nxt != "(":
                findings.append(Finding(
                    "R3", relpath, t.line, t.col, f.qualified,
                    f"'new' on the service hot path (reachable: {path}); "
                    f"use the decision Arena or a recycled buffer", ""))
            i += 1
            continue
        if t.text in ALLOC_CALLS and nxt in ("(", "<"):
            findings.append(Finding(
                "R3", relpath, t.line, t.col, f.qualified,
                f"allocating call '{t.text}' on the service hot path "
                f"(reachable: {path})", ""))
            i += 1
            continue
        if t.text in ALLOC_ALGOS and nxt == "(":
            findings.append(Finding(
                "R3", relpath, t.line, t.col, f.qualified,
                f"'{t.text}' heap-allocates its merge buffer in libstdc++ "
                f"(the PR 8 std::stable_sort discovery); use an in-place "
                f"alternative over a total order (reachable: {path})", ""))
            i += 1
            continue
        # Local owning-container declaration: std :: <container> < ... > name
        prev = toks[i - 1].text if i > lo else "{"
        if t.text == "std" and nxt == "::" and i + 2 < hi and \
                toks[i + 2].text in OWNING_CONTAINERS and \
                prev in (";", "{", "}", "(", ","):
            if prev == "(":
                i += 1  # parameter or cast, not a local
                continue
            if toks[i - 1].text == "static" or \
                    (i > lo + 1 and toks[i - 2].text == "static"):
                i += 1
                continue
            ty, j = read_type(toks, i, hi)
            tys = type_str(ty)
            if any(x in tys for x in R3_EXEMPT_TYPES):
                i = j
                continue
            if "&" in tys or "*" in tys:
                i = j
                continue
            if j < hi and toks[j].kind == "id" and j + 1 < hi and \
                    toks[j + 1].text in ("=", ";", "{", "("):
                findings.append(Finding(
                    "R3", relpath, t.line, t.col, f.qualified,
                    f"local owning container '{toks[j].text}' "
                    f"({tys.split('<')[0]}) constructed per call on the "
                    f"service hot path (reachable: {path}); hoist to a "
                    f"recycled member or use ScratchVec on the decision "
                    f"Arena", ""))
                i = j + 1
                continue
        i += 1


# --------------------------------------------------------------------------
# Analysis driver
# --------------------------------------------------------------------------

def discover_files(repo_root, compile_commands, explicit):
    if explicit:
        return [os.path.abspath(p) for p in explicit]
    files = set()
    if compile_commands and os.path.exists(compile_commands):
        try:
            for entry in json.load(open(compile_commands)):
                p = entry.get("file", "")
                if not os.path.isabs(p):
                    p = os.path.join(entry.get("directory", ""), p)
                p = os.path.abspath(p)
                if p.startswith(os.path.join(repo_root, "src") + os.sep):
                    files.add(p)
        except (ValueError, OSError) as exc:
            sys.stderr.write(f"resched-lint: bad compile_commands "
                             f"({exc}); globbing src/ instead\n")
    for pat in ("src/**/*.hpp", "src/**/*.cpp"):
        for p in glob.glob(os.path.join(repo_root, pat), recursive=True):
            files.add(os.path.abspath(p))
    return sorted(files)


def analyze(repo_root, files, rules):
    file_tokens = {}
    file_lines = {}
    ann_by_file = {}
    funcs_by_file = {}
    symbols = Symbols()
    problems = []

    for path in files:
        rel = os.path.relpath(path, repo_root).replace(os.sep, "/")
        try:
            text = open(path, encoding="utf-8", errors="replace").read()
        except OSError as exc:
            problems.append((rel, 0, f"cannot read: {exc}"))
            continue
        toks, comments, _pp = tokenize(text)
        file_tokens[rel] = toks
        file_lines[rel] = text.splitlines()
        code_lines = sorted({t.line for t in toks})
        ann = AnnotationSet(comments, code_lines)
        for (line, msg) in ann.problems:
            problems.append((rel, line, msg))
        ann_by_file[rel] = ann

    harvest_aliases(file_tokens, symbols)
    for rel, toks in file_tokens.items():
        harvest_class_members(toks, symbols)

    all_funcs = []
    for rel, toks in file_tokens.items():
        funcs = extract_functions(toks, rel)
        for f in funcs:
            if f.return_type:
                base = f.return_type.replace("const ", "") \
                    .replace("&", "").strip()
                if base in symbols.tick_types:
                    symbols.tick_funcs.add(f.name)
        funcs_by_file[rel] = funcs
        all_funcs.extend(funcs)

    for rel, funcs in funcs_by_file.items():
        toks = file_tokens[rel]
        ann = ann_by_file[rel]
        for f in funcs:
            scan_function_locals(toks, f, symbols)
            # Function-scope annotations directly above the signature.
            for a in ann.function_anns:
                if f.sig_line - 2 <= a.target_line <= \
                        toks[f.body_start].line:
                    f.annotations.add(a.rule)

    findings = []
    for rel, funcs in funcs_by_file.items():
        toks = file_tokens[rel]
        ann = ann_by_file[rel]
        if "R1" in rules:
            for f in funcs:
                rule_r1(toks, f, symbols, ann, rel, findings)
        if "R2" in rules:
            rule_r2(toks, funcs, symbols, ann, rel, findings)
    if "R3" in rules:
        rule_r3(file_tokens, funcs_by_file, all_funcs, ann_by_file, findings)

    return finalize_keys(findings, file_lines), problems


# --------------------------------------------------------------------------
# Baseline
# --------------------------------------------------------------------------

def load_baseline(path):
    data = json.load(open(path))
    entries = {e["key"]: e.get("justification", "")
               for e in data.get("entries", [])}
    return entries


def write_baseline(path, findings, old):
    entries = []
    for f in findings:
        just = old.get(f.key, "TODO: justify")
        entries.append({"key": f.key, "rule": f.rule, "file": f.file,
                        "function": f.function, "snippet": f.snippet,
                        "justification": just})
    payload = {
        "comment": "resched-lint accepted findings. Policy: this file may "
                   "only SHRINK -- fix findings and delete their entries. "
                   "Every entry needs a human-written justification; the "
                   "gate rejects 'TODO: justify'.",
        "entries": entries,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=False)
        fh.write("\n")


def apply_baseline(findings, baseline):
    new = [f for f in findings if f.key not in baseline]
    found_keys = {f.key for f in findings}
    stale = sorted(k for k in baseline if k not in found_keys)
    unjustified = sorted(
        k for k, just in baseline.items()
        if k in found_keys and (not just.strip() or
                                just.strip().upper().startswith("TODO")))
    return new, stale, unjustified


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="resched-lint",
        description="Project-invariant static analyzer for resched "
                    "(R1 time-arith, R2 determinism, R3 hot-path "
                    "allocation).")
    ap.add_argument("paths", nargs="*",
                    help="explicit files to analyze (default: src/ tree / "
                         "compile_commands.json)")
    ap.add_argument("--repo-root", default=None)
    ap.add_argument("--compile-commands", default=None,
                    help="build/compile_commands.json (selects the "
                         "translation units under src/)")
    ap.add_argument("--baseline", default=None,
                    help="gate against this baseline file")
    ap.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline: prune stale entries, add "
                         "new findings as TODO")
    ap.add_argument("--rules", default="R1,R2,R3")
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    repo_root = os.path.abspath(args.repo_root) if args.repo_root else \
        os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
    cc = args.compile_commands
    if cc is None:
        guess = os.path.join(repo_root, "build", "compile_commands.json")
        cc = guess if os.path.exists(guess) else None

    rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
    for r in rules:
        if r not in RULES:
            ap.error(f"unknown rule {r}")

    files = discover_files(repo_root, cc, args.paths)
    if not files:
        sys.stderr.write("resched-lint: no input files\n")
        return 2

    findings, problems = analyze(repo_root, files, rules)

    if problems:
        for (rel, line, msg) in problems:
            sys.stderr.write(f"{rel}:{line}: annotation error: {msg}\n")
        return 2

    if args.update_baseline:
        if not args.baseline:
            ap.error("--update-baseline needs --baseline")
        old = load_baseline(args.baseline) if \
            os.path.exists(args.baseline) else {}
        write_baseline(args.baseline, findings, old)
        todo = sum(1 for f in findings if
                   old.get(f.key, "TODO: justify").startswith("TODO"))
        print(f"resched-lint: baseline rewritten with {len(findings)} "
              f"entries ({todo} still TODO; the gate rejects those)")
        return 0

    if args.format == "json":
        print(json.dumps({
            "findings": [{
                "rule": f.rule, "file": f.file, "line": f.line,
                "col": f.col, "function": f.function,
                "message": f.message, "key": f.key,
            } for f in findings],
        }, indent=1))
    else:
        if not args.quiet:
            for f in findings:
                print(f"{f.file}:{f.line}:{f.col}: [{f.rule}] {f.message} "
                      f"[in {f.function}]")

    if args.baseline:
        baseline = load_baseline(args.baseline)
        new, stale, unjustified = apply_baseline(findings, baseline)
        ok = True
        if new:
            ok = False
            sys.stderr.write(
                f"\nresched-lint: {len(new)} NEW finding(s) not in the "
                f"baseline (fix them or annotate with a justification):\n")
            for f in new:
                sys.stderr.write(f"  {f.file}:{f.line}: [{f.rule}] "
                                 f"{f.message}\n")
        if stale:
            ok = False
            sys.stderr.write(
                f"\nresched-lint: {len(stale)} STALE baseline entr"
                f"{'y' if len(stale) == 1 else 'ies'} -- the finding was "
                f"fixed; delete the entry (the baseline must only "
                f"shrink):\n")
            for k in stale:
                sys.stderr.write(f"  {k}\n")
        if unjustified:
            ok = False
            sys.stderr.write(
                f"\nresched-lint: {len(unjustified)} baseline entr"
                f"{'y' if len(unjustified) == 1 else 'ies'} without a real "
                f"justification:\n")
            for k in unjustified:
                sys.stderr.write(f"  {k}\n")
        if ok:
            print(f"resched-lint: OK -- {len(findings)} "
                  f"finding(s), all baselined with justifications "
                  f"({len(files)} files)")
            return 0
        return 1

    print(f"resched-lint: {len(findings)} finding(s) in "
          f"{len(files)} files")
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main())
