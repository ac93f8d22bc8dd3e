"""The claim suite: re-checks every finitely checkable structural claim
behind the constructions and emits a deterministic report.

Claims are registered in a fixed order under stable ids (C1..C14) so
that reports can be diffed across runs and refactors.  With a fixed seed
two runs produce byte-identical JSON up to the timing fields.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

from .errors import BudgetExceededError, WorkbenchError
from .identities import (
    DEFAULT_MATCH_BUDGET,
    DEFAULT_TABLE_BUDGET,
    FAILS,
    HOLDS,
    CheckOutcome,
    Identity,
    Substitution,
    _element_index,
    basis,
    check_no_div_instance,
    check_rees,
    check_table,
    separation_identity,
)
from .monoid import ZERO, from_presentation, preset
from .rees import quotient_map, rees_quotient
from .words import (
    Letter,
    Word,
    WordSet,
    depth_map,
    factor_trie,
    generate_wn,
    is_square_free,
    length2_profile,
    letter_positions,
    min_nonlinear_simplefree_factor,
    parse_word,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
BUDGET = "BUDGET"


@dataclass(frozen=True)
class VerifyConfig:
    max_n: int = 2
    seed: int = 0
    table_budget: int = DEFAULT_TABLE_BUDGET
    match_budget: int = DEFAULT_MATCH_BUDGET


@dataclass
class ClaimResult:
    id: str
    title: str
    status: str
    witness: object
    millis: int


@dataclass
class Report:
    config: VerifyConfig
    claims: list[ClaimResult] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "skipped": 0, "budget": 0}
        for c in self.claims:
            counts[c.status.lower()] += 1
        return counts

    @property
    def all_passed(self) -> bool:
        return all(c.status in (PASS, SKIPPED) for c in self.claims)

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "claims": [asdict(c) for c in self.claims],
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = []
        for c in self.claims:
            lines.append(f"{c.id:<4} {c.status:<8} {c.millis:>7} ms  {c.title}")
        s = self.summary
        lines.append(
            f"summary: {s['pass']} pass, {s['fail']} fail, "
            f"{s['skipped']} skipped, {s['budget']} budget"
        )
        return "\n".join(lines)


def substitution_to_dict(sub: Substitution, monoid=None) -> dict:
    """JSON-ready view of a substitution; element indices are resolved to
    labels when a monoid is supplied.

    Element indices are read as :func:`evaluate` reads them: any integer
    type but ``bool``, numpy integers included."""
    out = {}
    for letter, value in sub.assignment:
        if value is ZERO:
            out[str(letter)] = "0"
        elif isinstance(value, Word):
            out[str(letter)] = str(value)
        elif (e := _element_index(value)) is None:
            out[str(letter)] = repr(value)
        elif monoid is not None:
            out[str(letter)] = monoid.label_text(e)
        else:
            out[str(letter)] = repr(e)
    return out


def _word_set_for(indices) -> WordSet:
    return WordSet.of(generate_wn(i) for i in indices)


def _subsets(limit: int) -> list[tuple[int, ...]]:
    base = list(range(1, limit + 1))
    out: list[tuple[int, ...]] = []
    for r in range(len(base) + 1):
        out.extend(itertools.combinations(base, r))
    return out


def _singletons(limit: int) -> list[tuple[int, ...]]:
    """The empty subset, then (k,) for k = 1..limit."""
    return [()] + [(k,) for k in range(1, limit + 1)]


def _word_verdicts(ident: Identity, cfg: VerifyConfig) -> list[CheckOutcome]:
    """``check_rees`` outcomes of ``ident`` on the empty word set (entry 0)
    and on each {w_k} (entry k), k = 1..max_n.

    A subset W of the family satisfies ``ident`` exactly when entry 0 and
    the entry of every member of W hold: var M(W) is the join of the
    var M({w}) for w in W (Jackson and Sapir, "Finitely based, finite sets
    of words", 2000).  The conjunction is exact for ``check_rees`` on W
    itself.  Its alphabet rule fails on every W, the empty one included,
    so it lives in entry 0; past that rule each word of W is scanned on
    its own.  Matcher nodes add up per scanned word, so a search on W
    costs the sum of its members' searches; each entry here gets the whole
    match budget.
    """
    return [
        check_rees(_word_set_for(s), ident, cfg.match_budget) for s in _singletons(cfg.max_n)
    ]


def _separation_rows(cfg: VerifyConfig):
    """``rows(n)``: the :func:`_word_verdicts` row of sep(n), computed at
    most once per returned function.  C7 reads the rows as the separation
    matrix and C9 derives its subset verdicts from them, so one matrix
    serves both.  A row that runs out of budget stores its
    :class:`BudgetExceededError`, and every later call raises that same
    error: the search is deterministic, so it would run out again."""
    memo: dict[int, list[CheckOutcome] | BudgetExceededError] = {}

    def rows(n: int) -> list[CheckOutcome]:
        if n not in memo:
            try:
                memo[n] = _word_verdicts(separation_identity(n), cfg)
            except BudgetExceededError as exc:
                memo[n] = exc
        if isinstance(memo[n], BudgetExceededError):
            raise memo[n]
        return memo[n]

    return rows


def _claim_orders(cfg: VerifyConfig):
    expected = {"aabb": 10, "abab": 9, "abba": 10, "": 2}
    for text, want in expected.items():
        words = [parse_word(text)] if text else []
        got = rees_quotient(WordSet.of(words)).order
        if got != want:
            return FAIL, {"word": text or "(empty)", "expected": want, "actual": got}
    return PASS, None


def _claim_sigma_both(cfg: VerifyConfig):
    ws = WordSet.of([parse_word("aabb")])
    q = rees_quotient(ws)
    for ident in basis("SIGMA"):
        t = check_table(q, ident, cfg.table_budget)
        r = check_rees(ws, ident, cfg.match_budget)
        if t.status != HOLDS or r.status != HOLDS:
            return FAIL, {
                "identity": str(ident),
                "table": t.status,
                "rees": r.status,
            }
    return PASS, None


def _claim_lee_li(cfg: VerifyConfig):
    m = from_presentation(preset("M_SCRIPT"))
    if m.order != 6:
        return FAIL, {"monoid": "M_SCRIPT", "expected_order": 6, "actual": m.order}
    ws = WordSet.of([parse_word("aabb")])
    q = rees_quotient(ws)
    for ident in basis("LEE_LI"):
        in_m = check_table(m, ident, cfg.table_budget)
        if in_m.status != HOLDS:
            return FAIL, {
                "identity": str(ident),
                "monoid": "M_SCRIPT",
                "witness": substitution_to_dict(in_m.witness, m),
            }
        in_q_table = check_table(q, ident, cfg.table_budget)
        in_q_rees = check_rees(ws, ident, cfg.match_budget)
        if in_q_table.status != HOLDS or in_q_rees.status != HOLDS:
            return FAIL, {
                "identity": str(ident),
                "monoid": "M(aabb)",
                "table": in_q_table.status,
                "rees": in_q_rees.status,
            }
    return PASS, None


def _claim_presented_orders(cfg: VerifyConfig):
    for name in ("M_SCRIPT", "A21", "B21"):
        m = from_presentation(preset(name))
        if m.order != 6:
            return FAIL, {"preset": name, "expected_order": 6, "actual": m.order}
    return PASS, None


def _expected_depths(n: int) -> dict[Letter, int]:
    table: dict[Letter, int] = {Letter("x"): n + 1}
    for i in range(1, n + 1):
        table[Letter("t", i)] = 0
        table[Letter("z", i)] = 1
        for k in range(0, n + 1):
            table[Letter("y", i, k)] = k
    return table


def _claim_depth_family(cfg: VerifyConfig):
    for n in range(1, cfg.max_n + 2):
        got = depth_map(generate_wn(n))
        want = _expected_depths(n)
        if got != want:
            diff = {
                str(l): [want.get(l), got.get(l)]
                for l in set(want) | set(got)
                if want.get(l) != got.get(l)
            }
            return FAIL, {"n": n, "mismatches": diff}
    return PASS, None


def _claim_word_structure(cfg: VerifyConfig):
    for n in range(1, cfg.max_n + 2):
        w = generate_wn(n)
        pos = letter_positions(w)
        checks = {
            "length": (len(w), 2 * (n + 1) ** 2),
            "alphabet": (len(pos), n * (n + 3) + 1),
            "square_free": (is_square_free(w), True),
            "max_occurrences": (max(map(len, pos.values())), 2),
            "min_nonlinear_simplefree": (min_nonlinear_simplefree_factor(w), 2 * n + 2),
        }
        l2 = length2_profile(w)
        checks["length2_unique"] = (l2.all_unique, True)
        checks["length2_first_last"] = (l2.all_first_last, True)
        for name, (got, want) in checks.items():
            if got != want:
                return FAIL, {"n": n, "check": name, "expected": want, "actual": got}
    return PASS, None


def _claim_separation_matrix(cfg: VerifyConfig, rows):
    for n in range(1, cfg.max_n + 1):
        expected_witness = Substitution.identity_on(generate_wn(n).alphabet)
        row = rows(n)
        for k in range(1, cfg.max_n + 1):
            out = row[k]
            want = HOLDS if n != k else FAILS
            if out.status != want:
                return FAIL, {"n": n, "k": k, "expected": want, "actual": out.status}
            if n == k and out.witness != expected_witness:
                return FAIL, {
                    "n": n,
                    "k": k,
                    "witness": substitution_to_dict(out.witness),
                    "expected_witness": substitution_to_dict(expected_witness),
                }
    return PASS, None


def _claim_sigma_truncations(cfg: VerifyConfig):
    # every larger subset holds when these do (see _word_verdicts)
    for ident in basis("SIGMA"):
        for subset, out in zip(_singletons(cfg.max_n), _word_verdicts(ident, cfg)):
            if out.status != HOLDS:
                return FAIL, {
                    "subset": list(subset),
                    "identity": str(ident),
                    "status": out.status,
                    "witness": substitution_to_dict(out.witness),
                }
    return PASS, None


def _claim_distinct_varieties(cfg: VerifyConfig, rows):
    if cfg.max_n < 2:
        return SKIPPED, {"reason": "needs at least two distinct subsets to compare"}

    def holds(subset, n):
        return all(rows(n)[k].status == HOLDS for k in (0, *subset))

    for first, second in itertools.combinations(_subsets(cfg.max_n), 2):
        if not any(holds(first, n) != holds(second, n) for n in set(first) ^ set(second)):
            return FAIL, {"subsets": [list(first), list(second)]}
    return PASS, None


def _claim_quotient_maps(cfg: VerifyConfig):
    """C10: for every nested pair W' ⊆ W of subsets of F = {w_1..w_max_n},
    the map phi_{W->W'} from M(W) onto M(W') that fixes the factors of W'
    and sends every other element to zero is a surjective homomorphism.
    Only the 2^max_n maps phi_{F->W} are checked, by :func:`quotient_map`.

    **Lemma.** If every phi_{F->W} is a surjective homomorphism, so is
    every phi_{W->W'}.

    **Proof.** A factor of W' is a factor of W, so phi_{F->W'} =
    phi_{W->W'} o phi_{F->W} as maps: a factor of F that is one of W' is
    fixed by both sides, and any other goes to zero.  Given x and y in
    M(W), pick x' and y' in M(F) with phi_{F->W}(x') = x and
    phi_{F->W}(y') = y.  Then phi_{W->W'}(xy) = phi_{W->W'}(phi_{F->W}(x'y'))
    = phi_{F->W'}(x'y') = phi_{F->W'}(x') phi_{F->W'}(y') =
    phi_{W->W'}(x) phi_{W->W'}(y), and phi_{W->W'} is onto because
    phi_{F->W'} is.
    """
    full = _word_set_for(range(1, cfg.max_n + 1))
    for subset in _subsets(cfg.max_n):
        quotient_map(full, _word_set_for(subset))
    return PASS, None


def _alignment_premise(w: Word) -> str | None:
    """The first premise of the alignment lemma that ``w`` breaks, or None.

    **Lemma.** Let t be a word in which every letter occurs at most twice
    (``max_occurrences``) and every length-2 factor occurs at only one
    position (``length2_unique``).  Then every factor match phi of any
    pattern p into t has the alignment property that
    :func:`~monoidlab.identities.check_star_property` checks.

    **Proof.** Let c occur at positions i < j of p, let phi(c) be
    nonempty, and let the image be placed at s.  The two occurrences of
    phi(c) are disjoint segments of t, starting at s + o_i < s + o_j.
    If |phi(c)| >= 2, the first two letters of phi(c) form a length-2
    factor at two different positions, against the second premise.  If
    phi(c) = d, then d sits at s + o_i and at s + o_j; since d occurs at
    most twice, these are its first and second occurrences, in that
    order.  This holds at every placement s.  A letter that occurs three
    or more times in p cannot have a nonempty image, and the property
    reads only the first two occurrences anyway.
    """
    if max(map(len, letter_positions(w).values())) > 2:
        return "max_occurrences"
    if len(w) >= 2 and not length2_profile(w).all_unique:
        return "length2_unique"
    return None


def _claim_star_property(cfg: VerifyConfig):
    # w_1 is never a target: the claim pairs w_n with w_k for n < k
    for k in range(2, cfg.max_n + 1):
        premise = _alignment_premise(generate_wn(k))
        if premise is not None:
            return FAIL, {"k": k, "premise": premise}
    return PASS, None


_NO_DIV_ALPHABET = "abcde"


def random_no_div_instance(rng: random.Random):
    """One random (w, phi, a, b) tuple for the containment property."""
    letters = [Letter(c) for c in _NO_DIV_ALPHABET]

    def rand_word(lo: int, hi: int) -> Word:
        return Word(tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi))))

    w = rand_word(2, 8)
    phi = Substitution.of({l: rand_word(0, 3) for l in w.alphabet})
    return w, phi, rand_word(0, 3), rand_word(0, 3)


def _claim_no_div(cfg: VerifyConfig):
    rng = random.Random(cfg.seed * 1_000_003 + 12)
    for i in range(1000):
        w, phi, a, b = random_no_div_instance(rng)
        if not check_no_div_instance(w, phi, a, b):
            return FAIL, {
                "index": i,
                "w": str(w),
                "phi": substitution_to_dict(phi),
                "a": str(a),
                "b": str(b),
            }
    return PASS, None


@dataclass(frozen=True)
class CrossCheckResult:
    ok: bool
    checked: int
    discrepancy: dict | None


def random_identity(rng: random.Random) -> Identity:
    """A random identity with at most 3 variables and sides of length at most 6."""
    variables = [Letter("x"), Letter("y"), Letter("z")][: rng.randint(1, 3)]

    def side() -> Word:
        return Word(tuple(rng.choice(variables) for _ in range(rng.randint(0, 6))))

    return Identity(side(), side())


def _cross_check_corpus() -> list[WordSet]:
    return [
        WordSet.of([]),
        WordSet.of([parse_word("ab")]),
        WordSet.of([parse_word("aabb")]),
        WordSet.of([parse_word("abab")]),
        WordSet.of([parse_word("abba")]),
        WordSet.of([generate_wn(1)]),
        WordSet.of([generate_wn(1), generate_wn(2)]),
    ]


def cross_check_checkers(
    seed: int,
    count: int = 200,
    table_budget: int = DEFAULT_TABLE_BUDGET,
    match_budget: int = DEFAULT_MATCH_BUDGET,
) -> CrossCheckResult:
    """Compare the word-level checker against the brute-force table
    checker on seeded random identities over the fixed word-set corpus."""
    rng = random.Random(seed)
    idents = [random_identity(rng) for _ in range(count)]
    checked = 0
    for ws in _cross_check_corpus():
        q = rees_quotient(ws)
        for ident in idents:
            fast = check_rees(ws, ident, match_budget)
            slow = check_table(q, ident, table_budget)
            checked += 1
            if fast.status != slow.status:
                return CrossCheckResult(
                    False,
                    checked,
                    {
                        "word_set": str(ws),
                        "identity": str(ident),
                        "rees": fast.status,
                        "table": slow.status,
                    },
                )
    return CrossCheckResult(True, checked, None)


def _claim_cross_check(cfg: VerifyConfig):
    result = cross_check_checkers(
        cfg.seed, 200, cfg.table_budget, cfg.match_budget
    )
    if not result.ok:
        return FAIL, result.discrepancy
    return PASS, None


def enumerate_small_rees(max_len: int = 8, max_order: int = 10) -> list[tuple[Word, int]]:
    """Canonical words with two letters each repeated whose quotient has
    order at most ``max_order``, in shortlex order; orders come from the
    factor count.

    A canonical word is a restricted-growth shape, one per letter-renaming
    class of words: value v spells the letter ``chr(ord("a") + v)``, and
    letters first appear in the order a, b, c, ...  The search walks the
    shapes level by level and extends a shape only while its order (its
    distinct factors, the empty one included, plus the zero) is at most
    ``max_order``.

    **Lemma.** The walk reaches every shape of length at most ``max_len``
    and order at most ``max_order``, and each level comes out in
    lexicographic order.

    **Proof.** Every factor of a prefix is a factor of the word, so the
    order never falls along an extension, and every prefix of a
    qualifying shape qualifies.  Every prefix of a restricted-growth shape
    is one, so a qualifying shape is reached from its prefixes.  A level
    is extended in its own order, each shape by increasing next values,
    so the next level is sorted too, and the results come out in shortlex
    order.  A word of length L has the L + 1
    distinct prefixes as factors, so its order is at least L + 2 and the
    walk ends by itself after length ``max_order - 2``.  Each shape's
    factor trie runs with the limit ``max_order - 1``, so a shape past the
    bound stops at the first suffix that passes it.
    """
    results = []
    level = [()]
    while level and len(level[0]) < max_len:
        grown = []
        for shape in level:
            for v in range(max(shape, default=-1) + 2):
                longer = shape + (v,)
                trie = factor_trie([longer], max_order - 1)
                if isinstance(trie, int):
                    continue
                grown.append(longer)
                if sum(c >= 2 for c in Counter(longer).values()) >= 2:
                    results.append((Word(tuple(Letter(chr(ord("a") + i)) for i in longer)), len(trie[0]) + 1))
        level = grown
    return results


def _claim_enumeration(cfg: VerifyConfig):
    got = [(str(w), order) for w, order in enumerate_small_rees()]
    want = [("aabb", 10), ("abab", 9), ("abba", 10)]
    if got != want:
        return FAIL, {"expected": want, "actual": got}
    return PASS, None


def _registry(rows):
    return [
        ("C1", "orders of the four basic word quotients", _claim_orders),
        ("C2", "the five-identity list holds in M(aabb) under both checkers", _claim_sigma_both),
        ("C3", "the six-identity list holds in the presented order-6 monoid and in M(aabb)", _claim_lee_li),
        ("C4", "the three presented monoids have order 6", _claim_presented_orders),
        ("C5", "depth table of the separating family, n = 1..max_n+1", _claim_depth_family),
        ("C6", "structural predicates of the separating family, n = 1..max_n+1", _claim_word_structure),
        ("C7", "separation identities hold exactly off the diagonal, n,k <= max_n", functools.partial(_claim_separation_matrix, rows=rows)),
        ("C8", "the five-identity list holds in M(W_N) for every N within 1..max_n", _claim_sigma_truncations),
        ("C9", "distinct subsets give quotients separated by some identity", functools.partial(_claim_distinct_varieties, rows=rows)),
        ("C10", "quotient maps verified for all nested subset pairs", _claim_quotient_maps),
        ("C11", "occurrence alignment holds for all matches of w_n into w_k, n < k", _claim_star_property),
        ("C12", "1000 random first-occurrence containment instances", _claim_no_div),
        ("C13", "word-level and table-level checkers agree on the random corpus", _claim_cross_check),
        ("C14", "exhaustive small-quotient search finds exactly three words", _claim_enumeration),
    ]


def run_claims(config: VerifyConfig | None = None) -> Report:
    """Execute the full claim registry.

    A claim that runs out of budget is ``BUDGET`` and one that raises any
    other :class:`WorkbenchError` is ``FAIL``.  A ``MemoryError`` is a
    limit of the machine and propagates as it is.  Any other exception is
    a bug in the suite, not a verdict: it is re-raised as a
    ``RuntimeError`` that names the claim.  The sep(n) rows that C7 and
    C9 share are computed once per call and dropped with it.
    """
    cfg = config or VerifyConfig()
    if cfg.max_n < 1:
        raise ValueError("max_n must be positive")
    report = Report(cfg)
    for cid, title, fn in _registry(_separation_rows(cfg)):
        start = time.perf_counter()
        try:
            status, witness = fn(cfg)
        except BudgetExceededError as exc:
            status, witness = BUDGET, {"error": str(exc)}
        except WorkbenchError as exc:
            status, witness = FAIL, {"error": f"{type(exc).__name__}: {exc}"}
        except MemoryError:
            raise
        except Exception as exc:
            raise RuntimeError(f"claim {cid}: {type(exc).__name__}: {exc}") from exc
        millis = int((time.perf_counter() - start) * 1000)
        report.claims.append(ClaimResult(cid, title, status, witness, millis))
    return report
