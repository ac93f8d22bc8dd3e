"""Independent string-level references used to check the program's outputs.

Nothing here calls the package: words are tuples of letter tokens (the
text of one letter, such as ``x`` or ``y_1^0``), factor sets are plain
Python sets, and matches are enumerated by walking the factor trie.  The
checks in ``workloads.py`` compare the program's answers against these.
"""

from __future__ import annotations

ZERO = "0"


def tokens(text: str) -> tuple[str, ...]:
    """Letter tokens of a word as the package prints it (``1`` is empty)."""
    s = text.strip()
    if s == "1":
        return ()
    if any(c in s for c in "._^"):
        return tuple(s.split("."))
    return tuple(s)


def factor_set(words) -> set[tuple[str, ...]]:
    """Every contiguous factor of the given token words, the empty one included."""
    out: set[tuple[str, ...]] = {()}
    for w in words:
        n = len(w)
        for i in range(n):
            for j in range(i + 1, n + 1):
                out.add(w[i:j])
    return out


def _children(factors: set) -> dict:
    kids: dict = {}
    for f in factors:
        if f:
            kids.setdefault(f[:-1], []).append(f)
    return kids


def _walk(pattern: tuple[str, ...], factors: set, kids: dict, visit) -> bool:
    """Call ``visit(env, image)`` for every distinct assignment of the
    pattern's variables that sends the pattern onto a factor; stop early
    when ``visit`` returns True.

    Each unbound variable ranges over the trie descendants of the image
    built so far, so every partial image is itself a factor."""
    env: dict[str, tuple] = {}
    m = len(pattern)

    def walk(pos: int, image: tuple) -> bool:
        if pos == m:
            return visit(env, image)
        var = pattern[pos]
        if var in env:
            nxt = image + env[var]
            return nxt in factors and walk(pos + 1, nxt)
        stack = [image]
        while stack:
            node = stack.pop()
            env[var] = node[len(image):]
            if walk(pos + 1, node):
                return True
            stack.extend(kids.get(node, ()))
        del env[var]
        return False

    return walk(0, ())


def matches(pattern: tuple[str, ...], factors: set) -> list[dict]:
    """Every distinct assignment sending the pattern onto a factor."""
    found: list[dict] = []
    _walk(pattern, factors, _children(factors), lambda env, image: found.append(dict(env)))
    return found


def apply(side: tuple[str, ...], env: dict) -> tuple[str, ...]:
    out: list[str] = []
    for var in side:
        out.extend(env[var])
    return tuple(out)


def value(side: tuple[str, ...], env: dict, factors: set):
    """Element of M(W) that the side takes: its image if that is a factor,
    else zero.  A variable sent to zero makes the side zero."""
    if any(env[var] == ZERO for var in side):
        return ZERO
    image = apply(side, env)
    return image if image in factors else ZERO


def verdict(lhs: tuple[str, ...], rhs: tuple[str, ...], factors: set) -> str:
    """HOLDS or FAILS for ``lhs = rhs`` in the Rees quotient with these factors."""
    if set(lhs) != set(rhs):
        return "FAILS"  # send a one-sided variable to zero, the rest to 1
    kids = _children(factors)
    for u, v in ((lhs, rhs), (rhs, lhs)):
        if _walk(u, factors, kids, lambda env, image: apply(v, env) != image):
            return "FAILS"
    return "HOLDS"
