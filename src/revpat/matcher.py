"""Instances of patterns with reversal inside finite words.

Words are strings of digits over an alphabet {0, ..., k-1}, k <= 10.  An
instance of a pattern assigns a non-empty word to each variable; a lowercase
slot receives the variable's value, an uppercase slot its reversal.  The
search enumerates (start, |X|, |Y|) triples in ascending order, so returned
witnesses are deterministic: smallest start, then smallest |X|, then
smallest |Y|.

One slot kernel, ``_match_at``, finds the least instance that starts at a
given position; the search runs it at each start in turn, and the prover in
``engine`` runs it at the start of each reversed node word.  Only-y
patterns are matched through their x-renamed form; the witness then carries
a y assignment and no x assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .patterns import iota, variable_counts


@dataclass(frozen=True)
class InstanceWitness:
    """One occurrence: the factor at ``start`` is the image of the pattern.

    ``x`` (``y``) is present exactly when the pattern uses that variable.
    """

    start: int
    x: str | None
    y: str | None


def parse_word(text: str, alphabet_size: int | None = None) -> str:
    """Validate a digit-string word; letters must be below the alphabet size."""
    if alphabet_size is None and text.isascii() and text.isdigit():
        return text
    if alphabet_size is not None and not 1 <= alphabet_size <= 10:
        raise ValueError(f"alphabet size must be between 1 and 10, got {alphabet_size}")
    for i, ch in enumerate(text):
        if not "0" <= ch <= "9":
            raise ValueError(f"invalid word letter {ch!r} at position {i}: expected a digit 0-9")
        if alphabet_size is not None and int(ch) >= alphabet_size:
            raise ValueError(
                f"letter {ch} at position {i} is outside the {alphabet_size}-letter alphabet"
            )
    return text


def apply_morphism(p: str, x: str | None = None, y: str | None = None) -> str:
    """Image of p under x -> X, X -> reversal(X), y -> Y, Y -> reversal(Y).

    Images must be non-empty for every variable the pattern actually uses
    (the morphism is non-erasing).
    """
    a, b = variable_counts(p)
    if a and not x:
        raise ValueError("pattern uses variable x but no non-empty x image was given")
    if b and not y:
        raise ValueError("pattern uses variable y but no non-empty y image was given")
    images = {
        "x": x or "",
        "X": (x or "")[::-1],
        "y": y or "",
        "Y": (y or "")[::-1],
    }
    return "".join(images[sym] for sym in p)


@lru_cache(maxsize=4096)
def _plan(p: str) -> tuple:
    """Compile p, which starts with x or with a y slot, for ``_match_at``.

    ``lead`` counts the x slots before the first y slot and ``lead_rest``
    encodes all of them but the first; ``tail`` holds the (is_x, is_forward)
    slots from the first y slot on.  ``cut`` is set when p starts with x and
    x recurs, ``two_sided`` when both x and X occur, and ``pin`` is (length
    of the first y-run, the x-run after it) when p starts with x and such an
    x-run exists.
    """
    a, b = variable_counts(p)
    body = p.lstrip("xX")
    after_y = body.lstrip("yY")
    run_x = after_y[:len(after_y) - len(after_y.lstrip("xX"))]
    lead = len(p) - len(body)
    tail = tuple((sym in "xX", sym in "xy") for sym in body)
    pin = (len(body) - len(after_y), _run(run_x)) if lead and run_x else None
    return (a, b, lead, _run(p[1:lead]), tail, lead > 0 and a >= 2, "x" in p and "X" in p,
            pin)


def _run(syms: str):
    """A run of x slots: its length when every slot is forward, else the
    slots' orientation flags."""
    return len(syms) if "X" not in syms else tuple(sym == "x" for sym in syms)


def _image(run, fwd: bytes, rev: bytes | None) -> bytes:
    """The bytes a run of x slots holds when X = fwd (rev is its reversal)."""
    if run.__class__ is int:
        return fwd * run
    return b"".join([fwd if f else rev for f in run])


def _pinned(w: bytes, t: bytes, base: int, run_y: int, end: int):
    """|Y| values placing the fixed x-run t right after run_y y slots that
    begin at base, in ascending order."""
    q = w.find(t, base + run_y, end)
    while q >= 0:
        if (q - base) % run_y == 0:
            yield (q - base) // run_y
        q = w.find(t, q + 1, end)


def _match_at(plan: tuple, w: bytes, start: int, max_x: int | None = None,
              max_y: int | None = None) -> tuple[bytes, bytes | None] | None:
    """Least (|X|, |Y|) instance of a planned pattern starting at ``start``.

    Returns the (x, y) values of that instance, y None for x-only patterns,
    or None when no instance within the bounds starts there.  Two prunings
    apply when the pattern starts with x.  If x recurs and the length-lx
    head (or, two-sided, its reversal) occurs nowhere after it, no instance
    has this or any larger |X|.  Once X is known, the x-run after the first
    y-run is a fixed string, and each place it occurs fixes |Y|.
    """
    a, b, lead, lead_rest, tail, cut, two_sided, pin = plan
    room = len(w) - start
    lim_x = (room - b) // a
    if max_x is not None and max_x < lim_x:
        lim_x = max_x
    for lx in range(1, lim_x + 1):
        xf = xr = None
        base = start
        if lead:
            xf = w[start:start + lx]
            if two_sided:
                xr = xf[::-1]
            if cut and w.find(xf, start + lx) < 0 and (
                    xr is None or w.find(xr, start + lx) < 0):
                return None
            base = start + lead * lx
            if lead_rest and w[start + lx:base] != _image(lead_rest, xf, xr):
                continue
            if not b:
                return xf, None
        lim_y = (room - a * lx) // b
        if max_y is not None and max_y < lim_y:
            lim_y = max_y
        if pin:
            run_y, run_x = pin
            t = _image(run_x, xf, xr)
            lys = _pinned(w, t, base, run_y, base + run_y * lim_y + len(t))
        else:
            lys = range(1, lim_y + 1)
        for ly in lys:
            x0, x1, y0, y1 = xf, xr, None, None
            pos = base
            for is_x, fwd in tail:
                length = lx if is_x else ly
                seg = w[pos:pos + length]
                pos += length
                if is_x:
                    if x0 is None:
                        x0, x1 = (seg, seg[::-1]) if fwd else (seg[::-1], seg)
                    elif seg != (x0 if fwd else x1):
                        break
                elif y0 is None:
                    y0, y1 = (seg, seg[::-1]) if fwd else (seg[::-1], seg)
                elif seg != (y0 if fwd else y1):
                    break
            else:
                return x0, y0
    return None


def _search(w: str, p: str, max_x: int | None, max_y: int | None) -> InstanceWitness | None:
    if not p:
        raise ValueError("the empty pattern has no instances; classify it directly")
    if not variable_counts(p)[0]:
        inner = _search(w, iota(2, p), max_y, max_x)
        return inner and InstanceWitness(inner.start, None, inner.x)
    if p[0] == "X":
        inner = _search(w, iota(1, p), max_x, max_y)
        return inner and InstanceWitness(inner.start, inner.x[::-1], inner.y)

    plan = _plan(p)
    data = parse_word(w).encode()  # ASCII, so offsets into data are offsets into w
    for start in range(len(data)):
        found = _match_at(plan, data, start, max_x, max_y)
        if found is not None:
            x, y = found
            return InstanceWitness(start, x.decode(), y.decode() if y is not None else None)
    return None


def find_instance(w: str, p: str) -> InstanceWitness | None:
    """First instance of p in w, or None when w avoids p."""
    return _search(w, p, None, None)


def find_instance_bounded(w: str, p: str, max_x: int, max_y: int) -> InstanceWitness | None:
    """Like find_instance, restricted to |X| <= max_x and |Y| <= max_y."""
    if max_x < 1 or max_y < 1:
        raise ValueError("variable-length bounds must be at least 1")
    return _search(w, p, max_x, max_y)


def avoids(w: str, p: str) -> bool:
    """True when no factor of w is an instance of p."""
    return _search(w, p, None, None) is None


def witness_image(p: str, witness: InstanceWitness) -> str:
    """Rebuild the matched factor from a witness's variable assignment."""
    return apply_morphism(p, witness.x, witness.y)
