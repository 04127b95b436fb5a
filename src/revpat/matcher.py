"""Instances of patterns with reversal inside finite words.

Words are strings of digits over an alphabet {0, ..., k-1}, k <= 10.  An
instance of a pattern assigns a non-empty word to each variable; a lowercase
slot receives the variable's value, an uppercase slot its reversal.  The
search enumerates (start, |X|, |Y|) triples in ascending order, so returned
witnesses are deterministic: smallest start, then smallest |X|, then
smallest |Y|.

One slot kernel, ``_match_at``, finds the least instance that starts at a
given position; the search runs it at each start in turn, and the prover in
``engine`` runs it at the start of each reversed node word.  When x recurs,
its first recurrence (the key slot: the second lead slot, or else the
first slot of the x-run after the first y-run) must hold the head of x that
a given |X| fixes, so the kernel finds that head's first place f in the key
slot's window: with no f it stops, and with f out of reach it jumps |X| to
the least value whose window reaches f.  Each caller passes a floor: the
length of a prefix of the word from that start which also occurs at a
start already ruled out (an earlier start in a scan, which takes the
longest such prefix; a later one in the prover's reversed word).  An
instance no longer than the floor would start there too, so the kernel
skips it, and a scan stops once the whole rest of the word occurs earlier.
Once X is known, the x-run after the first y-run is a fixed string, and
each place it occurs fixes |Y|; the y slot right after that run rejects
most places before y is sliced.  When that slot repeats the first y slot,
it begins with the first y slot's first letters (as many as the least |Y|
left), which are searched for with the run; when it mirrors the y slot
before the run, the letters on both sides of the run must agree.  When
the first y-run opens with yy or YY, every instance has a square of half
|Y| where that run begins, so each place the x-run gives is also checked
for that square, and the recurrence jump of yy skips the places whose |Y|
no square there has.  A pattern that opens with xy.xy or xY.xY has no key
slot and no pin: its instances begin with a square of half |X| + |Y|, so
the kernel reads the half-lengths of the squares at the start
(``_square_halves``, the recurrence jump of xx) and takes |Y| off them,
and stops at once where no square starts; by the three-squares lemma,
O(log n) primitively rooted squares start at any one position.  Every
scan runs on the pattern's x-led form (``x_led``), the only form
``_plan`` compiles: renaming keeps where instances start.  The witness is
still p's own least (start, |X|, |Y|): when the renaming swapped two used
variables, the kernel is rerun at the start the scan found with a rising cap
on the renamed |Y|, which is p's |X|.  An only-y pattern's witness carries a
y assignment and no x assignment.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .patterns import iota, nonempty_pattern, parse_pattern, variable_counts


@dataclass(frozen=True)
class InstanceWitness:
    """One occurrence: the factor at ``start`` is the image of the pattern.

    ``x`` (``y``) is present exactly when the pattern uses that variable.
    """

    start: int
    x: str | None
    y: str | None


def parse_word(text: str) -> str:
    """Validate a word: a string of the ASCII digits 0-9."""
    if text.isascii() and text.isdigit():
        return text
    for i, ch in enumerate(text):
        if not "0" <= ch <= "9":
            raise ValueError(f"invalid word letter {ch!r} at position {i}: expected a digit 0-9")
    return text


def apply_morphism(p: str, x: str | None = None, y: str | None = None) -> str:
    """Image of p under x -> X, X -> reversal(X), y -> Y, Y -> reversal(Y).

    Images must be non-empty for every variable the pattern actually uses
    (the morphism is non-erasing).
    """
    a, b = variable_counts(parse_pattern(p))
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
    """Compile p's x-led form for ``_match_at``.

    ``lead`` counts the x slots before the first y slot.  ``key`` is set
    when x recurs: (ky, rev) for the slot where it first does, which begins
    |X| + ky|Y| letters after the start (the second lead slot, ky = 0, or
    else the first slot of the pinned x-run, ky = the first y-run's length)
    and holds X's reversal when ``rev``.  The key check fixes the second
    lead slot exactly, so ``lead_rest`` encodes only the lead slots after it.
    ``tail`` holds the other slots the kernel compares, as (cx, cy, seg):
    the slot begins cx|X| + cy|Y| letters after the start and holds
    ``"xXyY"[seg]``'s value.  It leaves out the first y slot, which defines
    y (``y_fwd`` when that slot is y, not Y), and the pinned x-run.
    ``two_sided`` is set when both x and X occur.  ``pin`` is set when an
    x-run follows the first y-run: (the y-run's length, the x-run,
    ``extend``, ``mirror``, ``square_y``), where ``extend`` says the y slot
    after the x-run has the first y slot's orientation, ``mirror`` that it
    has the opposite orientation to the slot just before the x-run, and
    ``square_y`` that the y-run opens with two slots of one orientation, yy
    or YY, so that every instance has a square of half |Y| where the y-run
    begins.  ``square`` is set, and ``key`` and ``pin`` are not, when p
    opens with xy.xy or xY.xY: every instance then begins with a square of
    half |X| + |Y|.
    """
    p = x_led(parse_pattern(p))
    a, b = variable_counts(p)
    body = p.lstrip("xX")
    after_y = body.lstrip("yY")
    run_x = after_y[:len(after_y) - len(after_y.lstrip("xX"))]
    lead, run_y = len(p) - len(body), len(body) - len(after_y)
    pinned = range(run_y, run_y + len(run_x))
    tail, cx, cy = [], lead, 0
    for i, sym in enumerate(body):
        if i and i not in pinned:
            tail.append((cx, cy, "xXyY".index(sym)))
        if sym in "xX":
            cx += 1
        else:
            cy += 1
    key = pin = None
    square = lead == 1 and p[2:4] == p[:2]
    if lead >= 2:
        key = (0, p[1] == "X")
    elif run_x and not square:
        key = (run_y, run_x[0] == "X")
    if run_x and not square:
        after = after_y[len(run_x):len(run_x) + 1]  # the y slot after the run, if any
        pin = (run_y, _run(run_x), after == body[0], after not in ("", body[run_y - 1]),
               body[1] == body[0])
    return (a, b, lead, _run(p[2:lead]), tuple(tail), key, "x" in p and "X" in p,
            body[:1] == "y", pin, square)


def _run(syms: str):
    """A run of x slots: its length when every slot is forward, else the
    slots' orientation flags."""
    return len(syms) if "X" not in syms else tuple(sym == "x" for sym in syms)


def _square_halves(w: bytes, start: int, least: int, most: int):
    """Yield, ascending, every half-length P, least <= P <= most, of a
    square w[start:start + 2P].

    The recurrence jump of xx: a square of half P' >= P has the length-P
    head at start + P', so with g the head's first place from start + P to
    start + most, no half lies strictly between P and g - start.  P is a
    half when g is start + P, and jumps to g - start otherwise; with no g,
    no half is left.
    """
    half = least
    while half <= most:
        g = w.find(w[start:start + half], start + half, start + most + half)
        if g < 0:
            return
        if g == start + half:
            yield half
            half += 1
        else:
            half = g - start


def _match_at(plan: tuple, w: bytes, start: int, max_x: int | None = None,
              max_y: int | None = None, floor: int = 0) -> tuple[bytes, bytes | None] | None:
    """Least (|X|, |Y|) instance of a planned pattern starting at ``start``
    and longer than ``floor``.

    Returns the (x, y) values of that instance, y None for x-only patterns,
    or None when no such instance within the bounds starts there.  Each
    candidate's slots are compared at their own offsets; seven prunings
    choose the candidates, the sixth in place of the first and third.

    1. The recurrence jump.  When x recurs, the key slot (see ``_plan``)
       begins lx + ky*ly letters after the start, so at least lx + ky and
       at most lx + ky*lim_y.  It begins with the length-lx head of x, or,
       when it holds X, its last lx letters are that head's reversal.  Let
       f be the first place at or after the least offset where the head
       occurs in the key slot's orientation.  Every |X'| > lx puts the head
       in its key slot no earlier: at the same offset in the slot, or
       |X'| - lx letters later in a reversed slot.  So with no f, no
       instance has this or any larger |X|.  With f beyond this |X|'s reach
       (start + lx + ky*lim_y), |X| jumps to the least |X'| whose reach,
       with lim_y held at this |X|'s value and the reversed shift added,
       gets to f; lim_y only shrinks as |X| grows, so no |X| in between can
       reach f.  The jumped-to |X| finds its own, longer head, which may
       jump again.
    2. The floor.  Every (|X|, |Y|) with a|X| + b|Y| <= floor is skipped,
       so |Y| starts at ``low``: the caller passes a floor only when such
       an instance would also start at a place it has ruled out.
    3. The |Y| pin.  Once X is known, the x-run after the first y-run is a
       fixed string, and each place it occurs fixes |Y|.  When the run
       begins with the key slot, it occurs nowhere before f.  A place that
       gives no whole |Y| sends the search on to the next place that does.
    4. When the y slot right after the run has the first y slot's
       orientation, it begins with the first y slot's first ``low``
       letters, so those are searched for with the run.
    5. When that slot has the opposite orientation to the y slot before the
       run, its first letter is that slot's last, so the letters on both
       sides of the run must agree.
    6. The squares.  When p opens with xy.xy or xY.xY, every instance
       begins with a square of half lx + ly, and it has at most
       max(a, b)(lx + ly) letters, so only the halves that
       ``_square_halves`` yields from floor // max(a, b) + 1 up to room // 2
       (and lim_x + max_y under a |Y| cap) are tried: with none, no
       instance starts here, |X| stays below the largest, and each |Y| is a
       half less |X|.
    7. The y-run's square.  When the y-run opens with yy or YY, every
       instance has the square w[base:base + 2ly], base = start + lead*lx.
       A place of the run that passes the checks above gives ly; let g be
       the first place of the head w[base:base + ly] from base + ly up to
       base + lim_y.  A square of half P > ly has that head at
       base + P, so with no g no |Y| is left for this |X|, and with g beyond
       base + ly no half between ly and g - base is a square: the run
       search goes on from the place that gives |Y| = g - base.  Only a hit
       at base + ly keeps ly, whose slots are then compared.  This is the
       recurrence jump of xx that ``_square_halves`` walks, taken only at
       the |Y| the run gives: the two candidate streams are intersected
       leapfrog-style (Veldhuizen 2014), and by the three-squares lemma
       (Crochemore and Rytter 1995) few squares begin at any one place.
    """
    a, b, lead, lead_rest, tail, key, two_sided, y_fwd, pin, square = plan
    room = len(w) - start
    lim_x = (room - b) // a
    if max_x is not None and max_x < lim_x:
        lim_x = max_x
    if square:
        # an instance has a|X| + b|Y| <= max(a, b)(|X| + |Y|) letters, more than the floor
        top = room // 2 if max_y is None else min(room // 2, lim_x + max_y)
        halves = list(_square_halves(w, start, max(2, floor // max(a, b) + 1), top))
        if not halves:
            return None  # no square starts here, so no instance does
        if halves[-1] <= lim_x:
            lim_x = halves[-1] - 1
        halves.append(room)  # past every |X| + |Y|: ends each |Y| walk
    if key:
        ky, rev = key
    lim_y = f = 0
    lx = 1 if b else floor // a + 1
    while lx <= lim_x:
        if b:
            lim_y = (room - a * lx) // b
            if max_y is not None and max_y < lim_y:
                lim_y = max_y
        xf = w[start:start + lx]
        xr = xf[::-1] if two_sided else None
        if key:
            f = w.find(xr if rev else xf, start + lx + ky)
            if f < 0:
                return None  # the head has no place in any larger |X|'s window either
            reach = start + lx + ky * lim_y
            if f > reach:
                lx -= (reach - f) // (1 + rev)
                if lx > lim_x:
                    return None
                continue
        base = start + lead * lx
        if lead_rest and w[start + 2 * lx:base] != (
                xf * lead_rest if lead_rest.__class__ is int
                else b"".join([xf if fwd else xr for fwd in lead_rest])):
            lx += 1
            continue
        if not b:
            return xf, None
        ly = low = (floor - a * lx) // b + 1 if floor >= a * lx else 1
        if pin:
            run_y, run_x, extend, mirror, square_y = pin
            t = (xf * run_x if run_x.__class__ is int
                 else b"".join([xf if fwd else xr for fwd in run_x]))
            run_len = len(t)
            if extend:
                t += w[base:base + low]
            end = base + run_y * lim_y + len(t)
            q = base + run_y * low
            if f > q:
                q = f
            q -= 1
        while True:
            if pin:
                q = w.find(t, q + 1, end)
                if q < 0:
                    break
                off = (q - base) % run_y
                if off:
                    q += run_y - off - 1  # on to the next aligned place
                    continue
                if mirror and w[q - 1] != w[q + run_len]:
                    continue
                ly = (q - base) // run_y
                if square_y:
                    g = w.find(w[base:base + ly], base + ly, base + lim_y + ly)
                    if g < 0:
                        break  # no square of half ly or more begins the y-run
                    if g > base + ly:
                        q = base + run_y * (g - base) - 1  # on to |Y| = g - base
                        continue
            else:
                if square:
                    ly = halves[bisect_left(halves, lx + ly)] - lx
                if ly > lim_y:
                    break
            ys = w[base:base + ly]
            segs = (xf, xr, ys, ys[::-1]) if y_fwd else (xf, xr, ys[::-1], ys)
            for cx, cy, seg in tail:
                if not w.startswith(segs[seg], start + cx * lx + cy * ly):
                    break
            else:
                return xf, segs[2]
            ly += 1
        lx += 1
    return None


def x_led(p: str) -> str:
    """p renamed to start with x: the variables swapped when p starts with y
    or Y, then x and X swapped when the result starts with X.  Renaming keeps
    the starts of instances and maps (|X|, |Y|) to (|Y|, |X|) exactly when
    the variables are swapped."""
    if p[0] in "yY":
        p = iota(2, p)
    return iota(1, p) if p[0] == "X" else p


def _scan(w: str, p: str, max_x: int | None, max_y: int | None):
    """(start, (x, y)) of the first instance of p in w, scanned in p's x-led
    form: x and y are that form's values, least in its (|X|, |Y|) order.
    None when w avoids p within the bounds.

    The floor at a start is the longest prefix of the rest of w that occurs
    at an earlier start, where no instance within the bounds starts; it
    drops by at most one from each start to the next.
    """
    plan = _plan(nonempty_pattern(p))
    data = parse_word(w).encode()  # ASCII, so offsets into data are offsets into w
    if p[0] in "yY":
        max_x, max_y = max_y, max_x
    n = len(data)
    floor = 0
    for start in range(n):
        if floor:
            floor -= 1
        while start + floor < n and data.find(data[start:start + floor + 1], 0, start + floor) >= 0:
            floor += 1
        if start + floor == n:
            return None  # every later factor occurs earlier
        found = _match_at(plan, data, start, max_x, max_y, floor)
        if found is not None:
            return start, found
    return None


def _search(w: str, p: str, max_x: int | None, max_y: int | None) -> InstanceWitness | None:
    hit = _scan(w, p, max_x, max_y)
    if hit is None:
        return None
    start, (x, y) = hit
    if p[0] in "yY" and y is not None:
        # p's least (|X|, |Y|) here is the renamed form's least (|Y|, |X|):
        # the first cap on the renamed |Y| that admits an instance is p's
        # |X|, and the kernel picks the least renamed |X| for it
        data, plan, cap = w.encode(), _plan(p), 1
        while (found := _match_at(plan, data, start, max_y, cap)) is None:
            cap += 1
        x, y = found
    if p[0] in "XY":
        x = x[::-1]  # the renamed form's x is the reversal of p's first variable
    if p[0] in "yY":
        x, y = y, x
    return InstanceWitness(start, x and x.decode(), y and y.decode())


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
    return _scan(w, p, None, None) is None


def witness_image(p: str, witness: InstanceWitness) -> str:
    """Rebuild the matched factor from a witness's variable assignment."""
    return apply_morphism(p, witness.x, witness.y)
