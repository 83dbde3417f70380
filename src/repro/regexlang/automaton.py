"""Lazily-determinized matcher over a Glushkov NFA.

Validation checks one child-label word per element vertex, and a large
document re-checks the same content model thousands of times, usually
traversing the same few DFA states.  :class:`Matcher` memoizes the subset
construction on demand, so the amortized per-symbol cost is a dictionary
lookup.  A module-level cache keyed by the (hashable) regex AST means the
DFA is shared across validations of the same DTD.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence

from repro.regexlang.ast import Regex
from repro.regexlang.glushkov import GlushkovNFA

#: serializes the discovery of new DFA states: matchers are shared
#: process-wide, and a state's number must index the same entry of every
#: per-state list
_GROW = threading.Lock()


class Matcher:
    """Membership testing for one content model, with lazy DFA states."""

    def __init__(self, regex: Regex):
        self.nfa = GlushkovNFA(regex)
        initial = self.nfa.initial()
        self._states: dict[frozenset[int], int] = {initial: 0}
        self._state_list: list[frozenset[int]] = [initial]
        self._accepting: list[bool] = [self.nfa.is_accepting(initial)]
        self._trans: list[dict[str, int | None]] = [{}]

    def _successor(self, dfa_state: int, symbol: str) -> int | None:
        """The DFA successor of ``dfa_state`` on ``symbol``; ``None`` = dead."""
        row = self._trans[dfa_state]
        if symbol in row:
            return row[symbol]
        nxt = self.nfa.step(self._state_list[dfa_state], symbol)
        if not nxt:
            row[symbol] = None
            return None
        with _GROW:
            idx = self._states.get(nxt)
            if idx is None:
                # the lists grow before the number is published
                idx = len(self._state_list)
                self._state_list.append(nxt)
                self._accepting.append(self.nfa.is_accepting(nxt))
                self._trans.append({})
                self._states[nxt] = idx
        row[symbol] = idx
        return idx

    def matches(self, word: Sequence[str]) -> bool:
        """Whether ``word`` (a sequence of labels) is in the language."""
        state: int | None = 0
        for symbol in word:
            state = self._successor(state, symbol)
            if state is None:
                return False
        return self._accepting[state]

    def prefix_length(self, word: Sequence[str]) -> int:
        """Length of the longest prefix of ``word`` that is still viable.

        Used to produce helpful validation diagnostics ("child #k is
        unexpected here").  Returns ``len(word)`` when the whole word can
        be extended or accepted.
        """
        state: int | None = 0
        for i, symbol in enumerate(word):
            state = self._successor(state, symbol)
            if state is None:
                return i
        return len(word)

    def expected_after(self, word: Sequence[str]) -> set[str]:
        """The labels that may legally follow the given (viable) prefix."""
        state: int | None = 0
        for symbol in word:
            state = self._successor(state, symbol)
            if state is None:
                return set()
        return self.expected_from(state)

    # -- incremental stepping (streaming validation) --------------------
    #
    # A streaming validator cannot afford to buffer the child word of
    # every open element just to call :meth:`matches` at the close tag.
    # These three methods expose the lazy DFA one transition at a time:
    # hold an ``int`` state per open element, feed each child label as it
    # arrives, and ask acceptance at the close.  ``prefix_length`` /
    # ``expected_after`` diagnostics fall out of the state held at the
    # first dead transition, so the word never needs to exist.

    def start(self) -> int:
        """The DFA start state (always ``0``)."""
        return 0

    def step(self, state: int, symbol: str) -> int | None:
        """One DFA transition; ``None`` means the word just died."""
        return self._successor(state, symbol)

    def is_accepting_state(self, state: int) -> bool:
        """Whether ``state`` accepts (word may legally end here)."""
        return self._accepting[state]

    def expected_from(self, state: int) -> set[str]:
        """The labels with a live transition out of ``state``."""
        out: set[str] = set()
        for sym in self.nfa.alphabet():
            if self.nfa.step(self._state_list[state], sym):
                out.add(sym)
        return out

    # -- the memo itself (the codegen scanner's transition tables) ------

    @property
    def rows(self) -> list[dict[str, int | None]]:
        """One transition row per state discovered so far, indexed by
        state: ``rows[state].get(symbol)`` is the successor once
        :meth:`step` has taken that transition (``None`` means dead, or
        not taken yet — :meth:`step` tells them apart and fills the
        row).  The list grows in place as new states are discovered."""
        return self._trans

    @property
    def accepting(self) -> list[bool]:
        """Acceptance per discovered state, indexed like :attr:`rows`."""
        return self._accepting


_MATCHER_CACHE: dict[Regex, Matcher] = {}


def matcher_for(regex: Regex) -> Matcher:
    """A shared :class:`Matcher` for ``regex`` (AST-keyed memoization)."""
    m = _MATCHER_CACHE.get(regex)
    if m is None:
        m = Matcher(regex)
        _MATCHER_CACHE[regex] = m
    return m


def clear_matcher_cache() -> None:
    """Drop all cached matchers (mainly for benchmarks that measure
    cold-start construction costs)."""
    _MATCHER_CACHE.clear()


def accepts(regex: Regex, word: Iterable[str]) -> bool:
    """Convenience wrapper: ``word in L(regex)`` using the shared cache."""
    return matcher_for(regex).matches(tuple(word))
