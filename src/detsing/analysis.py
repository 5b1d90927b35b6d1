"""One analysis of one model: each stratum, section and family member is
built once, and every verdict of a command reads it from here.

The verdict functions and the report sections take an :class:`Analysis`
or a bare ``PresentationMatrix``, which gets a fresh analysis for that
one call.  This module sits below every verdict module: it imports none
of them, and a verdict it keeps (``strata.eids_check``,
``invariants.mvector``) is kept by that verdict's own function through
:meth:`Analysis.once`.
"""

from __future__ import annotations

from .detmodel import PresentationMatrix, StratumModel, slice_model, stratum
from .errors import DetsingError
from .groebner import colength, colength_at_origin, dimension


class Analysis:
    """Memoized strata, sections, family members and verdicts of one model.

    Lifetime rule: an analysis lives for one top-level call (one CLI
    command, or one verdict function given a bare matrix) and dies with
    it.  Nothing is kept on the model or at module level, so another call
    on the same model recomputes everything.  A computation that raises a
    ``DetsingError`` keeps the error and raises it again when asked for.
    A stratum keeps its ``Ideal``, capped at ``max_degree``, and so that
    ideal's basis cache.  A stratum's dimension and colengths are
    computed here, once each, for every section and verdict that reports
    them.  Each sample point is specialized once; members are keyed on
    their entries, so samples giving equal matrices share one member,
    and sections on the normalized hyperplane.  Members and sections are
    analyses themselves, with the same cap.
    """

    __slots__ = ("model", "max_degree", "_memo")

    def __init__(self, model: PresentationMatrix, max_degree=None):
        self.model = model
        self.max_degree = max_degree
        self._memo = {}

    @staticmethod
    def of(m) -> Analysis:
        """``m`` itself when it is an analysis, else a fresh one of the matrix."""
        return m if isinstance(m, Analysis) else Analysis(m)

    def once(self, key, compute):
        """The value kept under ``key``, computed by ``compute()`` on the
        first call; a ``DetsingError`` it raised is kept and raised again."""
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except DetsingError as exc:
                self._memo[key] = exc
        value = self._memo[key]
        if isinstance(value, DetsingError):
            raise value
        return value

    def stratum(self, i) -> StratumModel:
        return self.once(("stratum", i), lambda: stratum(self.model, i, self.max_degree))

    def dimension(self, i) -> int:
        return self.once(("dimension", i), lambda: dimension(self.stratum(i).ideal))

    def colength(self, i) -> int:
        return self.once(("colength", i), lambda: colength(self.stratum(i).ideal))

    def origin_colength(self, i) -> int:
        ideal = self.stratum(i).ideal
        return self.once(("origin colength", i), lambda: colength_at_origin(ideal))

    def member(self, point) -> Analysis:
        def build():
            m = self.model.specialize(point)
            return self.once(("member", m.entries), lambda: Analysis(m, self.max_degree))

        return self.once(("point", frozenset(point.items())), build)

    def section(self, h) -> Analysis:
        return self.once(
            ("section", h), lambda: Analysis(slice_model(self.model, h), self.max_degree)
        )
