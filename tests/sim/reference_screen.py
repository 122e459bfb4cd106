"""The lockstep screen's rounds as they ran before the persistent plane.

Until the screen learned to keep one working clock plane across rounds,
:meth:`repro.sim.columnar.LockstepScreen.rounds` copied the active
trials' clocks out of ``fail_at`` every round and picked each trial's
first failed disk with an ``argmax`` over the disk axis. This copy keeps
that body — and :meth:`overlaps`, which reads the clocks it leaves —
moved verbatim, so ``test_screen_equivalence`` can check every column
the screen returns against it bit for bit.
"""

from __future__ import annotations

import numpy as _np

from repro.sim.columnar import LockstepScreen, _exponentials, _uniforms


class ReferenceScreen(LockstepScreen):
    """:class:`LockstepScreen` with the per-round copy and argmax rounds."""

    def rounds(self) -> None:
        """Advance every trial to its end or its first dangerous incident."""
        fail_at = self.fail_at
        hours1, bytes_read = self._tables.hours, self._tables.bytes_read
        horizon_hours = self._horizon_hours
        lse_thresholds = self._lse_thresholds
        n_failures, n_repairs = self.n_failures, self.n_repairs
        degraded, draw_sum, tally = self.degraded, self.draw_sum, self.tally
        dangerous, single_safe = self.dangerous, self._single_safe
        n, trials = fail_at.shape
        lambd = self.streams.lambd
        # Flat (disk, trial) views: one index serves the lane, its next
        # unread slot and its failure clock (1-D gathers are several
        # times cheaper than 2-D ones). The auxiliary lane keeps its own
        # next-slot column.
        disk_lanes = self.streams.lanes[:, :n].T.ravel()
        aux_lanes = self.streams.lanes[:, n]
        flat_fail_at = fail_at.reshape(-1)
        drawn = _np.ones(n * trials, dtype=_np.uint64)
        checked = _np.zeros(trials, dtype=_np.uint64)
        active = _np.arange(trials)
        while active.size:
            fa = fail_at.take(active, axis=1)
            tf = fa.min(axis=0)
            # The first disk at the minimum, as argmin would pick it.
            first = (fa == tf).argmax(axis=0)
            # Disks whose next failure falls past the horizon are never
            # seen.
            over = tf > horizon_hours
            comp = tf + hours1[first]
            fa.reshape(-1)[first * active.size + _np.arange(active.size)] = _np.inf
            second = fa.min(axis=0)
            if single_safe:
                # A pending failure at the same instant as a completion
                # pops first (it always carries a lower heap sequence
                # number), so an exact tie is an overlap, hence <= on
                # both sides.
                danger = ~over & (second <= comp) & (second <= horizon_hours)
            else:
                danger = ~over
            trunc = ~(over | danger) & (comp > horizon_hours)
            clean = ~(over | danger | trunc)
            if lse_thresholds is not None:
                # The event plane draws no Poisson uniform when the
                # rebuild read zero bytes, so zero-byte completions keep
                # their slot.
                check = clean & (bytes_read[first] > 0)
                hit = _np.flatnonzero(check)
                if hit.size:
                    t_ix = active[hit]
                    struck = (
                        _uniforms(aux_lanes[t_ix], checked[t_ix])
                        > lse_thresholds[first[hit]]
                    )
                    danger[hit[struck]] = True
                    clean[hit[struck]] = False
                    checked[t_ix[~struck]] += _np.uint64(1)
            if tally is not None:  # after the strikes left the clean set
                kept, repaired = clean | trunc, _np.where(clean, comp, _np.nan)
                tally.append((active[kept], tf[kept], first[kept], repaired[kept]))
            # Truncations are rare: skip their gathers when there are none.
            ti = _np.flatnonzero(trunc)
            if ti.size:
                t_trunc = active[ti]
                n_failures[t_trunc] += 1
                degraded[t_trunc] += horizon_hours - tf[ti]
            dangerous[active[danger]] = True
            ci = _np.flatnonzero(clean)
            t_clean = active[ci]
            cell = first[ci] * trials + t_clean
            slot = drawn[cell]
            redraw = _exponentials(_uniforms(disk_lanes[cell], slot), lambd)
            drawn[cell] = slot + _np.uint64(1)
            n_failures[t_clean] += 1
            n_repairs[t_clean] += 1
            repaired = comp[ci]
            degraded[t_clean] += repaired - tf[ci]
            flat_fail_at[cell] = repaired + redraw
            if draw_sum is not None:
                draw_sum[t_clean] += redraw
            active = active[clean]
        self.peak[(~dangerous) & (n_failures > 0)] = 1

    def overlaps(self):
        """``(first, second)`` disk columns of the trials flagged at an overlap.

        A flagged trial leaves the rounds with its failure clocks as they
        stood at the incident, so its two earliest clocks are the disks
        down when the second failure lands: the first multi-disk failed
        set its walk reaches. Trials flagged for anything else — a
        latent-error strike, or (``guarantee == 0``) a lone failure —
        have their second failure after the rebuild and add no pair.
        """
        fa = self.fail_at[:, self.dangerous]
        cols = _np.arange(fa.shape[1])
        first = fa.argmin(axis=0)
        comp = fa[first, cols] + self._tables.hours[first]
        fa[first, cols] = _np.inf
        second = fa.argmin(axis=0)
        at = fa[second, cols]
        overlap = (at <= comp) & (at <= self._horizon_hours)
        return first[overlap], second[overlap]
