"""Baseline dynamic page-level mapping FTL (the paper's "FTL").

Every logical page maps to one physical page.  A write that covers a
page only partially triggers read-modify-write: the old page is read,
merged with the new sectors, and the union is programmed to a fresh
page (the old one is invalidated).  An *across-page* request therefore
costs two flash programs — and up to two RMW reads — even though it
carries no more than one page of data.  That is precisely the overhead
Figure 4 measures and Across-FTL removes.

The full mapping table fits controller DRAM (paper §4.1), so this
scheme produces no Map flash traffic in Fig. 10.
"""

from __future__ import annotations

from typing import Optional

from ..metrics.counters import OpKind
from ..units import split_extent
from .base import BaseFTL, iter_bits


class PageMapFTL(BaseFTL):
    """Dynamic page-level mapping with read-modify-write."""

    name = "ftl"

    def __init__(self, service, *, rmw_enabled: bool = True, **kw):
        super().__init__(service, **kw)
        #: ablation knob (bench_ablation_rmw): when False, partial-page
        #: writes do not read the old page first — this breaks data
        #: retention on purpose to isolate RMW's cost.
        self.rmw_enabled = rmw_enabled
        #: PMT lookups go through a cache that, at default settings,
        #: wholly fits DRAM — modelling the paper's in-DRAM baseline.
        entries_per_page = max(1, self.cfg.page_size_bytes // self.PMT_ENTRY_BYTES)
        self._pmt_cache = self._make_cache(
            table_id=0,
            entries_per_page=entries_per_page,
            capacity_entries=self.dram_entries,
        )

    # ------------------------------------------------------------------
    def write(
        self, offset: int, size: int, now: float, stamps: Optional[dict] = None
    ) -> float:
        """Service a write piece-by-piece with RMW on partial pages."""
        finish = now
        timed = self.timed
        access = self._pmt_cache.access
        write_page = self._write_data_page
        rmw = self.rmw_enabled
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            t = access(lpn, now, dirty=True, timed=timed)
            if not rmw:
                # ablation: pretend the page held nothing else
                self._pmt_mask[lpn] = 0
            t = write_page(
                lpn, rel_lo, rel_lo + count, t if t > now else now, stamps
            )
            if t > finish:
                finish = t
        return finish

    # ------------------------------------------------------------------
    def write_run(self, offsets, sizes, target: int | None = None) -> int:
        """Fused aging-write kernel: the per-piece pipeline of :meth:`write` — PMT-cache touch, RMW read, old-page
        invalidate, allocate, program, GC check — inlined into one loop
        with the untimed/payload-free/unobserved branches resolved.

        Bit-identical to the generic scalar loop: every counter bump,
        protocol check, LRU movement, allocator-cursor advance and GC
        trigger happens in exactly the order :meth:`write` produces.
        Any precondition miss (timed mode, payload tracking,
        observability) delegates to :meth:`BaseFTL.write_run`.
        """
        if self._write_run_fallback():
            return super().write_run(offsets, sizes, target)
        if target is None:
            target = float("inf")
        from ..errors import FlashProtocolError
        from ..flash.array import PAGE_FREE, PAGE_INVALID, PAGE_VALID
        from .meta import DataPageMeta

        c = self.counters
        writes = c.writes
        reads = c.reads
        aging = OpKind.AGING
        spp = self.spp
        rmw = self.rmw_enabled
        pmt = self._pmt
        pmt_mask = self._pmt_mask
        cache = self._pmt_cache
        epp = cache.entries_per_page
        cached = cache._cached
        move_to_end = cached.move_to_end
        access = cache.access
        service = self.service
        arr = service.array
        state = arr._state
        wp = arr._write_ptr
        valid_count = arr._valid_count
        last_mod = arr._last_mod
        meta_of = arr._meta
        allocator = self.allocator
        allocate = allocator.allocate
        order = allocator._plane_order
        active = allocator._active[0]
        n_planes = len(order)
        ppb = allocator._ppb
        gc = self.gc
        maybe_collect = gc.maybe_collect
        retire_pending = gc._retire_pending
        free_blocks = gc._free_blocks
        ok_free = gc._ok_free_count
        pages_per_plane = self.geom.pages_per_plane

        consumed = 0
        for offset, size in zip(offsets, sizes):
            end = offset + size
            first = offset // spp
            last = (end - 1) // spp
            for lpn in range(first, last + 1):
                page_lo = lpn * spp
                rel_lo = offset - page_lo if offset > page_lo else 0
                rel_hi = end - page_lo if end < page_lo + spp else spp
                # --- mapping-cache touch (dirty, untimed, hit inlined;
                # an unlimited cache never caches and takes access())
                tvpn = lpn // epp
                if tvpn in cached:
                    c.dram_accesses += 1
                    cache.hits += 1
                    move_to_end(tvpn)
                    cached[tvpn] = True
                else:
                    access(lpn, 0.0, dirty=True, timed=False)
                if not rmw:
                    pmt_mask[lpn] = 0
                # --- _write_data_page, untimed / no payload / no obs
                new_mask = ((1 << (rel_hi - rel_lo)) - 1) << rel_lo
                old_ppn = pmt[lpn]
                old_mask = pmt_mask[lpn]
                if old_mask & ~new_mask and old_ppn >= 0:
                    # RMW read of the old page (untimed aging read)
                    if state[old_ppn] != PAGE_VALID:
                        raise FlashProtocolError(
                            f"read of non-valid PPN {old_ppn}"
                        )
                    arr.total_page_reads += 1
                    reads[aging] += 1
                if old_ppn >= 0:
                    if state[old_ppn] != PAGE_VALID:
                        raise FlashProtocolError(
                            f"invalidate of non-valid PPN {old_ppn}"
                        )
                    state[old_ppn] = PAGE_INVALID
                    old_block = old_ppn // ppb
                    valid_count[old_block] -= 1
                    del meta_of[old_ppn]
                    seq = arr.mod_seq + 1
                    arr.mod_seq = seq
                    last_mod[old_block] = seq
                full_mask = old_mask | new_mask
                # --- allocate (round-robin fast path, exact fallback)
                cur = allocator._cursor
                plane = order[cur]
                block = active[plane]
                ppn = -1
                if block is not None:
                    p = wp[block]
                    if p < ppb:
                        ppn = block * ppb + p
                        allocator._cursor = cur + 1 if cur + 1 < n_planes else 0
                if ppn < 0:
                    ppn = allocate(0)
                # --- program (untimed, AGING kind)
                if state[ppn] != PAGE_FREE:
                    raise FlashProtocolError(f"program of non-free PPN {ppn}")
                block = ppn // ppb
                page = ppn - block * ppb
                if page != wp[block]:
                    raise FlashProtocolError(
                        f"out-of-order program: block {block} expects page "
                        f"{wp[block]}, got {page}"
                    )
                state[ppn] = PAGE_VALID
                wp[block] = page + 1
                valid_count[block] += 1
                arr.total_programs += 1
                meta_of[ppn] = DataPageMeta(lpn, full_mask, None)
                seq = arr.mod_seq + 1
                arr.mod_seq = seq
                last_mod[block] = seq
                writes[aging] += 1
                # --- GC check on the written plane
                plane = ppn // pages_per_plane
                if retire_pending or len(free_blocks[plane]) < ok_free:
                    maybe_collect(plane, 0.0, timed=False)
                pmt[lpn] = ppn
                pmt_mask[lpn] = full_mask
            consumed += 1
            if writes[aging] >= target:
                break
        return consumed

    # ------------------------------------------------------------------
    def read(
        self, offset: int, size: int, now: float
    ) -> tuple[float, Optional[dict]]:
        """Service a read: one flash read per written page touched."""
        finish = now
        timed = self.timed
        kind = OpKind.DATA if timed else OpKind.AGING
        access = self._pmt_cache.access
        read_page = self.service.read_page
        found: Optional[dict] = {} if self.track_payload else None
        for lpn, rel_lo, count in split_extent(offset, size, self.spp):
            t = access(lpn, now, dirty=False, timed=timed)
            if t > finish:
                finish = t
            wanted = ((1 << count) - 1) << rel_lo
            present = self._pmt_mask[lpn] & wanted
            if not present:
                continue  # nothing of this piece was ever written
            if self.service.obs is not None:
                self._emit_decision("page_read", lpn, now)
            ppn = self._pmt[lpn]
            t = read_page(ppn, now, kind, timed=timed)
            if t > finish:
                finish = t
            if found is not None:
                base = lpn * self.spp
                sectors = [base + bit for bit in iter_bits(present)]
                self._read_stamps_from(ppn, sectors, found)
        return finish, found

    # ------------------------------------------------------------------
    def mapping_table_bytes(self) -> int:
        """Fig. 12a model: entries are demand-allocated per mapped LPN
        (all three schemes use the same convention, so the paper's
        1.4x/2.4x ratios are comparable)."""
        return int((self.pmt >= 0).sum()) * self.PMT_ENTRY_BYTES

    def flush_metadata(self, now: float) -> float:
        """Write back dirty PMT translation pages (end-of-run barrier)."""
        return self._pmt_cache.flush(now, timed=self.timed)

    def stats(self) -> dict:
        """PMT-cache statistics for the report."""
        s = super().stats()
        s.update(
            pmt_cache_hits=self._pmt_cache.hits,
            pmt_cache_misses=self._pmt_cache.misses,
        )
        return s
