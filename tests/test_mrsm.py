"""MRSM sub-page regional mapping FTL."""

import pytest

from repro.errors import ConfigError
from repro.flash.service import FlashService
from repro.ftl.mrsm import MRSMFTL
from conftest import build_ftl


@pytest.fixture
def ftl_pair(tiny_cfg):
    return build_ftl("mrsm", tiny_cfg)


def stamps_for(offset, size, v):
    return {s: v for s in range(offset, offset + size)}


class TestRegionGeometry:
    def test_region_size(self, ftl_pair):
        _, ftl = ftl_pair
        assert ftl.R == 4
        assert ftl.region_sectors == 4  # 2 KiB regions on 8 KiB pages

    def test_split_regions(self, ftl_pair):
        _, ftl = ftl_pair
        pieces = list(ftl._split_regions(6, 10))
        # sectors 6..16: regions 1 (6..8), 2 (8..12), 3 (12..16)
        assert pieces == [(1, 2, 4), (2, 0, 4), (3, 0, 4)]

    def test_invalid_region_count(self, tiny_cfg):
        svc = FlashService(tiny_cfg)
        with pytest.raises(ConfigError):
            MRSMFTL(svc, regions_per_page=5)


class TestPacking:
    def test_across_page_write_single_program(self, ftl_pair):
        svc, ftl = ftl_pair
        # 12-sector across-page extent = 3 regions -> ONE program
        ftl.write(2056, 12, 0.0, stamps_for(2056, 12, 1))
        assert svc.counters.data_writes == 1

    def test_full_page_write_single_program(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        assert svc.counters.data_writes == 1

    def test_large_write_multiple_pages(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 32, 0.0, stamps_for(0, 32, 1))  # 8 regions -> 2 pages
        assert svc.counters.data_writes == 2

    def test_region_aligned_update_no_rmw(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        before = svc.counters.data_reads
        ftl.write(4, 8, 0.0, stamps_for(4, 8, 2))  # region-aligned
        assert svc.counters.data_reads == before  # "overwrites directly"
        assert svc.counters.update_reads == 0

    def test_sub_region_update_rmw(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        ftl.write(1, 2, 0.0, stamps_for(1, 2, 2))  # partial region 0
        assert svc.counters.update_reads == 1
        _, found = ftl.read(0, 4, 0.0)
        assert found[0] == 1 and found[1] == 2 and found[2] == 2 and found[3] == 1


class TestSlotLiveness:
    def test_page_invalidated_when_all_slots_die(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        ppn = ftl.region_map[0][0]
        assert svc.array.is_valid(ppn)
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 2))  # kills all 4 slots
        assert not svc.array.is_valid(ppn)

    def test_page_survives_partial_overwrite(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        ppn = ftl.region_map[0][0]
        ftl.write(0, 4, 0.0, stamps_for(0, 4, 2))  # kills one slot
        assert svc.array.is_valid(ppn)  # three slots still live

    def test_region_map_points_to_new_page(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        old = ftl.region_map[0]
        ftl.write(0, 4, 0.0, stamps_for(0, 4, 2))
        assert ftl.region_map[0] != old
        assert ftl.region_map[1][0] == old[0]  # untouched region stays


class TestReads:
    def test_read_spanning_regions(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        before = svc.counters.data_reads
        _, found = ftl.read(2, 10, 0.0)
        assert svc.counters.data_reads - before == 1  # one packed page
        assert len(found) == 10

    def test_read_fragmented_page_multiple_reads(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        ftl.write(4, 4, 0.0, stamps_for(4, 4, 2))  # region 1 moves
        before = svc.counters.data_reads
        _, found = ftl.read(0, 16, 0.0)
        assert svc.counters.data_reads - before == 2  # two physical pages
        assert found[0] == 1 and found[4] == 2 and found[8] == 1

    def test_read_unwritten(self, ftl_pair):
        svc, ftl = ftl_pair
        t, found = ftl.read(512, 16, 1.0)
        assert t == 1.0 and found == {}

    def test_read_survives_gc_during_its_cache_walk(self):
        """Regression: a read's mapping-cache miss can evict a dirty
        translation page whose write-back triggers GC and relocates a
        data page the read wants.  Collecting PPNs while still walking
        the cache read the stale PPN (``FlashProtocolError: read of
        non-valid PPN 1194`` on this workload)."""
        from repro.config import SimConfig, SSDConfig
        from repro.experiments.workloads import lun_specs
        from repro.ftl import make_ftl
        from repro.sim.engine import Simulator
        from repro.traces.synthetic import generate_trace
        from repro.units import KIB

        cfg = SSDConfig.tiny().replace(write_buffer_bytes=512 * KIB)
        spec = next(
            s for s in lun_specs(
                cfg, scale=0.025, footprint_fraction=0.8,
                seed_base=2125004105,
            )
            if s.name == "lun1"
        )
        trace = generate_trace(spec)
        sim = Simulator(make_ftl("mrsm", FlashService(cfg)), SimConfig())
        report = sim.run(trace)
        assert report.requests == len(trace)
        assert report.counters.erases > 0  # GC ran during the replay
        sim.ftl.check_invariants()


class TestGCRelocation:
    def test_compaction_of_live_slots(self, ftl_pair):
        svc, ftl = ftl_pair
        ftl.write(0, 16, 0.0, stamps_for(0, 16, 1))
        ppn = ftl.region_map[0][0]
        ftl.write(0, 4, 0.0, stamps_for(0, 4, 2))   # slot 0 dead
        ftl.write(8, 4, 0.0, stamps_for(8, 4, 3))   # slot 2 dead
        ftl._relocate(ppn, 0.0, True)
        assert not svc.array.is_valid(ppn)
        # surviving regions 1 and 3 compacted onto a new page
        new_ppn = ftl.region_map[1][0]
        assert ftl.region_map[3][0] == new_ppn
        _, found = ftl.read(0, 16, 0.0)
        assert found[5] == 1 and found[13] == 1 and found[0] == 2 and found[9] == 3
        ftl.check_invariants()

    def test_sustained_overwrite_under_gc(self, micro_cfg):
        svc, ftl = build_ftl("mrsm", micro_cfg)
        spp = ftl.spp
        hot = max(4, ftl.logical_pages // 8)
        for i in range(3 * svc.geom.num_pages):
            lpn = i % hot
            ftl.write(lpn * spp + (i % 3), min(spp - (i % 3), 6 + (i % 8)), 0.0,
                      None)
        assert svc.counters.erases > 0
        ftl.check_invariants()


class TestAdaptiveTable:
    def test_packed_page_one_entry(self, ftl_pair):
        _, ftl = ftl_pair
        ftl.write(0, 16, 0.0)  # 4 regions packed in order on one page
        assert ftl.mapping_table_bytes() == 8  # one plain page entry

    def test_fragmented_page_per_region_entries(self, ftl_pair):
        _, ftl = ftl_pair
        ftl.write(0, 16, 0.0)
        ftl.write(4, 4, 0.0)  # fragment
        assert ftl.mapping_table_bytes() == 4 * 16  # offset/size entries

    def test_partial_page_counts_regions(self, ftl_pair):
        _, ftl = ftl_pair
        ftl.write(0, 8, 0.0)  # two regions only
        assert ftl.mapping_table_bytes() == 2 * 16

    def test_empty_table(self, ftl_pair):
        _, ftl = ftl_pair
        assert ftl.mapping_table_bytes() == 0


class TestStats:
    def test_stats_keys(self, ftl_pair):
        _, ftl = ftl_pair
        ftl.write(0, 16, 0.0)
        s = ftl.stats()
        assert s["region_entries"] == 4
        assert "map_residency" in s

    def test_tree_touches_grow(self, ftl_pair):
        svc, ftl = ftl_pair
        t0 = ftl._tree_touches()
        for i in range(64):
            ftl.write(i * 16, 16, 0.0)
        assert ftl._tree_touches() >= t0
