"""Tests for the CUDA occupancy calculator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.gpu.device import TESLA_C2050, DeviceSpec
from repro.gpu.kernelspec import KernelLaunch, sshopm_launch
from repro.gpu.occupancy import compute_occupancy
from repro.kernels.compressed import symmetric_flops_scalar, symmetric_flops_vector


def launch_with(threads=128, regs=18, smem=60, name="t"):
    return KernelLaunch(
        name=name,
        threads_per_block=threads,
        registers_per_thread=regs,
        shared_mem_per_block=smem,
        flops_per_thread_iter=100.0,
        instr_per_thread_iter=120.0,
    )


class TestLimits:
    def test_paper_kernel_fully_resident(self):
        """m=4, n=3 unrolled with V=128: light footprint, limited only by
        the hardware block cap."""
        occ = compute_occupancy(TESLA_C2050, sshopm_launch(4, 3))
        assert occ.blocks_per_sm == TESLA_C2050.max_blocks_per_sm
        assert occ.limiting_factor == "blocks"
        assert occ.launchable

    def test_thread_limit(self):
        occ = compute_occupancy(TESLA_C2050, launch_with(threads=1024, regs=4, smem=0))
        assert occ.blocks_per_sm == 1  # 1536 // 1024
        assert occ.limiting_factor == "threads"

    def test_register_limit(self):
        occ = compute_occupancy(TESLA_C2050, launch_with(regs=60, threads=128))
        # 32768 // (60*128) = 4
        assert occ.blocks_per_sm == 4
        assert occ.limiting_factor == "registers"

    def test_shared_mem_limit(self):
        occ = compute_occupancy(TESLA_C2050, launch_with(smem=20000))
        assert occ.blocks_per_sm == 2  # 49152 // 20000
        assert occ.limiting_factor == "shared_mem"

    def test_unlaunchable_block_too_large(self):
        occ = compute_occupancy(TESLA_C2050, launch_with(threads=2048))
        assert not occ.launchable
        assert occ.limiting_factor == "unlaunchable"

    def test_unlaunchable_shared_mem(self):
        occ = compute_occupancy(TESLA_C2050, launch_with(smem=10**6))
        assert not occ.launchable

    def test_spill_detection(self):
        occ = compute_occupancy(TESLA_C2050, launch_with(regs=80))
        assert occ.spilled_registers == 80 - TESLA_C2050.max_registers_per_thread
        assert occ.launchable  # clamped to the cap, still launches

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            compute_occupancy(TESLA_C2050, launch_with(threads=0))


class TestProperties:
    @given(st.integers(1, 63), st.integers(0, 4096))
    def test_never_exceeds_device_limits(self, regs, smem):
        occ = compute_occupancy(TESLA_C2050, launch_with(regs=regs, smem=smem))
        dev = TESLA_C2050
        assert occ.blocks_per_sm <= dev.max_blocks_per_sm
        assert occ.blocks_per_sm * 128 <= dev.max_threads_per_sm
        assert occ.blocks_per_sm * regs * 128 <= dev.registers_per_sm
        if smem:
            assert occ.blocks_per_sm * smem <= dev.shared_mem_per_sm
        assert 0.0 <= occ.occupancy <= 1.0

    @given(st.integers(1, 120))
    def test_monotone_in_registers(self, regs):
        a = compute_occupancy(TESLA_C2050, launch_with(regs=regs))
        b = compute_occupancy(TESLA_C2050, launch_with(regs=regs + 8))
        assert b.blocks_per_sm <= a.blocks_per_sm

    @given(st.integers(0, 48000))
    def test_monotone_in_shared_mem(self, smem):
        a = compute_occupancy(TESLA_C2050, launch_with(smem=smem))
        b = compute_occupancy(TESLA_C2050, launch_with(smem=smem + 4096))
        assert b.blocks_per_sm <= a.blocks_per_sm


class TestSectionVEFalloff:
    def test_occupancy_drops_past_threshold(self):
        """Section V-E: 'decreased performance for tensor sizes past a
        threshold of around order 4 and dimension 5' — the resource model
        must show full residency at the paper's size and reduced residency
        beyond the threshold."""
        at_app_size = compute_occupancy(TESLA_C2050, sshopm_launch(4, 3))
        past = compute_occupancy(TESLA_C2050, sshopm_launch(4, 6))
        assert at_app_size.blocks_per_sm == TESLA_C2050.max_blocks_per_sm
        assert past.blocks_per_sm < at_app_size.blocks_per_sm

    def test_growth_is_monotone_in_dimension(self):
        blocks = [
            compute_occupancy(TESLA_C2050, sshopm_launch(4, n)).blocks_per_sm
            for n in (3, 4, 5, 6, 7)
        ]
        assert all(b2 <= b1 for b1, b2 in zip(blocks, blocks[1:]))

    def test_general_variant_shared_mem_grows_with_order(self):
        s3 = sshopm_launch(4, 3, variant="general").shared_mem_per_block
        s6 = sshopm_launch(6, 3, variant="general").shared_mem_per_block
        assert s6 > s3

    def test_general_launch_past_the_unroll_guard(self):
        # 17,550 unique entries: "unrolled" refuses, "general" counts the
        # Figure 2-3 kernels' flops, which need no unrolling
        launch = sshopm_launch(4, 24, variant="general")
        assert launch.flops_per_thread_iter == (
            symmetric_flops_scalar(4, 24) + symmetric_flops_vector(4, 24)
            + 3 * 24 + 4)
        assert not compute_occupancy(TESLA_C2050, launch).launchable
        with pytest.raises(ValueError, match="refusing to unroll"):
            sshopm_launch(4, 24, variant="unrolled")
