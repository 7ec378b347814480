"""Tests for the generated CUDA source (structure, term counts, syntax)."""

import re

import pytest

from repro.kernels.cudagen import (
    _generate_cuda_kernel as generate_cuda_kernel,
    generate_cuda_module,
    generate_host_launcher,
)
from repro.cli import main
from repro.kernels.tables import kernel_tables
from repro.kernels.unrolled import MAX_UNROLLED_ENTRIES
from repro.util.combinatorics import num_unique_entries


def balanced(src: str) -> bool:
    return src.count("{") == src.count("}") and src.count("(") == src.count(")")


class TestUnrolledKernel:
    def test_structure(self):
        src = generate_cuda_kernel(4, 3, 128, "unrolled")
        assert "__global__" in src
        assert "__shared__ float a[U]" in src
        assert "__syncthreads()" in src
        assert "rsqrtf" in src
        assert "#define U 15" in src
        assert "#define V 128" in src
        assert balanced(src)

    def test_term_counts_match_paper(self):
        """Section V-D: 15 terms in A x^m, 10 per output entry of
        A x^{m-1} for m=4, n=3."""
        src = generate_cuda_kernel(4, 3, 128, "unrolled")
        # every unique value is referenced: a[0] .. a[14]
        for u in range(15):
            assert f"a[{u}]" in src
        # each y_i expression has 10 terms (9 '+' inside its parenthesized sum)
        for i in range(3):
            match = re.search(
                rf"float y{i} = \((.*?)\);", src, flags=re.DOTALL
            )
            assert match, f"y{i} missing"
            assert match.group(1).count("a[") == 10

    def test_register_vectors_not_arrays(self):
        """The unrolled kernel keeps x/y entries as scalars (registers),
        never as indexed local arrays (Section V-D's point)."""
        src = generate_cuda_kernel(4, 3, 128, "unrolled")
        assert "float x[" not in src
        assert "x0" in src and "y2" in src

    def test_other_sizes(self):
        for m, n in [(2, 3), (3, 4), (6, 3)]:
            src = generate_cuda_kernel(m, n, 64, "unrolled")
            assert f"#define U {num_unique_entries(m, n)}" in src
            assert balanced(src)

    def test_refuses_huge_unroll(self):
        with pytest.raises(ValueError):
            generate_cuda_kernel(8, 8, 128, "unrolled")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            generate_cuda_kernel(4, 3, 128, "simd")


class TestGeneralKernel:
    def test_structure(self):
        src = generate_cuda_kernel(4, 3, 128, "general")
        assert "__constant__ int c_index" in src
        assert "__constant__ float c_mult" in src
        assert "// Figure 2" in src
        assert "// Figure 3" in src
        assert balanced(src)

    def test_constant_tables_content(self):
        """The emitted constant initializers are the exact kernel tables."""
        src = generate_cuda_kernel(4, 3, 128, "general")
        tab = kernel_tables(4, 3)
        idx_match = re.search(r"c_index\[U \* M\] = \{ (.*?) \}", src)
        values = [int(v) for v in idx_match.group(1).split(",")]
        assert values == [int(v) for row in tab.index for v in row]
        mult_match = re.search(r"c_mult\[U\] = \{ (.*?) \}", src)
        mults = [int(v) for v in mult_match.group(1).split(",")]
        assert mults == list(tab.mult)

    def test_footnote3_sigma_recovery(self):
        """The general kernel derives sigma via C(m;k) * k_i / m."""
        src = generate_cuda_kernel(4, 3, 128, "general")
        assert "c_mult[u] * ki / (float)M" in src

    def test_scales_to_large_sizes(self):
        src = generate_cuda_kernel(6, 6, 128, "general")
        assert f"#define U {num_unique_entries(6, 6)}" in src
        assert balanced(src)


class TestModule:
    def test_full_module(self):
        src = generate_cuda_module()
        assert "sshopm_unrolled" in src
        assert "sshopm_general" in src
        assert balanced(src)

    def test_launcher_layout(self):
        src = generate_host_launcher(4, 3, 128)
        assert "dim3 block(128)" in src
        assert "T * 15 floats" in src

    def test_generation_cached(self):
        assert generate_cuda_kernel(4, 3) is generate_cuda_kernel(4, 3)

    def test_past_the_unroll_guard_only_the_general_kernel(self, tmp_path):
        # 17,550 unique entries: no unrolled kernel, and the launcher
        # starts the general one; `repro cudagen` writes the module
        src = generate_cuda_module(4, 24)
        assert num_unique_entries(4, 24) > MAX_UNROLLED_ENTRIES
        assert "void sshopm_unrolled" not in src
        assert "void sshopm_general" in src
        assert "// No sshopm_unrolled kernel: m=4, n=24 has 17550" in src
        assert "sshopm_general<<<grid, block>>>" in src
        assert balanced(src)
        out = tmp_path / "k.cu"
        assert main(["cudagen", "--m", "4", "--n", "24", "-o", str(out)]) == 0
        assert out.read_text() == src
