"""Version 2.0 removed every deprecation shim: the old spellings fail
loudly (``TypeError`` / ``AttributeError`` / ``ImportError``) instead of
warning, and the supported spellings stay warning-free."""

import sys
import warnings
from importlib import import_module

import numpy as np
import pytest

import repro.kernels
import repro.kernels.autotune
from repro.core import adaptive_sshopm, sshopm
from repro.engine import fleet_solve
from repro.solvers import geap, qrst
from repro.symtensor import random_symmetric_batch, random_symmetric_tensor


def catch(fn):
    """Run ``fn`` recording all warnings; return the DeprecationWarnings."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        fn()
    return [r for r in records if issubclass(r.category, DeprecationWarning)]


@pytest.fixture(scope="module")
def tensor():
    return random_symmetric_tensor(3, 3, rng=9)


class TestMaxIterKeyword:
    @pytest.mark.parametrize("solver", [sshopm, adaptive_sshopm, geap, qrst,
                                        fleet_solve],
                             ids=lambda fn: fn.__name__)
    def test_removed_keyword_is_rejected(self, tensor, solver):
        with pytest.raises(TypeError, match="max_iter"):
            solver(tensor, max_iter=7)

    def test_new_spelling_is_silent(self, tensor):
        assert catch(lambda: sshopm(tensor, alpha=5.0, rng=0, max_iters=5)) == []


class TestFlatKernelAliases:
    @pytest.mark.parametrize("name", [
        "ax_m_batched", "ax_m1_batched",
        "ax_m_blocked_batched", "ax_m1_blocked_batched",
    ])
    def test_alias_removed(self, name):
        home = ("repro.kernels.blocked_batched" if "blocked" in name
                else "repro.kernels.batched")
        with pytest.raises(AttributeError):
            getattr(repro.kernels, name)
        assert callable(getattr(import_module(home), name))

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.kernels.no_such_kernel


class TestGeneratorAliases:
    """The direct code-generator entry points are gone; the
    repro.kernels.codegen emitter registry is the one way in."""

    @pytest.mark.parametrize("name", [
        "make_unrolled", "generate_source", "generate_cuda_kernel",
    ])
    def test_package_alias_removed(self, name):
        with pytest.raises(AttributeError):
            getattr(repro.kernels, name)

    def test_submodule_alias_removed(self):
        import repro.kernels.cudagen
        import repro.kernels.unrolled

        for module, name in ((repro.kernels.unrolled, "make_unrolled"),
                             (repro.kernels.unrolled, "generate_source"),
                             (repro.kernels.cudagen, "generate_cuda_kernel")):
            with pytest.raises(AttributeError):
                getattr(module, name)

    def test_registry_path_is_silent(self):
        from repro.kernels.codegen import emit

        assert catch(lambda: emit(3, 3, "unrolled")) == []

    def test_package_import_is_warning_free(self):
        """Merely importing repro.kernels must not warn."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import warnings
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                import repro.kernels
            bad = [str(w.message) for w in records
                   if issubclass(w.category, DeprecationWarning)
                   and "repro" in str(w.message)]
            assert not bad, bad
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestOneKernelLookup:
    """After 2.0.0, batched suites come only from
    ``repro.kernels.plan.get_plan`` and ``get_kernels`` is a per-tensor
    lookup: the batched/instrumented keywords and the second spellings
    are gone."""

    @pytest.mark.parametrize("option", [{"batched": True},
                                        {"instrumented": True},
                                        {"counter": None}])
    def test_get_kernels_rejects_removed_keyword(self, option):
        with pytest.raises(TypeError, match=next(iter(option))):
            repro.kernels.get_kernels("vectorized", 4, 3, **option)

    def test_available_variants_rejects_batched(self):
        with pytest.raises(TypeError, match="batched"):
            repro.kernels.available_variants(batched=True)

    @pytest.mark.parametrize("module, name", [
        ("repro.kernels.plan", "contract_many"),
        ("repro.kernels.codegen", "generated_source"),
    ])
    def test_name_removed(self, module, name):
        assert not hasattr(import_module(module), name)

    def test_emit_ignores_source_option(self):
        from repro.kernels.codegen import emit

        plain = emit(3, 3, "unrolled", target="numpy", batched=True)
        assert emit(3, 3, "unrolled", target="numpy", batched=True,
                    source="ax_m = ax_m1 = None") is plain

    def test_plan_path_is_silent(self):
        from repro.kernels.plan import get_plan

        assert catch(lambda: get_plan(4, 3, "vectorized")) == []


class TestOneNamePerKernelOption:
    """``variant=`` names the batched kernel variant and ``backend=`` the
    codegen backend at every layer; the other spellings fail loudly."""

    def test_solve_config_has_no_codegen_backend(self):
        from repro.core import SolveConfig

        with pytest.raises(TypeError, match="codegen_backend"):
            SolveConfig(codegen_backend="numpy")
        cfg = SolveConfig(variant="unrolled", backend="numpy")
        assert (cfg.variant, cfg.backend) == ("unrolled", "numpy")

    def test_solve_rejects_codegen_backend(self):
        import repro

        batch = random_symmetric_batch(2, 3, 3, rng=9)
        with pytest.raises(TypeError, match="codegen_backend"):
            repro.solve(batch, starts=2, codegen_backend="numpy")

    def test_solve_backend_is_not_a_variant(self):
        import repro
        from repro.kernels.errors import UnknownBackendError

        batch = random_symmetric_batch(2, 3, 3, rng=9)
        with pytest.raises(UnknownBackendError):
            repro.solve(batch, starts=2, backend="unrolled")

    @pytest.mark.parametrize("alias", ["batched", "batched_unrolled"])
    def test_multistart_variant_aliases_removed(self, alias):
        from repro.kernels.errors import UnknownVariantError
        from repro.kernels.plan import get_plan

        with pytest.raises(UnknownVariantError):
            get_plan(4, 3, alias)

    @pytest.mark.parametrize("name", ["autotune_backend",
                                      "BackendTuneReport"])
    def test_backend_race_removed(self, name):
        assert not hasattr(repro.kernels, name)
        assert not hasattr(repro.kernels.autotune, name)


class TestOneTermGenerator:
    """The unrolled kernels are described once
    (``repro.kernels.unrolled.unrolled_terms``) and compiled only by the
    codegen emitters; the per-renderer copies, the second result type and
    the geap copy of the tangent eigenvalues are gone."""

    @pytest.mark.parametrize("module, name", [
        ("repro.kernels", "UnrolledKernels"),
        ("repro.kernels.unrolled", "UnrolledKernels"),
        ("repro.kernels.unrolled", "_make_unrolled"),
        ("repro.kernels.unrolled", "_generate_source"),
        ("repro.kernels.unrolled", "_monomial_expr"),
        ("repro.kernels.cudagen", "_c_monomial"),
        ("repro.kernels.cudagen", "_unrolled_scalar_expr"),
        ("repro.kernels.cudagen", "_unrolled_vector_exprs"),
        ("repro.solvers.geap", "tangent_hessian_eigenvalues"),
    ])
    def test_name_removed(self, module, name):
        assert not hasattr(import_module(module), name)

    def test_emitted_kernel_replaces_unrolled_kernels(self):
        from repro.kernels.codegen import EmittedKernel, emit

        kern = emit(3, 3, "unrolled_cse", target="numpy")
        assert isinstance(kern, EmittedKernel)
        assert kern.variant == "unrolled_cse" and not kern.batched

    def test_projected_eigenvalues_give_the_geap_shift(self, tensor):
        from repro.core import projected_hessian_eigenvalues
        from repro.solvers import projected_shift

        x = np.array([0.6, 0.0, 0.8])
        evals = projected_hessian_eigenvalues(tensor, 0.0, x)
        assert projected_shift(tensor, x, 1e-6) == max(0.0, 1e-6 - evals[0])


class TestAutotuneModule:
    """``repro.kernels.autotune`` names the module: the package no longer
    re-exports the function ``autotune`` under the module's name."""

    def test_module_reachable_by_attribute(self):
        import repro.kernels.autotune as race

        assert race is sys.modules["repro.kernels.autotune"]
        assert callable(race.plan_race) and callable(race.autotune)

    def test_package_keeps_the_other_names(self):
        assert "autotune" not in repro.kernels.__all__
        assert repro.kernels.auto_kernels is repro.kernels.autotune.auto_kernels
        assert repro.kernels.TuneReport is repro.kernels.autotune.TuneReport


class TestCoreSolverShims:
    """``repro.core.sshopm`` / ``repro.core.adaptive`` (and the lockstep
    ``repro.core.multistart``) are gone as modules; the solver *names*
    stay re-exported from the ``repro.core`` package."""

    @pytest.mark.parametrize("module", [
        "repro.core.sshopm", "repro.core.adaptive", "repro.core.multistart",
        "repro.parallel.executor", "repro.kernels._deprecation",
    ])
    def test_shim_modules_removed(self, module):
        with pytest.raises(ImportError):
            import_module(module)

    def test_from_import_fails(self):
        """The old ``from``-import spelling fails; the helper it reached
        is importable from its home in :mod:`repro.solvers`."""
        with pytest.raises(ImportError):
            from repro.core.sshopm import suggested_shift  # noqa: F401
        from repro.solvers.sshopm import suggested_shift

        assert callable(suggested_shift)

    def test_unknown_attribute_still_raises(self):
        import repro.core

        with pytest.raises(AttributeError):
            repro.core.no_such_solver

    def test_package_reexports_stay_silent(self):
        """``from repro.core import sshopm`` (the *function*, via the
        package) is the supported spelling and must not warn."""
        import repro.core

        assert catch(lambda: repro.core.sshopm) == []
        assert catch(lambda: repro.core.adaptive_sshopm) == []

    def test_package_import_is_warning_free(self):
        """Merely importing repro.core must not warn."""
        import subprocess
        import sys
        import textwrap

        script = textwrap.dedent("""
            import warnings
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                import repro.core
            bad = [str(w.message) for w in records
                   if issubclass(w.category, DeprecationWarning)
                   and "repro" in str(w.message)]
            assert not bad, bad
            assert callable(repro.core.sshopm), type(repro.core.sshopm)
        """)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestRenamedResultFields:
    def test_total_sweeps_removed(self):
        batch = random_symmetric_batch(2, 3, 3, rng=9)
        res = fleet_solve(batch, num_starts=2, alpha=5.0, rng=0, max_iters=50)
        assert not hasattr(res, "total_sweeps")
        assert res.sweeps >= 1

    def test_new_field_is_silent(self, tensor):
        res = fleet_solve(tensor, num_starts=2, alpha=5.0, rng=0,
                          max_iters=50)
        assert catch(lambda: res.sweeps) == []


class TestRemovedDrivers:
    """The lockstep multistart stack is gone; the fleet is the one
    multistart engine."""

    @pytest.mark.parametrize("module, name", [
        ("repro.core", "multistart_sshopm"),
        ("repro.core", "MultistartResult"),
        ("repro.core", "starting_vectors"),
        ("repro.parallel", "parallel_multistart_sshopm"),
        ("repro.parallel", "ParallelRunReport"),
        ("repro.core.config", "reconcile_max_iters"),
        ("repro.core.results", "warn_renamed_field"),
        ("repro.resilience.faults.FaultPlan", "executor_hook"),
    ])
    def test_name_removed(self, module, name):
        parts = module.split(".")
        if parts[-1][0].isupper():  # a class: look the attribute up on it
            obj = getattr(import_module(".".join(parts[:-1])), parts[-1])
        else:
            obj = import_module(module)
        assert not hasattr(obj, name)

    @pytest.mark.parametrize("option", [{"workers": 2},
                                        {"kernels": "vectorized"}])
    def test_runner_rejects_removed_option(self, tensor, option):
        from repro.resilience import resilient_multistart

        with pytest.raises(TypeError, match=next(iter(option))):
            resilient_multistart(tensor, num_starts=2, **option)

    def test_starting_vectors_moved_to_rng(self):
        from repro.util.rng import starting_vectors

        starts = starting_vectors(4, 3, rng=0)
        assert np.allclose(np.linalg.norm(starts, axis=1), 1.0)


class TestOneRouteTable:
    """``repro.solve`` routes its three built-in methods from one table:
    the plug-in solver registry, its per-tensor fallback engine and the
    partition helper no driver used are gone."""

    @pytest.mark.parametrize("module, name", [
        ("repro.solvers", "register_solver"),
        ("repro.solvers", "SolverEntry"),
        ("repro.solvers", "get_solver"),
        ("repro.solvers.registry", "register_solver"),
        ("repro.solvers.registry", "SolverEntry"),
        ("repro.solvers.registry", "get_solver"),
        ("repro.solvers.registry", "_REGISTRY"),
        ("repro.facade", "_solve_custom_entry"),
        ("repro.parallel", "interleaved_partition"),
        ("repro.parallel.partition", "interleaved_partition"),
    ])
    def test_name_removed(self, module, name):
        assert not hasattr(import_module(module), name)

    def test_unlisted_method_is_unknown(self, tensor):
        import repro
        from repro.core import SolveConfig
        from repro.solvers import METHODS, UnknownMethodError

        assert METHODS == ("sshopm", "geap", "qrst")
        with pytest.raises(UnknownMethodError, match="power2"):
            repro.solve(tensor, method="power2")
        with pytest.raises(UnknownMethodError, match="power2"):
            repro.solve(tensor, config=SolveConfig(method="power2"))
