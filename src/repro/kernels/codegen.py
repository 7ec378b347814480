"""One code-generation layer with pluggable emitters (ROADMAP item 2).

The paper's speed comes from *shape-specialized* kernels: generate the
fully-unrolled straight-line code for one ``(m, n)`` once, compile it
once, reuse it across every thread block.  Following the code-generation
playbook of Shi et al. (arXiv:2110.00186), the kernels are described
once — :func:`repro.kernels.unrolled.unrolled_terms` builds their term
list, CSE powers and flop counts — and every *emitter* of this registry
only renders that list: Python for ``exec``, the numba flat-batch loop,
or CUDA C (:mod:`repro.kernels.cudagen`).  Every backend turns
``(m, n, variant)`` into an :class:`EmittedKernel`, and new backends plug
in with :func:`register_emitter`.

First-class backends
--------------------
``numpy``
    Today's ``exec`` path: the Section V-D unrolled (+CSE) kernels
    compiled to CPython bytecode.  Always available.
``numba``
    JIT of the same straight-line kernels to native code via Numba, in a
    flat-batch layout (one explicit loop over lanes, per-lane scalars in
    registers) that mirrors the paper's one-thread-per-start mapping.
    Degrades gracefully to the ``numpy`` emitter when numba is not
    installed (``EmittedKernel.effective_backend`` records the fallback).
``cuda-src``
    The existing CUDA C generator (alias ``cuda``), now an emitter like
    any other: not executable on the host, but its source feeds
    ``repro cudagen``, the CPU emulation harness, and the docs.

The kernel-plan cache (:mod:`repro.kernels.plan`) resolves every compiled
suite through this registry and persists build products on disk (see
:mod:`repro.kernels.diskcache`), so JIT compilation is paid once per
shape *across processes*.  Bump :data:`CODEGEN_VERSION` whenever emitted
source changes meaning — it keys the disk cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from repro.kernels.errors import UnknownBackendError, UnknownVariantError
from repro.kernels.unrolled import (
    MAX_UNROLLED_ENTRIES,
    UnrolledTerms,
    unrolled_terms,
)
from repro.util.combinatorics import num_unique_entries

__all__ = [
    "CODEGEN_VERSION",
    "EmittedKernel",
    "Emitter",
    "available_backends",
    "emit",
    "get_emitter",
    "numba_available",
    "register_emitter",
]

#: Schema version of everything this module emits.  Keys the persistent
#: plan cache: bumping it invalidates every on-disk entry at once.
CODEGEN_VERSION = 1

# variants the executable emitters generate straight-line code for
_CODEGEN_VARIANTS = ("unrolled", "unrolled_cse")


@dataclass(frozen=True)
class EmittedKernel:
    """What an emitter produces for one ``(m, n, variant)`` specialization.

    Attributes
    ----------
    backend : the emitter asked for (``"numba"`` even when it fell back).
    effective_backend : the emitter that actually compiled the kernel —
        differs from ``backend`` only on graceful degradation.
    m, n, variant : the specialization.  ``batched`` tells whether the
        callables take broadcasting ``a[..., U]`` / ``x[..., n]`` arrays.
    source : the generated source text (Python or CUDA C), inspectable.
    ax_m, ax_m1 : compiled callables, or ``None`` for source-only
        backends (``cuda-src``).
    flops_scalar, flops_vector : exact per-evaluation flop counts from
        static analysis of the generated expressions (0 when unknown).
    compile_seconds : wall time spent generating + compiling (0.0 when
        every layer was already cached).
    meta : free-form extras (fallback reason, cache provenance, ...).
    """

    backend: str
    effective_backend: str
    m: int
    n: int
    variant: str
    batched: bool
    source: str
    ax_m: Callable | None
    ax_m1: Callable | None
    flops_scalar: int
    flops_vector: int
    compile_seconds: float
    meta: dict = field(default_factory=dict)

    @property
    def executable(self) -> bool:
        """Whether this kernel can be called on the host."""
        return self.ax_m is not None and self.ax_m1 is not None


class Emitter:
    """Base class for codegen backends.

    Subclasses set ``name`` (filled in by :func:`register_emitter`),
    ``variants`` (the variant names they accept), ``executable`` (whether
    emitted kernels run on the host), and implement :meth:`emit`.
    ``available`` gates optional dependencies — an unavailable emitter
    stays registered (it can still be listed and can degrade gracefully).
    """

    name: str = "?"
    variants: tuple[str, ...] = _CODEGEN_VARIANTS
    executable: bool = True

    def available(self) -> bool:
        return True

    def emit(self, m: int, n: int, variant: str, **opts) -> EmittedKernel:
        raise NotImplementedError

    def _check_variant(self, variant: str) -> None:
        if variant not in self.variants:
            raise UnknownVariantError(variant, list(self.variants))


_EMITTERS: dict[str, Emitter] = {}
_BACKEND_ALIASES = {"cuda": "cuda-src"}


def register_emitter(name: str):
    """Class decorator registering an :class:`Emitter` under ``name``.

    The registry instantiates the class once; re-registering a name
    replaces the previous emitter (tests use this to inject fakes).
    """

    def deco(cls):
        cls.name = name
        _EMITTERS[name] = cls()
        return cls

    return deco


def get_emitter(name: str) -> Emitter:
    """The registered emitter for ``name`` (``"cuda"`` aliases
    ``"cuda-src"``); raises :class:`UnknownBackendError` otherwise."""
    canonical = _BACKEND_ALIASES.get(name, name)
    emitter = _EMITTERS.get(canonical)
    if emitter is None:
        raise UnknownBackendError(name, available_backends())
    return emitter


def available_backends(*, executable: bool | None = None,
                       installed_only: bool = False) -> list[str]:
    """Registered backend names, sorted.

    ``executable=True`` restricts to emitters whose kernels run on the
    host; ``installed_only=True`` additionally drops emitters whose
    optional dependency is missing (note ``numba`` still *works* without
    numba — it degrades to ``numpy`` — so it only disappears from the
    ``installed_only`` view).
    """
    names = []
    for name, emitter in _EMITTERS.items():
        if executable is not None and emitter.executable != executable:
            continue
        if installed_only and not emitter.available():
            continue
        names.append(name)
    return sorted(names)


def emit(m: int, n: int, variant: str = "unrolled_cse", *,
         target: str = "numpy", **opts) -> EmittedKernel:
    """Generate (and compile, where applicable) one specialized kernel.

    The single front door of the codegen layer::

        emit(4, 6, "unrolled_cse")                      # numpy exec path
        emit(4, 6, "unrolled_cse", target="numba")      # native JIT
        emit(4, 3, "general", target="cuda-src", num_starts=128).source

    ``opts`` are forwarded to the emitter (``batched=`` for the
    executable backends, ``num_starts=`` for ``cuda-src``).
    """
    return get_emitter(target).emit(int(m), int(n), variant, **opts)


# -- rendering the term list as Python ---------------------------------------


def _variant_cse(variant: str) -> bool:
    return variant == "unrolled_cse"


def _accumulate(var: str, terms: tuple[str, ...], indent: str) -> list[str]:
    """``var = t0`` then ``var += t`` per further term.

    Accumulation *statements*, not one giant sum expression: CPython's
    compiler recurses on expression depth and overflows past ~1000
    chained additions, while a statement list compiles flat at any
    length.
    """
    return [f"{indent}{var} = {terms[0]}",
            *(f"{indent}{var} += {t}" for t in terms[1:])]


def _python_bodies(terms: UnrolledTerms, n: int, x_value: str,
                   indent: str) -> tuple[list[str], list[str]]:
    """Statements of the two Python kernels: bind ``x0..`` (``x_value``
    formats entry ``i``), define the CSE powers, then sum the terms into
    ``acc`` (``A x^m``) or ``y0..`` (``A x^{m-1}``)."""
    head = [f"{indent}x{i} = {x_value.format(i)}" for i in range(n)]
    head += [f"{indent}{name} = {expr}" for name, expr in terms.powers]
    vector = list(head)
    for i, entry in enumerate(terms.ax_m1):
        vector += _accumulate(f"y{i}", entry, indent)
    return head + _accumulate("acc", terms.ax_m, indent), vector


# -- numpy: the exec-compiled unrolled kernels -----------------------------


@lru_cache(maxsize=None)
def _numpy_emit(m: int, n: int, variant: str, batched: bool) -> EmittedKernel:
    """Render, ``exec``-compile and cache the kernel pair: scalar
    ``ax_m(a, x) -> float`` and ``ax_m1(a, x) -> ndarray(n)`` over the
    unique values ``a``, or, ``batched``, over broadcasting
    ``a[..., U]`` / ``x[..., n]`` arrays — the whole-device analog, one
    generated expression evaluating every (tensor, start) lane at once."""
    from repro.instrument.metrics import observe_codegen_compile

    cse = _variant_cse(variant)
    t0 = time.perf_counter()
    terms = unrolled_terms(m, n, cse, "a[..., {}]" if batched else "a[{}]")
    scalar, vector = _python_bodies(
        terms, n, "x[..., {}]" if batched else "x[{}]", "    ")
    ys = ", ".join(f"y{i}" for i in range(n))
    source = "\n".join([
        f'"""Auto-generated unrolled kernels for m={m}, n={n} '
        f'(cse={cse}, batched={batched})."""',
        "import numpy as np",
        "",
        "def ax_m(a, x):",
        *scalar,
        "    return acc",
        "",
        "def ax_m1(a, x):",
        *vector,
        (f"    return np.stack(np.broadcast_arrays({ys}), axis=-1)"
         if batched else f"    return np.array([{ys}])"),
        "",
    ])
    namespace: dict = {}
    code = compile(source, f"<unrolled m={m} n={n} cse={cse} batched={batched}>",
                   "exec")
    exec(code, namespace)  # noqa: S102 - controlled, generated source
    dt = time.perf_counter() - t0
    observe_codegen_compile("numpy", dt)
    return EmittedKernel(
        backend="numpy",
        effective_backend="numpy",
        m=m,
        n=n,
        variant=variant,
        batched=batched,
        source=source,
        ax_m=namespace["ax_m"],
        ax_m1=namespace["ax_m1"],
        flops_scalar=terms.flops_scalar,
        flops_vector=terms.flops_vector,
        compile_seconds=dt,
    )


@register_emitter("numpy")
class NumpyEmitter(Emitter):
    """The historical ``exec`` path: CPython-compiled unrolled kernels
    (``batched=False``: the per-tensor pair of ``get_kernels``;
    ``batched=True``: the broadcasting suite of the kernel plans)."""

    variants = _CODEGEN_VARIANTS
    executable = True

    def emit(self, m: int, n: int, variant: str = "unrolled_cse", *,
             batched: bool = False, **_opts) -> EmittedKernel:
        """Compile the unrolled (+CSE) kernels with ``exec``."""
        self._check_variant(variant)
        return _numpy_emit(m, n, variant, bool(batched))


# -- numba: native JIT of the flat-batch straight-line kernels -------------


def numba_available() -> bool:
    """Whether the optional numba dependency can be imported."""
    return _load_numba() is not None


@lru_cache(maxsize=1)
def _load_numba():
    try:
        import numba
    except Exception:  # ImportError, or a broken install
        return None
    return numba


def generate_flat_source(m: int, n: int, cse: bool = False) -> tuple[str, int, int]:
    """Source for the flat-batch kernels: one explicit lane loop.

    Signatures are ``ax_m_flat(a, x, out)`` with ``a (L, U)``,
    ``x (L, n)``, ``out (L,)`` and ``ax_m1_flat(a, x, out)`` with
    ``out (L, n)``.  Per-lane inputs live in locals (registers, once
    JIT-compiled) exactly as the paper keeps per-thread vectors in
    registers; the loop is what Numba turns into native straight-line
    code.  Returns ``(source, flops_scalar, flops_vector)`` — the term
    list's per-lane counts, as every emitter reports them.
    """
    terms = unrolled_terms(m, n, cse, "a[l, {}]")
    scalar, vector = _python_bodies(terms, n, "x[l, {}]", "        ")
    source = "\n".join([
        f'"""Auto-generated flat-batch unrolled kernels for m={m}, n={n} '
        f'(cse={cse}).  Layout: a (L, U), x (L, n); one lane per row."""',
        "",
        "def ax_m_flat(a, x, out):",
        "    for l in range(x.shape[0]):",
        *scalar,
        "        out[l] = acc",
        "",
        "def ax_m1_flat(a, x, out):",
        "    for l in range(x.shape[0]):",
        *vector,
        *(f"        out[l, {i}] = y{i}" for i in range(n)),
        "",
    ])
    return source, terms.flops_scalar, terms.flops_vector


def _flatten_broadcast(values: np.ndarray, x: np.ndarray):
    """Broadcast ``values (..., U)`` against ``x (..., n)`` and flatten the
    lead dims to one lane axis; returns ``(v2, x2, lead, dtype)``."""
    values = np.asarray(values)
    x = np.asarray(x)
    lead = np.broadcast_shapes(values.shape[:-1], x.shape[:-1])
    dtype = np.result_type(values.dtype, x.dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        dtype = np.dtype(np.float64)
    U = values.shape[-1]
    n = x.shape[-1]
    L = int(np.prod(lead, dtype=np.int64)) if lead else 1
    v2 = np.ascontiguousarray(
        np.broadcast_to(values, lead + (U,)), dtype=dtype).reshape(L, U)
    x2 = np.ascontiguousarray(
        np.broadcast_to(x, lead + (n,)), dtype=dtype).reshape(L, n)
    return v2, x2, lead, dtype


def _wrap_flat(ax_m_flat: Callable, ax_m1_flat: Callable, n: int):
    """Broadcasting front for the flat-batch kernels, mirroring the
    numpy batched signature (``(values, x) -> lead-dim array``)."""

    def ax_m(values, x):
        v2, x2, lead, dtype = _flatten_broadcast(values, x)
        out = np.empty(v2.shape[0], dtype=dtype)
        ax_m_flat(v2, x2, out)
        return out.reshape(lead)

    def ax_m1(values, x):
        v2, x2, lead, dtype = _flatten_broadcast(values, x)
        out = np.empty((v2.shape[0], n), dtype=dtype)
        ax_m1_flat(v2, x2, out)
        return out.reshape(lead + (n,))

    return ax_m, ax_m1


def _compile_flat_functions(m: int, n: int, variant: str, source: str):
    """Materialize the two flat-kernel Python functions from ``source``.

    Prefers importing from a real module file under the plan-cache
    directory so ``numba.njit(cache=True)`` can persist machine code
    across processes; falls back to ``exec`` (JIT cache disabled) when
    the cache directory is unavailable.
    """
    from repro.kernels import diskcache

    path = diskcache.numba_module_path(m, n, variant)
    if path is not None:
        try:
            if not path.exists() or path.read_text() != source:
                diskcache.atomic_write_text(path, source)
            import importlib.util

            modname = f"repro_codegen_{path.stem}"
            spec = importlib.util.spec_from_file_location(modname, path)
            mod = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(mod)
            return mod.ax_m_flat, mod.ax_m1_flat, True
        except OSError:
            pass  # unwritable cache dir: compile in-memory, no JIT cache
    namespace: dict = {}
    exec(compile(source, f"<codegen-flat m={m} n={n} {variant}>", "exec"),
         namespace)  # noqa: S102 - controlled, generated source
    return namespace["ax_m_flat"], namespace["ax_m1_flat"], False


@lru_cache(maxsize=None)
def _numba_emit(m: int, n: int, variant: str) -> EmittedKernel:
    from repro.instrument.metrics import observe_codegen_compile

    numba = _load_numba()
    t0 = time.perf_counter()
    source, flops_scalar, flops_vector = generate_flat_source(
        m, n, cse=_variant_cse(variant))
    py_ax_m, py_ax_m1, file_backed = _compile_flat_functions(
        m, n, variant, source)
    jit = numba.njit(cache=file_backed, fastmath=False)
    ax_m_flat = jit(py_ax_m)
    ax_m1_flat = jit(py_ax_m1)
    # warm both kernels on tiny inputs so compilation cost lands here (and
    # in the persistent numba cache), not in the first solve sweep
    a = np.zeros((1, num_unique_entries(m, n)))
    x = np.zeros((1, n))
    ax_m_flat(a, x, np.zeros(1))
    ax_m1_flat(a, x, np.zeros((1, n)))
    dt = time.perf_counter() - t0
    observe_codegen_compile("numba", dt)
    ax_m, ax_m1 = _wrap_flat(ax_m_flat, ax_m1_flat, n)
    return EmittedKernel(
        backend="numba",
        effective_backend="numba",
        m=m,
        n=n,
        variant=variant,
        batched=True,
        source=source,
        ax_m=ax_m,
        ax_m1=ax_m1,
        flops_scalar=flops_scalar,
        flops_vector=flops_vector,
        compile_seconds=dt,
        meta={"jit_cache": file_backed, "numba": numba.__version__},
    )


@register_emitter("numba")
class NumbaEmitter(Emitter):
    """Native JIT of the flat-batch unrolled kernels via Numba.

    Always emits *batched* kernels (the flat-batch layout has no
    non-batched form; per-tensor use goes through broadcasting with a
    single lane).  Without numba installed, degrades to the ``numpy``
    emitter's batched kernels and records the fallback in the result.
    """

    variants = _CODEGEN_VARIANTS
    executable = True

    def available(self) -> bool:
        return numba_available()

    def emit(self, m: int, n: int, variant: str = "unrolled_cse", *,
             batched: bool = True, **_opts) -> EmittedKernel:
        self._check_variant(variant)
        if not self.available():
            base = _numpy_emit(m, n, variant, True)
            return replace(
                base,
                backend="numba",
                effective_backend="numpy",
                meta={"fallback": "numba is not installed; "
                                  "using the numpy exec path"},
            )
        return _numba_emit(m, n, variant)


# -- cuda-src: the CUDA C generator as a source-only emitter ---------------


@lru_cache(maxsize=None)
def _cuda_emit(m: int, n: int, variant: str, num_starts: int) -> EmittedKernel:
    from repro.kernels.cudagen import _generate_cuda_kernel

    t0 = time.perf_counter()
    source = _generate_cuda_kernel(m, n, num_starts, variant)
    dt = time.perf_counter() - t0
    flops_scalar = flops_vector = 0
    if num_unique_entries(m, n) <= MAX_UNROLLED_ENTRIES:
        # static per-thread flop counts of the unrolled terms (the GPU
        # perf model charges the same arithmetic to both variants)
        terms = unrolled_terms(m, n)
        flops_scalar, flops_vector = terms.flops_scalar, terms.flops_vector
    return EmittedKernel(
        backend="cuda-src",
        effective_backend="cuda-src",
        m=m,
        n=n,
        variant=variant,
        batched=True,
        source=source,
        ax_m=None,
        ax_m1=None,
        flops_scalar=flops_scalar,
        flops_vector=flops_vector,
        compile_seconds=dt,
        meta={"num_starts": num_starts},
    )


@register_emitter("cuda-src")
class CudaSourceEmitter(Emitter):
    """CUDA C source generation (Sections V-B/C/D), as an emitter.

    Source-only: there is no GPU here, so ``ax_m``/``ax_m1`` are ``None``
    — the emulation harness (:mod:`repro.kernels.cuda_emulator`) compiles
    the source with the system C++ compiler instead.
    """

    variants = ("unrolled", "general")
    executable = False

    def emit(self, m: int, n: int, variant: str = "unrolled", *,
             num_starts: int = 128, **_opts) -> EmittedKernel:
        self._check_variant(variant)
        return _cuda_emit(m, n, variant, int(num_starts))

