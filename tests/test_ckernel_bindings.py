"""The compiled core's binding table: every C export once, bound by one rule.

``ckernel._ENTRIES`` is the only place an exported C entry point is
declared, and ``ckernel.entry`` the only way to reach one.  These tests
pin the table to the C source (an export nothing binds, or a row whose
symbol is gone, fails here rather than at load time) and pin the one
availability rule: a disabled kernel binds nothing and never builds,
and a numpy whose summation order is unknown leaves exactly the
sum-ordered entries unbound.  The file runs with the kernel loaded and
with ``REPRO_DISABLE_CKERNEL=1``.
"""

from __future__ import annotations

import re

import pytest

from repro.sim import ckernel

#: A function defined at file scope without ``static``: the shared
#: object exports it.
_EXPORT = re.compile(r"^(?!static\b|typedef\b)[A-Za-z_][\w \t*]*?\b(\w+)\s*\(",
                     re.MULTILINE)


def test_table_lists_every_c_export_once():
    symbols = [e.symbol for e in ckernel._ENTRIES.values()]
    assert len(symbols) == len(set(symbols))
    assert set(symbols) == set(_EXPORT.findall(ckernel._SOURCE.read_text()))


def test_disabled_kernel_binds_nothing_and_never_builds(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("a disabled kernel was compiled or loaded")

    monkeypatch.setenv("REPRO_DISABLE_CKERNEL", "1")
    monkeypatch.setattr(ckernel, "_fns", None)  # force a re-probe
    monkeypatch.setattr(ckernel, "_compile", boom)
    monkeypatch.setattr(ckernel, "_load", boom)
    for name in ckernel._ENTRIES:
        assert ckernel.entry(name) is None, name
    assert not ckernel.kernel_available()
    assert ckernel.omp_max_threads() == 1


needs_kernel = pytest.mark.skipif(
    not ckernel.kernel_available(), reason="compiled kernel unavailable"
)


@needs_kernel
def test_loaded_kernel_binds_every_row_to_its_symbol():
    sum_known = ckernel._fns.sum_seeded is not None
    for name, row in ckernel._ENTRIES.items():
        fn = ckernel.entry(name)
        if row.sum_ordered and not sum_known:
            assert fn is None, name
        else:
            assert fn.__name__ == row.symbol
            assert fn.restype is row.restype
            assert tuple(fn.argtypes) == row.argtypes


@needs_kernel
def test_unknown_summation_order_unbinds_only_the_sum_ordered_entries(
        monkeypatch):
    monkeypatch.setattr(ckernel, "_sum_order", lambda probe: None)
    monkeypatch.setattr(ckernel, "_fns", ckernel._load(*ckernel._compile()))
    unbound = {name for name in ckernel._ENTRIES
               if ckernel.entry(name) is None}
    assert unbound == {"snapshot", "alloc", "survivors"}
    assert unbound == {name for name, row in ckernel._ENTRIES.items()
                       if row.sum_ordered}
