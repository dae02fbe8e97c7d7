import multiprocessing
import sys

import pytest

from needlab import terms

#: The functions that walk a whole term, besides NameSupply.for_terms.
WALKS = ("scan", "free_vars", "subterms")


@pytest.fixture
def walks(monkeypatch):
    """Calls so far of each whole-term walk: terms.scan, terms.free_vars,
    terms.subterms and NameSupply.for_terms ("for_terms"), each patched in
    every needlab module that imported it."""
    counts = dict.fromkeys(WALKS + ("for_terms",), 0)
    for attr in WALKS:
        real = getattr(terms, attr)

        def counted(*args, _attr=attr, _real=real):
            counts[_attr] += 1
            return _real(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "needlab" and getattr(module, attr, None) is real:
                monkeypatch.setattr(module, attr, counted)
    real_for_terms = terms.NameSupply.__dict__["for_terms"].__func__

    def for_terms(cls, ts):
        counts["for_terms"] += 1
        return real_for_terms(cls, ts)

    monkeypatch.setattr(terms.NameSupply, "for_terms", classmethod(for_terms))
    return counts


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fails a test that leaves a multiprocessing child alive, after ending
    the children, so that the tests after it start without them."""
    yield
    stray = multiprocessing.active_children()
    message = f"left running: {stray}"
    for child in stray:
        child.terminate()
        child.join()
    assert not stray, message
