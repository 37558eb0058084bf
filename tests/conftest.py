import pytest

import unitprop.cnf as cnf


@pytest.fixture
def sort_counter(monkeypatch):
    """Records every clause put into canonical order (each ``clause_key`` call)."""
    calls = []
    clause_key = cnf.clause_key

    def counted(clause):
        calls.append(clause)
        return clause_key(clause)

    monkeypatch.setattr(cnf, "clause_key", counted)
    return calls
