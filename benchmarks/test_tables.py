"""Paper shape check: regenerate Tables I-III."""

from repro.experiments import tables


def test_tables():
    data = tables.run()
    report = tables.report(data)
    assert "Table I" in report
    assert "Table II" in report
    assert "Table III" in report
    # 27 kernel rows plus headers.
    assert len(data["table2"].splitlines()) == 3 + 27
