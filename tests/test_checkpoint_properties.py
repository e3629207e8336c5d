"""Resume property of the census checkpoint, drawn by hypothesis when it is
installed (the `test` extra); skipped otherwise."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from dichroma.enumeration import dicritical_census


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """A finished census(5, 2) checkpoint's bytes and its report's JSON."""
    ck = tmp_path_factory.mktemp("finished") / "census.ckpt"
    rep = dicritical_census(5, 2, checkpoint=str(ck))
    return ck.read_bytes(), json.dumps(rep.to_json())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_census_resumes_from_any_cut(finished, tmp_path_factory, data):
    # a kill may cut the file anywhere, in the header or mid-record; the
    # resumed run drops the torn line and gives the same file and report
    blob, report = finished
    cut = data.draw(st.integers(0, len(blob)), label="cut")
    ck = tmp_path_factory.mktemp("cut") / "census.ckpt"
    ck.write_bytes(blob[:cut])
    resumed = dicritical_census(5, 2, checkpoint=str(ck))
    assert ck.read_bytes() == blob
    assert json.dumps(resumed.to_json()) == report
