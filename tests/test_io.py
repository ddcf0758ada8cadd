"""Atomic output: a write that raises leaves the target as it was and no
temporary file behind."""

import pytest

from betamix._io import atomic_write
from betamix.config import write_rows_csv


def test_failed_write_keeps_the_target_and_leaves_no_tmp(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("a\n1\n")
    # the second record has a field the header lacks
    with pytest.raises(ValueError):
        write_rows_csv([{"a": 1}, {"a": 2, "b": 3}], target)
    assert target.read_text() == "a\n1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_failed_write_of_a_new_file_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "new.txt") as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert list(tmp_path.iterdir()) == []
