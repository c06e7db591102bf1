"""Shared fixtures."""

import pytest

import nrphy.ldpc as ldpc_mod


def clear_code_caches():
    """Drop every table nrphy.ldpc derived from the base-graph files."""
    for obj in vars(ldpc_mod).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def _tables_with(tmp_path, monkeypatch, bg2_record):
    """Point the base-graph loader at the packaged tables plus one BG2 record."""
    data_dir = tmp_path / "bad_tables"
    data_dir.mkdir()
    packaged = ldpc_mod.resources.files("nrphy") / "data"
    for name in ("bg1.txt", "bg2.txt"):
        (data_dir / name).write_text((packaged / name).read_text())
    with open(data_dir / "bg2.txt", "a") as fh:
        fh.write(bg2_record + "\n")
    monkeypatch.setenv(ldpc_mod.DATA_DIR_ENV, str(data_dir))
    clear_code_caches()
    yield data_dir
    monkeypatch.delenv(ldpc_mod.DATA_DIR_ENV)
    clear_code_caches()


@pytest.fixture
def bad_parity_tables(tmp_path, monkeypatch):
    """Point the base-graph loader at a BG2 whose parity structure is wrong.

    BG2 extension row 4 also reads row 5's parity block (column 15), so the
    encoder cannot solve row 4's block from the blocks before it.
    """
    yield from _tables_with(tmp_path, monkeypatch, "4 15 0 0 0 0 0 0 0 0")


@pytest.fixture
def singular_core_tables(tmp_path, monkeypatch):
    """Point the base-graph loader at a BG2 whose parity core cannot be inverted.

    Core row 1 also reads p0 (column 10), so p0 has four edges. The sum of an
    even number of powers of x is divisible by x + 1, which divides x^Zc + 1,
    so no lifting size has an inverse.
    """
    yield from _tables_with(tmp_path, monkeypatch, "1 10 5 5 5 5 5 5 5 5")
