"""Shared fixtures."""

import pytest

import nrphy.ldpc as ldpc_mod


def clear_code_caches():
    """Drop every table nrphy.ldpc derived from the base-graph files."""
    for obj in vars(ldpc_mod).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@pytest.fixture
def bad_parity_tables(tmp_path, monkeypatch):
    """Point the base-graph loader at a BG2 whose parity structure is wrong.

    BG2 extension row 4 also reads row 5's parity block (column 15), so the
    encoder cannot solve row 4's block from the blocks before it.
    """
    data_dir = tmp_path / "bad_tables"
    data_dir.mkdir()
    packaged = ldpc_mod.resources.files("nrphy") / "data"
    for name in ("bg1.txt", "bg2.txt"):
        (data_dir / name).write_text((packaged / name).read_text())
    with open(data_dir / "bg2.txt", "a") as fh:
        fh.write("4 15 0 0 0 0 0 0 0 0\n")
    monkeypatch.setenv(ldpc_mod.DATA_DIR_ENV, str(data_dir))
    clear_code_caches()
    yield data_dir
    monkeypatch.delenv(ldpc_mod.DATA_DIR_ENV)
    clear_code_caches()
