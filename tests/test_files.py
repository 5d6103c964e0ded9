import errno
import os

import pytest

from qpae.files import write_atomic

from helpers import FailingWrite


def test_writes_the_bytes_and_mode_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text('{"a": 1}\n')
    atomic = tmp_path / "atomic.json"
    write_atomic(atomic, '{"a": 1}\n')
    assert atomic.read_bytes() == plain.read_bytes()
    assert os.stat(atomic).st_mode == os.stat(plain).st_mode
    write_atomic(atomic, b"\x00\xff")
    assert atomic.read_bytes() == b"\x00\xff"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic.json", "plain.json"]


@pytest.mark.parametrize("fail_at", ["write", "rename"])
def test_a_failed_write_leaves_no_file(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "model.qpae"
    real_fdopen = os.fdopen

    def no_rename(src, dst):
        raise OSError(errno.EXDEV, "cross-device link")

    if fail_at == "write":
        monkeypatch.setattr(os, "fdopen",
                            lambda fd, mode: FailingWrite(real_fdopen(fd, mode)))
    else:
        monkeypatch.setattr(os, "replace", no_rename)
    with pytest.raises(OSError):
        write_atomic(path, b"0123456789")
    assert list(tmp_path.iterdir()) == []
