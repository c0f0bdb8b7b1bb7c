import errno

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


@pytest.fixture
def fill_disk(monkeypatch):
    """Call it to make every file the package writes from then on fail after
    its first 16 bytes, as on a full disk (reads are left alone); it returns
    the list of the paths whose writes were cut short."""
    from hemoseg import volumes

    def fill():
        cut = []
        real_open = open

        class Truncating:
            def __init__(self, path, mode):
                self.path = path
                self.fh = real_open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.fh.write(bytes(chunk)[:16])
                cut.append(self.path)
                raise OSError(errno.ENOSPC, "No space left on device")

        def opener(path, mode="r", *args, **kwargs):
            return Truncating(path, mode) if "w" in mode else real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(volumes, "open", opener, raising=False)
        return cut

    return fill
