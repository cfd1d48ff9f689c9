"""Output files. Every file platoonrl writes goes through `replaced`, so an
interrupted write leaves any earlier file intact."""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence


@contextmanager
def replaced(path: str | Path) -> Iterator[Path]:
    """Yield a temporary path beside `path` to write; move it over `path`
    on success, delete it on any error. It ends in the target's suffix, so
    writers that append one (np.savez) append nothing."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp{path.suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """One header line, then the rows, each cell as str() gives it."""
    with replaced(path) as tmp, tmp.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
