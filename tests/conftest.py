"""The check of the pins in ``tests/pins/``; it puts ``tools``, where their
recorder lives, on the import path."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from compare_queries import pin_diff  # noqa: E402


@pytest.fixture
def pin(tmp_path):
    """``pin(name, observed)`` fails unless ``observed`` is the pin
    ``<name>.txt`` of ``pins``, with ``pin_diff``'s lines and the file that
    holds ``observed``: copied over the pin, it re-records it."""

    def check(name: str, observed: str, pins: Path = ROOT / "tests" / "pins") -> None:
        committed = (pins / f"{name}.txt").read_text()
        if observed != committed:
            written = tmp_path / f"{name}.txt"
            written.write_text(observed)
            pytest.fail("\n".join([f"pin {name} moved:", *pin_diff(committed, observed),
                                   f"observed: {written}"]), pytrace=False)

    return check
