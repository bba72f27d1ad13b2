import json
from pathlib import Path

import pytest

GOLDEN_DIGESTS = Path(__file__).with_name("golden_digests.json")


@pytest.fixture(scope="session")
def golden() -> dict:
    """sha256 of every output file of the fixed commands, keyed "<run>/<file>"."""
    return json.loads(GOLDEN_DIGESTS.read_text())
