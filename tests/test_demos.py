"""The demo scripts run and print exactly the output pinned here."""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "biatomization_steps.py": "4a22f0e0325693afec05faece26cfc144cc8cfd78b9064056b1cf65f5f3f3211",
    "completion_walkthrough.py": "2929f55785d4cd831116163e90a86bcd67a0c01aeabf54749e30feae99049bd7",
    "convex_hull_lattices.py": "a1ecb6be5385d4700d3be5fba9064311d69e60ed16e7dc489de0cb02a62114e0",
    "separating_quasi_identity.py": "fcc9d323144c9c4aba2f3d9e402de2d85c8d4055785ba18734a0442d4611054e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("name,digest", sorted(DEMO_DIGESTS.items()))
def test_demo_stdout_pinned(capsys, name, digest):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
