"""Puts ``scripts/`` on the import path, so tests import the data script's helpers."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
