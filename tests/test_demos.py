"""The demos run to completion against the library in ``src``.

``06_render.py`` is left out because it writes SVG files into
``demos/output/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = (
    "01_polygon_basics.py",
    "02_zoo.py",
    "03_hearing_data.py",
    "04_reconstruction.py",
    "05_line_bundle.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
