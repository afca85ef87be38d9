"""Each quick demo runs to the end as a script, the way a reader runs it.

`demos/03_language_alignment_training.py` is left out: it trains a model
for about 35 s, longer than the rest of a test module should take.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", [
    "01_depth_to_voxel_tokens.py",
    "02_incremental_scene_updates.py",
    "04_interactive_episode.py",
])
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
