import os
import subprocess
import sys

import mot3d

MODULES = ("association", "calibration", "core", "dataset_io", "errors", "kalman",
           "metrics", "synthetic", "tracker", "viz")


def test_every_public_name_resolves():
    # the API lives in the modules; the package re-exports nothing
    assert isinstance(mot3d.__version__, str)
    assert [name for name in MODULES if not hasattr(mot3d, name)] == []
    assert not hasattr(mot3d, "__all__")
    # a bare import loads exactly these modules, in a fresh interpreter
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, mot3d; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout.split()
    assert sorted(name for name in loaded if name.startswith("mot3d.")) == \
        [f"mot3d.{name}" for name in MODULES]
