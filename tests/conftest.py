import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Subprocesses (`python -m varschouten`) import the same checkout as the
# suite, which reaches src/ through the pytest `pythonpath` setting.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
