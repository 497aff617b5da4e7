"""Every public name has a caller or a test."""

import re
from pathlib import Path

import slidingesc

ROOT = Path(__file__).resolve().parent.parent
INIT = ROOT / "src" / "slidingesc" / "__init__.py"


def test_every_public_name_is_used():
    sources = [path for pattern in ("tests/**/*.py", "src/slidingesc/**/*.py")
               for path in ROOT.glob(pattern) if path != INIT]
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    # a definition is not a use
    text = re.sub(r"^\s*(?:def|class) \w+", "", text, flags=re.MULTILINE)
    unused = [name for name in slidingesc.__all__
              if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert unused == []
