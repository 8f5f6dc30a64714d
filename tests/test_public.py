import contextlib
import io
import re
from pathlib import Path

import sechain

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_surface_and_readme_session():
    # A name left in __all__ after its definition is deleted fails here.
    missing = [name for name in sechain.__all__ if not hasattr(sechain, name)]
    assert missing == []
    assert len(set(sechain.__all__)) == len(sechain.__all__)

    # The README "quick session" runs, and prints what its comments say.
    text = _README.read_text(encoding="utf-8")
    session = re.search(r"A quick session:\n\n```python\n(.*?)```", text, re.S)
    assert session is not None
    code = session.group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.+)$", code, re.M)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(_README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 3
    for got, comment in zip(printed, expected):
        if comment.startswith(">= "):
            assert int(got) >= int(comment[3:])
        else:
            assert got == comment
    level = namespace["level"]
    assert len(level.a) == len(level.b) == 8 and len(level.witness) == 20
