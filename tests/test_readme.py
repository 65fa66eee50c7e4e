"""README's Python API example runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the last three per-relay calls print their route and SNR last: the
    # closed form and the SDP route, which reach the same optimum here, then
    # GRP on the relaxation handed over, which reaches at most that optimum
    closed, general, grp = (float(line.split()[-1]) for line in lines[-3:])
    assert lines[-2].startswith("sdp ") and lines[-1].startswith("grp ")
    assert closed > 0 and general > 0
    assert abs(general - closed) <= 1e-6 * closed
    assert 0 < grp <= closed * (1 + 1e-9)
