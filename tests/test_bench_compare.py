"""scripts/bench_compare.py: each side runs from source, whatever bytecode its checkout holds."""

import importlib.util
import json
import os
import py_compile
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "bench_compare.py"
_spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)

RUN = """import json, value
print(json.dumps({"correct": True, "value": value.VALUE}))
"""


def test_a_stale_pyc_in_the_checkout_is_not_read(tmp_path):
    # value.py's bytecode says VALUE = 1, but its source, of the same size and
    # modification time, says 2: the interpreter trusts such a .pyc
    tree = tmp_path / "checkout" / "perfbench"
    tree.mkdir(parents=True)
    (tree / "run.py").write_text(RUN)
    source = tree / "value.py"
    source.write_text("VALUE = 1\n")
    stale = Path(py_compile.compile(str(source)))
    stat = source.stat()
    source.write_text("VALUE = 2\n")
    os.utime(source, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    stale_bytes = stale.read_bytes()

    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    plain = subprocess.run([sys.executable, "perfbench/run.py"], cwd=tree.parent, env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(plain.stdout)["value"] == 1  # the stale .pyc is live

    cache = tmp_path / "cache"
    cache.mkdir()
    result = bench_compare.run_once(tree.parent, "w", 1, 1.0, 0, cache)
    assert result["value"] == 2
    assert stale.read_bytes() == stale_bytes
    assert sorted(p.name for p in tree.iterdir()) == ["__pycache__", "run.py", "value.py"]
    assert [p.name for p in (tree / "__pycache__").iterdir()] == [stale.name]
