"""The solve and verify path never loads numpy, and the array commands that do
load it still write the same bytes.

Each law runs one fresh interpreter that imports ragame, solves, verifies and
runs the numpy-free CLI commands, checking ``sys.modules`` after every step;
only then does it run ``success-curve`` and ``simulate``, whose outputs are
pinned by digest.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

LAWS = {
    "disk": {"kind": "uniform-disk"},
    "piecewise": {"kind": "piecewise-linear-cdf",
                  "knots": [[0.0, 0.0], [3.0, 0.1], [8.0, 0.7], [12.0, 1.0]]},
}
PROFILE = [{"threshold": 6.0}, {"intervals": [[2.0, 5.0], [7.0, 9.5]]}, {"threshold": 12.0}]

SCRIPT = r"""
import json, sys

def numpy_free(step):
    if "numpy" in sys.modules:
        sys.exit(f"numpy loaded after: {step}")

numpy_free("interpreter start")
import ragame
numpy_free("import ragame")
import ragame.cli
numpy_free("import ragame.cli")
config, profile, out = sys.argv[1:]
with open(config) as fh:
    cfg = ragame.GameConfig.from_spec(json.load(fh))
report = ragame.solve_sequential(cfg)
numpy_free("solve_sequential")
ragame.verify_nash(report.profile, cfg)
numpy_free("verify_nash")
codes = {}
for name, argv in (
    ("equilibrium", ["equilibrium", "--config", config]),
    ("verify", ["verify", "--config", config, "--profile", profile]),
    ("cutoff-sweep", ["cutoff-sweep", "--n-list", "2,5", "--c-list", "0.5,3.0"]),
    ("success-curve", ["success-curve", "--config", config, "--profile", profile, "--node", "0"]),
    ("simulate", ["simulate", "--config", config, "--profile", profile, "--node", "0",
                  "--d", "4.0", "--samples", "20000", "--seed", "7"]),
):
    codes[name] = ragame.cli.main([*argv, "--out", f"{out}/{name}.out"])
    if name in ("equilibrium", "verify", "cutoff-sweep"):
        numpy_free(f"ragame.cli.main({argv[0]!r})")
print(json.dumps(codes))
"""

#: sha256 of the files ``success-curve`` and ``simulate`` write above.
DIGESTS = {
    "disk": {
        "success-curve": "00382453747d407e0f2398b01edf6e5b578923699462e7bc4c2c98df04e80567",
        "simulate": "e4cfdb9d8fbdff3364d950c6fa2313c8aa95030fce6a48c2585897695b14002f",
    },
    "piecewise": {
        "success-curve": "b36c508c13cbe7e0680086963bd9a47dbaa3513988307bf5dd3753f1f60b7ff0",
        "simulate": "3b02547ad74f27a919190c822c0560b66f9f46ff1bbc6c767addc3d9da007617",
    },
}


@pytest.mark.parametrize("law", sorted(LAWS))
def test_solve_and_verify_never_load_numpy(tmp_path, law):
    config, profile = tmp_path / "config.json", tmp_path / "profile.json"
    config.write_text(json.dumps(
        {"radius": 12.0, "n": 3, "costs": [3.0, 3.0, 1.0], "distribution": LAWS[law]}
    ))
    profile.write_text(json.dumps(PROFILE))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(profile), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout)
    assert codes == {"equilibrium": 0, "verify": 1, "cutoff-sweep": 0,
                     "success-curve": 0, "simulate": 0}
    for name, digest in DIGESTS[law].items():
        data = (tmp_path / f"{name}.out").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
